"""Exact integer arithmetic: primes, divisor sums, smooth numbers.

Everything here is pure and exact (Python ints / Fraction); the directed
floating-point layer lives in dirround.py.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Iterator, Sequence, Union

from .errors import InvalidParameterError

Factorization = Sequence[tuple[int, int]]


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to an inclusive bound, in increasing order."""

    bound: int
    primes: tuple[int, ...]

    def odd(self) -> tuple[int, ...]:
        """Primes above 2 (the ones usable in odd smooth values)."""
        return self.primes[1:] if self.primes and self.primes[0] == 2 else self.primes

    def primorial(self) -> int:
        n = 1
        for p in self.primes:
            n *= p
        return n


@dataclass(frozen=True)
class FactoredSmooth:
    """A positive integer carried together with its prime factorization.

    factors is a tuple of (prime, exponent) pairs with strictly increasing
    primes and exponents >= 1; the empty tuple encodes 1.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def prime_set(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @staticmethod
    def one() -> "FactoredSmooth":
        return FactoredSmooth(1, ())


def sieve_primes(bound: int) -> PrimeTable:
    """Eratosthenes sieve; requires bound >= 2."""
    if bound < 2:
        raise InvalidParameterError(f"prime sieve bound must be >= 2, got {bound}")
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return PrimeTable(bound, tuple(i for i in range(bound + 1) if sieve[i]))


def _as_factors(f: Union[FactoredSmooth, Factorization]) -> Factorization:
    if isinstance(f, FactoredSmooth):
        return f.factors
    return f


def sigma(f: Union[FactoredSmooth, Factorization]) -> int:
    """Sum of divisors from a factorization: product of (p^(e+1)-1)/(p-1)."""
    s = 1
    for p, e in _as_factors(f):
        s *= (p ** (e + 1) - 1) // (p - 1)
    return s


def abundancy(f: Union[FactoredSmooth, Factorization]) -> Fraction:
    """sigma(n)/n in lowest terms; equals 1 only for n = 1."""
    factors = _as_factors(f)
    n = 1
    for p, e in factors:
        n *= p**e
    return Fraction(sigma(factors), n)


def factorize(n: int) -> FactoredSmooth:
    """Trial-division factorization; oracle-scale only (small n)."""
    if n < 1:
        raise InvalidParameterError(f"cannot factor {n}")
    m = n
    factors = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return FactoredSmooth(n, tuple(factors))


def split_smooth(n: int, primes: PrimeTable) -> tuple[FactoredSmooth, int]:
    """n = s * c with s built from the primes of `primes` and c coprime to
    them: returns s factored and the cofactor c, which is 1 exactly when n is
    smooth over `primes`. One trial division per prime, however large n is."""
    if n < 1:
        raise InvalidParameterError(f"cannot factor {n}")
    m = n
    factors = []
    for p in primes.primes:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    return FactoredSmooth(n // m, tuple(factors)), m


def iter_smooth(primes: Iterable[int], limit: int) -> Iterator[FactoredSmooth]:
    """Every integer in [1, limit] whose prime factors all lie in `primes`.

    Visits each value exactly once with its factorization. Restricting to odd
    values means omitting 2 from `primes`; restricting to values coprime to
    some m means omitting the primes of m. The visit order is an
    implementation detail and not part of the contract.
    """
    if limit < 1:
        raise InvalidParameterError(f"smooth enumeration limit must be >= 1, got {limit}")
    plist = sorted(set(primes))
    if plist and plist[0] < 2:
        raise InvalidParameterError("prime list contains a non-prime entry < 2")

    stack: list[tuple[int, int]] = []

    def rec(start: int, value: int) -> Iterator[FactoredSmooth]:
        yield FactoredSmooth(value, tuple(stack))
        for j in range(start, len(plist)):
            p = plist[j]
            v = value * p
            if v > limit:
                break
            e = 1
            while v <= limit:
                stack.append((p, e))
                yield from rec(j + 1, v)
                stack.pop()
                v *= p
                e += 1

    yield from rec(0, 1)


def largest_smooth_divisor(n: int, y: int) -> int:
    """Largest divisor of n composed only of primes <= y (oracle helper)."""
    if n < 1 or y < 2:
        raise InvalidParameterError(f"need n >= 1 and y >= 2, got n={n}, y={y}")
    out = 1
    m = n
    p = 2
    while p <= y and p * p <= m:
        while m % p == 0:
            m //= p
            out *= p
        p += 1 if p == 2 else 2
    if m > 1 and m <= y:
        out *= m
    return out


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, u, v) with a*u + b*v = g = gcd(a, b)."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    return old_r, old_u, old_v

