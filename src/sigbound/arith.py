"""Exact integer arithmetic: primes and factored smooth numbers.

Everything here is pure and exact (Python ints); the directed floating-point
layer lives in dirround.py.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import InvalidParameterError


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to an inclusive bound, in increasing order."""

    bound: int
    primes: tuple[int, ...]

    def odd(self) -> tuple[int, ...]:
        """Primes above 2 (the ones usable in odd smooth values)."""
        return self.primes[1:] if self.primes and self.primes[0] == 2 else self.primes


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
