"""Exact empirical counting via a segmented sum-of-divisors sieve.

Each block factors its integers by the primes up to sqrt(end) and rebuilds
sigma multiplicatively on the fly, so memory is O(block) and the counts are
exact 64-bit integer arithmetic end to end: results are bit-identical for any
block size. The sieve accepts values below 4e17, where sigma(m) < 7m, so every
sigma it builds stays below 2^63.
"""
from __future__ import annotations

from math import gcd, isqrt
from typing import Optional

import numpy as np

from .arith import sieve_primes
from .errors import InvalidParameterError

DEFAULT_BLOCK = 10**7

# sigma(m) < 7m for every m < 1.97e24 (the first m with sigma(m) >= 7m is
# OEIS A023199(7)), and 7 * 4e17 < 2^63, so sigma never overflows int64 here.
# The bound is not 6: sigma(m)/m = 6.017 at m = 130429015516800 < 4e17.
_MAX_SIEVE_VALUE = 4 * 10**17


def sigma_block(lo: int, hi: int, primes: Optional[tuple[int, ...]] = None) -> np.ndarray:
    """sigma(m) for every m in [lo, hi) as an int64 array."""
    if not 1 <= lo < hi:
        raise InvalidParameterError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    if hi > _MAX_SIEVE_VALUE:
        raise InvalidParameterError(f"sieve limit {hi} exceeds the int64-safe range")
    n = hi - lo
    if primes is None:
        primes = sieve_primes(max(2, isqrt(hi - 1))).primes
    rem = np.arange(lo, hi, dtype=np.int64)
    sig = np.ones(n, dtype=np.int64)
    for p in primes:
        if p * p >= hi:
            break
        start = (-lo) % p
        idx = np.arange(start, n, p, dtype=np.int64)
        if idx.size == 0:
            continue
        r = rem[idx] // p
        term = np.full(idx.size, p + 1, dtype=np.int64)
        active = np.nonzero(r % p == 0)[0]
        while active.size:
            r[active] //= p
            term[active] = term[active] * p + 1
            active = active[r[active] % p == 0]
        sig[idx] *= term
        rem[idx] = r
    big = rem > 1
    sig[big] *= rem[big] + 1
    return sig


def smooth_part_block(
    lo: int, hi: int, y: int, primes: Optional[tuple[int, ...]] = None
) -> np.ndarray:
    """Largest y-smooth divisor of every m in [lo, hi) as an int64 array."""
    if not 1 <= lo < hi:
        raise InvalidParameterError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    if primes is None:
        primes = sieve_primes(y).primes
    n = hi - lo
    rem = np.arange(lo, hi, dtype=np.int64)
    part = np.ones(n, dtype=np.int64)
    for p in primes:
        if p > y:
            break
        start = (-lo) % p
        idx = np.arange(start, n, p, dtype=np.int64)
        if idx.size == 0:
            continue
        r = rem[idx] // p
        f = np.full(idx.size, p, dtype=np.int64)
        active = np.nonzero(r % p == 0)[0]
        while active.size:
            r[active] //= p
            f[active] *= p
            active = active[r[active] % p == 0]
        part[idx] *= f
        rem[idx] = r
    return part


def count_sigma_ge(x: int, block_size: int = DEFAULT_BLOCK) -> tuple[int, float]:
    """Exact count and proportion of n <= x with sigma(2n+1) >= sigma(2n)."""
    if x < 1:
        raise InvalidParameterError(f"x must be >= 1, got {x}")
    if block_size < 2:
        raise InvalidParameterError(f"block_size must be >= 2, got {block_size}")
    half = max(block_size // 2, 1)
    primes = sieve_primes(max(2, isqrt(2 * x + 1))).primes
    count = 0
    n0 = 1
    while n0 <= x:
        n1 = min(x + 1, n0 + half)
        sig = sigma_block(2 * n0, 2 * n1, primes)
        count += int(np.count_nonzero(sig[1::2] >= sig[0::2]))
        n0 = n1
    return count, count / x


def moment_sum(
    a: int, b: int, y: int, r: int, x: int, block_size: int = DEFAULT_BLOCK
) -> tuple[float, float]:
    """Sums of h^r(2n+1) and h^r(2n) over n <= x lying in the (a, b) cell.

    Exact cell membership (largest y-smooth divisor equality) with float64
    power sums; r = 0 degenerates to counting the cell. Oracle for the
    moment-mean asymptotics, so x is expected to stay at desk scale.
    """
    if a < 1 or a % 2 == 0:
        raise InvalidParameterError(f"a must be a positive odd integer, got {a}")
    if b < 2 or b % 2 == 1:
        raise InvalidParameterError(f"b must be a positive even integer, got {b}")
    if gcd(a, b) != 1:
        raise InvalidParameterError(f"a and b must be coprime, got {a}, {b}")
    if y < 2:
        raise InvalidParameterError(f"y must be >= 2, got {y}")
    if r < 0:
        raise InvalidParameterError(f"r must be >= 0, got {r}")
    if x < 1:
        raise InvalidParameterError(f"x must be >= 1, got {x}")
    half = max(block_size // 2, 1)
    sieve_primes_list = sieve_primes(max(2, isqrt(2 * x + 1))).primes
    y_primes = sieve_primes(y).primes
    total_odd = 0.0
    total_even = 0.0
    n0 = 1
    while n0 <= x:
        n1 = min(x + 1, n0 + half)
        lo, hi = 2 * n0, 2 * n1
        part = smooth_part_block(lo, hi, y, y_primes)
        mask = (part[1::2] == a) & (part[0::2] == b)
        if mask.any():
            sig = sigma_block(lo, hi, sieve_primes_list)
            m = np.arange(lo, hi, dtype=np.int64)
            if r == 0:
                cnt = float(np.count_nonzero(mask))
                total_odd += cnt
                total_even += cnt
            else:
                h_odd = sig[1::2][mask] / m[1::2][mask]
                h_even = sig[0::2][mask] / m[0::2][mask]
                total_odd += float(np.sum(h_odd**r))
                total_even += float(np.sum(h_even**r))
        n0 = n1
    return total_odd, total_even


def naive_sigma_upto(n: int) -> list[int]:
    """sigma(1..n) by adding every divisor to its multiples; test oracle."""
    out = [0] * (n + 1)
    for d in range(1, n + 1):
        for m in range(d, n + 1, d):
            out[m] += d
    return out
