"""Exact empirical counting via a segmented sum-of-divisors sieve.

A block [lo, hi) is factored by the primes up to sqrt(hi - 1) in strided
passes: for a prime p and each power p^k < hi, the multiples of p^k in the
block are a numpy slice with step p^k, so every update is in place on a view,
with no index arrays and no division per prime. sigma is rebuilt
multiplicatively, one factor 1 + p + ... + p^e per prime, while a running
product of the sieved prime powers gives the cofactor (1 or one prime) by a
single division at the end. Memory is O(block) and the counts are exact 64-bit
integer arithmetic end to end: results are bit-identical for any block size.
The sieve accepts values below 4e17, where sigma(m) < 7m, so every sigma it
builds stays below 2^63.

`count_sigma_ge` and `moment_sum` derive the block size from x: 256 integers
per sieving prime, at least 2^18 and at most 2^24 (MAX_BLOCK). A block costs
24 bytes per integer at its peak, so 6 MB at 2^18, the size at x = 1e7, and
384 MB at the cap.
"""
from __future__ import annotations

from math import gcd, isqrt
from typing import Optional

import numpy as np

from .arith import sieve_primes
from .errors import InvalidParameterError

# Block sizes, in integers per sieved block. The derived size keeps about 256
# integers per sieving prime, so the Python work per prime stays small next to
# the numpy work, and is at least _MIN_BLOCK, small enough for a block's arrays
# to stay in cache.
_MIN_BLOCK = 2**18
_BLOCK_PER_PRIME = 256
MAX_BLOCK = 2**24

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
    sig = np.ones(n, dtype=np.int64)
    part = np.ones(n, dtype=np.int64)  # the part of m made of the primes sieved so far
    for p in primes:
        if p * p >= hi:
            break
        start = (-lo) % p
        if start >= n:
            continue
        # term[i] becomes sigma(p^e) for the i-th multiple of p, p^e || m
        term = np.empty((n - 1 - start) // p + 1, dtype=np.int64)
        term.fill(p + 1)
        part[start::p] *= p
        pk = p
        while pk <= (hi - 1) // p:
            s = (-lo) % (pk * p)
            if s >= n:
                break
            level = term[(s - start) // p :: pk]
            level *= p
            level += 1
            part[s :: pk * p] *= p
            pk *= p
        sig[start::p] *= term
    # the cofactor left is 1 or one prime above sqrt(hi - 1)
    np.floor_divide(np.arange(lo, hi, dtype=np.int64), part, out=part)
    part += part > 1
    sig *= part
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
    part = np.ones(n, dtype=np.int64)
    for p in primes:
        if p > y:
            break
        pk = p
        while True:
            s = (-lo) % pk
            if s >= n:
                break
            part[s::pk] *= p
            if pk > (hi - 1) // p:
                break
            pk *= p
    return part


def _sieving_primes(x: int) -> tuple[int, ...]:
    """The primes that blocks of 2n and 2n+1, n <= x, are sieved by."""
    return sieve_primes(max(2, isqrt(2 * x + 1))).primes


def _block_for(primes: tuple[int, ...]) -> int:
    return min(MAX_BLOCK, max(_MIN_BLOCK, _BLOCK_PER_PRIME * len(primes)))


def _check_sieve(x: int) -> None:
    """Reject x before anything x-sized is built."""
    if x < 1:
        raise InvalidParameterError(f"x must be >= 1, got {x}")
    if 2 * x + 2 > _MAX_SIEVE_VALUE:
        raise InvalidParameterError(f"sieve limit {2 * x + 2} exceeds the int64-safe range")


def count_sigma_ge(x: int) -> tuple[int, float]:
    """Exact count and proportion of n <= x with sigma(2n+1) >= sigma(2n)."""
    _check_sieve(x)
    primes = _sieving_primes(x)
    half = _block_for(primes) // 2
    count = 0
    n0 = 1
    while n0 <= x:
        n1 = min(x + 1, n0 + half)
        sig = sigma_block(2 * n0, 2 * n1, primes)
        count += int(np.count_nonzero(sig[1::2] >= sig[0::2]))
        n0 = n1
    return count, count / x


def moment_sum(a: int, b: int, y: int, r: int, x: int) -> tuple[float, float]:
    """Sums of h^r(2n+1) and h^r(2n) over n <= x lying in the (a, b) cell.

    Exact cell membership (largest y-smooth divisor equality) with float64
    power sums; r = 0 degenerates to counting the cell. Oracle for the
    moment-mean asymptotics, so x is expected to stay at desk scale. Blocks
    are sized as in `count_sigma_ge`.
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
    _check_sieve(x)
    sieve_primes_list = _sieving_primes(x)
    half = _block_for(sieve_primes_list) // 2
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
