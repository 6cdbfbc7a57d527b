"""The package's one prime sieve.

`primes_upto(bound)` returns the primes <= bound as an int64 array. Where the
primes feed exact integer arithmetic, callers take `.tolist()` so that it runs
on Python ints; the directed floating-point layer lives in dirround.py.
"""
from __future__ import annotations

from math import isqrt, log

import numpy as np

# Segment length, in odd numbers, of the sieve.
_PRIME_SEGMENT = 2**20


def primes_upto(bound: int) -> np.ndarray:
    """The primes <= bound, increasing, as an int64 array (empty below 2),
    sieved in segments of odd numbers, so the memory is 8 bytes per prime
    plus one segment."""
    if bound < 2:
        return np.empty(0, dtype=np.int64)
    base = primes_upto(isqrt(bound))[1:]
    # pi(x) < 1.25506 x / ln x for x > 1 (Rosser and Schoenfeld 1962); the
    # pages of the unused tail are never touched. log only sizes this
    # allocation: an array too short fails on the write past its end.
    out = np.empty(int(1.25506 * bound / log(bound)) + 2, dtype=np.int64)
    out[0] = 2
    count = 1
    for lo in range(3, bound + 1, 2 * _PRIME_SEGMENT):
        hi = min(bound + 1, lo + 2 * _PRIME_SEGMENT)
        odd = np.ones((hi - lo + 1) // 2, dtype=bool)  # odd[i]: lo + 2i
        for p in base[base * base < hi].tolist():
            first = max(p * p, (lo + p - 1) // p * p)
            if first % 2 == 0:
                first += p
            odd[(first - lo) // 2 :: p] = False
        found = 2 * np.flatnonzero(odd) + lo
        out[count : count + found.size] = found
        count += found.size
    return out[:count]
