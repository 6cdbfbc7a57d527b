"""Exact empirical counting via a segmented sum-of-divisors sieve.

A block [lo, hi) of n integers is factored by the primes up to sqrt(hi - 1).
Every update is a multiplication in place, in three kinds of pass:

- The prime 2: the lowest set bit of m, m & -m, is its 2-part 2^v, and
  sigma(2^v) = 2^(v+1) - 1. That is four contiguous passes, run, like the
  cofactor pass, in chunks of 2^14 integers that stay in cache.
- The odd primes p <= n / 512 (p <= 512 in a 2^18 block): one strided pass
  per prime power p^k < hi, because the multiples of p^k in the block are a
  numpy slice with step p^k.
- The larger primes, each with fewer than 512 multiples in the block: in
  batches of at most n / 16 multiples. One index array holds the multiples of
  all the batch's primes (np.repeat and cumsum), a short loop over k >= 2
  corrects the multiples of each p^k, and one unbuffered scatter
  (np.multiply.at) each updates sig and part, so an m with two of these
  primes gets both.

sigma is rebuilt multiplicatively, one factor 1 + p + ... + p^e per prime,
while `part`, the product of the sieved prime powers, gives the cofactor (1 or
one prime) by a single integer division at the end. Every value a block
builds is below 7 * hi, since sigma(d) < 7d for every divisor d of m (see
_MAX_SIEVE_VALUE), so the arithmetic is exact integer arithmetic in one of two
word widths: uint32 when 7 * hi < 2^32, int64 otherwise. The sieve accepts
values below 4e17, where 7 * hi stays below 2^63. Results are bit-identical
for any block size and either width.

`count_sigma_ge` and `moment_sum` derive the block size from x: 256 integers
per sieving prime, at least 2^18 and at most 2^24 (MAX_BLOCK). They allocate
the block buffers once per call, in uint32 when the last block's hi, 2x + 2,
passes the rule above (x <= 306,783,377) and in int64 otherwise. A block
peaks at about 12 bytes per integer in uint32 and 21 in int64 (sig and part,
8 or 16; the term of the prime 3; a scatter batch; the chunk buffers). By
tracemalloc, uint32 takes 3.2 MB at 2^18, the size at x = 1e7, and 8.0 MB at
x = 3e8 (695,552 integers); int64 takes 5.7 MB at 2^18, 87 MB at 2^22 and,
at 21 bytes per integer, about 350 MB at the cap. The sieving primes are an
int64 array from `arith.primes_upto`, 8 bytes per prime: 263 MB for x = 2e17.
"""
from __future__ import annotations

from math import isqrt
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .arith import primes_upto
from .engine import check_cell
from .errors import InvalidParameterError, UnsupportedParameterError
from .moments import MAX_ORDER

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


# Per-integer passes (the 2-part and the cofactor) run in chunks of _CHUNK
# integers, so that a chunk of sig, part and the scratch stays in cache.
_CHUNK = 2**14

# An odd prime gets its own strided passes while the block holds at least
# _STRIDED_MULTIPLES of its multiples (p <= n / 512, so p <= 512 at 2^18).
# The rarer primes are scattered in batches of at most n / 16 multiples, and
# at least _MIN_BATCH, so that primes with no multiple in a short block still
# come in large batches. Both constants were tuned on 2^18 blocks (x = 1e7);
# their speed at larger blocks, up to MAX_BLOCK, is not measured.
_STRIDED_MULTIPLES = 2**9
_MIN_BATCH = 2**12


class _Work:
    """Buffers for blocks of up to n integers, reused from block to block, in
    words of `dtype` (see _holds)."""

    def __init__(self, n: int, dtype=np.int64):
        self.sig = np.empty(n, dtype=dtype)
        self.part = np.empty(n, dtype=dtype)
        self.iota = np.arange(min(n, _CHUNK), dtype=dtype)
        # a chunk of m or of the cofactor, and the term of the prime 3
        self.scratch = np.empty(max(self.iota.size, (n - 1) // 3 + 1), dtype=dtype)


def _holds(dtype, hi: int) -> bool:
    """Whether words of `dtype` hold every value a block below hi builds: m,
    a product of prime powers dividing m, and sigma of a divisor d of m, which
    is below 7d <= 7m (see _MAX_SIEVE_VALUE)."""
    return 7 * hi <= np.iinfo(dtype).max


def _work_for(x: int, n: int) -> _Work:
    """Buffers of n integers for the blocks of 2n and 2n+1, n <= x, which end
    at 2x + 2: uint32 when it holds them, int64 otherwise."""
    return _Work(n, np.uint32 if _holds(np.uint32, 2 * x + 2) else np.int64)


def sigma_block(
    lo: int,
    hi: int,
    primes: Optional[np.ndarray | Sequence[int]] = None,
    *,
    work: Optional[_Work] = None,
) -> np.ndarray:
    """sigma(m) for every m in [lo, hi) as an int64 array.

    `primes`, in increasing order, must hold every odd prime p <=
    sqrt(hi - 1) that divides an integer of the block (by default all of
    them); 2 is always sieved, and a 2 in `primes` is skipped. With `work`,
    the result is a view of its buffer, in its dtype, which the next block
    sieved with it overwrites; its words must hold 7 * hi (see _holds).
    """
    if not 1 <= lo < hi:
        raise InvalidParameterError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    if hi > _MAX_SIEVE_VALUE:
        raise InvalidParameterError(f"sieve limit {hi} exceeds the int64-safe range")
    if work is not None and not _holds(work.sig.dtype, hi):
        raise InvalidParameterError(f"sieve limit {hi} overflows the {work.sig.dtype} buffers")
    n = hi - lo
    root = isqrt(hi - 1)
    p = primes_upto(root) if primes is None else np.asarray(primes, dtype=np.int64)
    cut = min(n // _STRIDED_MULTIPLES, root)
    first, mid, end = np.searchsorted(p, (3, cut + 1, root + 1))
    if work is None:
        work = _Work(n)
    sig = work.sig[:n]
    part = work.part[:n]  # the part of m made of the primes sieved so far
    for j, m in _chunks(lo, n, work):
        low, s = part[j : j + m.size], sig[j : j + m.size]
        # the 2-part of m is its lowest set bit 2^v, and sigma(2^v) = 2^(v+1) - 1
        np.negative(m, out=low)
        low &= m
        np.add(low, low, out=s)
        s -= 1
    _strided(lo, hi, p[first:mid].tolist(), sig, part, work.scratch)
    _scattered(lo, hi, p[max(first, mid) : end], sig, part)
    for j, m in _chunks(lo, n, work):
        # the cofactor left is 1 or one prime above sqrt(hi - 1)
        np.floor_divide(m, part[j : j + m.size], out=m)
        m += m > 1
        sig[j : j + m.size] *= m
    return sig


def _chunks(lo: int, n: int, work: _Work) -> Iterator[tuple[int, np.ndarray]]:
    """(j, m) for consecutive chunks of _CHUNK integers of the block: m holds
    lo + j, lo + j + 1, ... in the scratch buffer, which the next chunk
    overwrites."""
    j = 0
    while j < n:
        m = work.scratch[: min(n - j, _CHUNK)]
        np.add(work.iota[: m.size], lo + j, out=m)
        yield j, m
        j += m.size


def _strided(
    lo: int,
    hi: int,
    primes: Sequence[int],
    sig: np.ndarray,
    part: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """One strided pass per prime power: the multiples of p^k in the block
    are a slice with step p^k, updated in place. Each p is at most
    n // _STRIDED_MULTIPLES (see sigma_block), so it has a multiple in the
    block."""
    n = sig.size
    for p in primes:
        start = (-lo) % p
        # term[i] becomes sigma(p^e) for the i-th multiple of p, p^e || m
        term = scratch[: (n - 1 - start) // p + 1]
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


def _scattered(lo: int, hi: int, primes: np.ndarray, sig: np.ndarray, part: np.ndarray) -> None:
    """The primes with few multiples in the block, in batches: one index
    array for the multiples of all the batch's primes, and one unbuffered
    scatter each into part and sig (an m with two of these primes appears
    twice)."""
    n = sig.size
    batch = max(n // 16, _MIN_BATCH)
    a = 0
    while a < primes.size:
        # no prime after primes[a] has more than (n - 1) // primes[a] + 1
        # multiples in the block, so the batch holds at most `batch` of them
        b = a + max(1, batch // ((n - 1) // int(primes[a]) + 1))
        p = primes[a:b]
        a = b
        s = (-lo) % p
        c = (n - 1 - s) // p + 1  # multiples of p in the block, 0 if none
        first = np.cumsum(c) - c  # where the run of p's multiples starts
        power = np.repeat(p, c)  # becomes p^e, p^e || m
        idx = np.repeat(s - first * p, c) + np.arange(power.size) * power
        term = power + 1  # becomes sigma(p^e)
        # higher powers: the multiples of p^k, k >= 2, are every p^(k-1)-th
        # entry of p's run, starting from the first multiple of p^k
        q, qs, qfirst, qk = p, s, first, p * p
        while q.size:
            sk = (-lo) % qk
            ck = (n - 1 - sk) // qk + 1
            stride = qk // q
            at = qfirst + (sk - qs) // q
            run = np.cumsum(ck) - ck
            pos = np.repeat(at - run * stride, ck)
            pos += np.arange(pos.size) * np.repeat(stride, ck)
            rep = np.repeat(q, ck)
            term[pos] = term[pos] * rep + 1
            power[pos] *= rep
            more = (ck > 0) & (qk <= (hi - 1) // q)
            q, qs, qfirst, qk = q[more], qs[more], qfirst[more], qk[more] * q[more]
        # a dtype that matches the buffers keeps np.multiply.at on its fast
        # path: mixed with uint32 buffers, the int64 operands cost ~3x
        np.multiply.at(part, idx, power.astype(part.dtype, copy=False))
        np.multiply.at(sig, idx, term.astype(sig.dtype, copy=False))


def smooth_part_block(
    lo: int, hi: int, y: int, primes: Optional[Sequence[int]] = None
) -> np.ndarray:
    """Largest y-smooth divisor of every m in [lo, hi) as an int64 array.

    By default the primes are sieved up to min(y, hi - 1): no m in the block
    has a prime factor above that, so any larger y gives the same result.
    """
    if not 1 <= lo < hi:
        raise InvalidParameterError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    if primes is None:
        primes = primes_upto(min(y, hi - 1)).tolist()
    n = hi - lo
    if y >= 2 and 2 in primes:
        part = np.arange(lo, hi, dtype=np.int64)
        part &= -part  # the 2-part of m is its lowest set bit
    else:
        part = np.ones(n, dtype=np.int64)
    for p in primes:
        if p == 2:
            continue
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


def _sieving_primes(x: int) -> np.ndarray:
    """The primes that blocks of 2n and 2n+1, n <= x, are sieved by."""
    return primes_upto(isqrt(2 * x + 1))


def _block_for(primes: np.ndarray) -> int:
    return min(MAX_BLOCK, max(_MIN_BLOCK, _BLOCK_PER_PRIME * len(primes)))


def _blocks(x: int) -> Iterator[tuple[int, int, Callable[[], np.ndarray]]]:
    """The blocks [lo, hi) that hold 2n and 2n+1 for n = 1..x, in order, each
    as (lo, hi, sieve): sieve() returns sigma over the block from
    `sigma_block`, in buffers shared by all the blocks. x is checked, and the
    buffers are built, before the first block is asked for."""
    if x < 1:
        raise InvalidParameterError(f"x must be >= 1, got {x}")
    if 2 * x + 2 > _MAX_SIEVE_VALUE:
        raise InvalidParameterError(f"sieve limit {2 * x + 2} exceeds the int64-safe range")
    primes = _sieving_primes(x)
    half = _block_for(primes) // 2
    work = _work_for(x, 2 * min(half, x))

    def block(n0):
        lo, hi = 2 * n0, 2 * min(x + 1, n0 + half)
        return lo, hi, lambda: sigma_block(lo, hi, primes, work=work)

    return map(block, range(1, x + 1, half))


def count_sigma_ge(x: int) -> tuple[int, float]:
    """Exact count and proportion of n <= x with sigma(2n+1) >= sigma(2n)."""
    count = 0
    for _, _, sieve in _blocks(x):
        sig = sieve()
        count += int(np.count_nonzero(sig[1::2] >= sig[0::2]))
    return count, count / x


def moment_sum(a: int, b: int, y: int, r: int, x: int) -> tuple[float, float]:
    """Sums of h^r(2n+1) and h^r(2n) over n <= x lying in the (a, b) cell.

    Exact cell membership (largest y-smooth divisor equality) with float64
    power sums, which may overflow to inf; r = 0 degenerates to counting the
    cell. Oracle for the moment-mean asymptotics, so x is expected to stay
    at desk scale. The cell is checked as `cell_density` checks it
    (`engine.check_cell`). Blocks are sized as in `count_sigma_ge`.
    """
    primes = check_cell(a, b, y)
    if r < 0:
        raise InvalidParameterError(f"r must be >= 0, got {r}")
    if r > MAX_ORDER:
        raise UnsupportedParameterError(f"r must be at most {MAX_ORDER}, got {r}")
    total_odd = 0.0
    total_even = 0.0
    blocks = _blocks(x)
    y_primes = [p for p in primes if p <= 2 * x + 1]  # the blocks end at 2x + 2
    for lo, hi, sieve in blocks:
        part = smooth_part_block(lo, hi, y, y_primes)
        mask = (part[1::2] == a) & (part[0::2] == b)
        if mask.any():
            sig = sieve()
            m = np.arange(lo, hi, dtype=np.int64)
            h_odd = sig[1::2][mask] / m[1::2][mask]
            h_even = sig[0::2][mask] / m[0::2][mask]
            with np.errstate(over="ignore"):
                total_odd += float(np.sum(h_odd**r))
                total_even += float(np.sum(h_even**r))
    return total_odd, total_even
