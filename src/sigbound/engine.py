"""Cell enumeration and the certified density bracket.

The integers split into cells indexed by (a, b): a is the largest y-smooth
divisor of 2n+1 and b the largest y-smooth divisor of 2n, so a is odd, b is
even and coprime to a, and each cell is a finite union of arithmetic
progressions with an exactly computable density. Per cell, moment inequalities
turn the abundancy ratio of a and b into certified bounds on how much of the
cell satisfies the target inequality; summing over all cells with ab <= z and
charging the unenumerated tail to the upper side yields a bracket for the
density of the whole set.

run_bounds evaluates the cells in numpy. It builds a table of even b values
and the odd a side once per run, each row carrying its prime mask, directed
density factor and directed abundancy. The b table is sorted by class, the
set of the first three of its odd primes that divide b, and then by value,
so that the candidate pairs (a, b) with b <= z // a, taken only from the b
classes disjoint from a's own, are ranges of the table; they are cut into
chunks. Per chunk it drops the pairs whose masks still intersect, computes
each cell's directed terms, reads the grid slot of its abundancy ratio off
the ratio's bits and the bound curve ru there (and, for the cells whose
inverse ratio can reach the part of the curve below 1, forms the lower
bound 1 - ru stepped down at that ratio), and sums the three totals
(lower, upper cells, covered mass DOWN) exactly with exact_sum, each an
integer count of 2**-1074. Integer addition is exact in any order, so the
totals do not depend on the chunk cut or on the thread count. The pool's
threads share the tables, which are marked read-only.

Directed rounding discipline: lower quantities round DOWN, upper ones UP.
Each cell term takes a one-ULP step after every operation; the totals over
the cells are exact, and each reported number is rounded once, to its side,
from them (see run_bounds). So the reported bracket is a certificate no
matter how many cells were summed, and so is each progress report.
"""
from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, NamedTuple, Optional

import numpy as np

from .arith import primes_upto
from .dirround import DOWN, UP, DirScalar, exact_sum, ratio_dn, ratio_up, ulp_dn, ulp_up, up_div
from .errors import InvalidCellError, InvalidParameterError
from .moments import MomentTable, bound_curves, build_moment_table, check_y, fold_curve

# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """The certified bracket of one run, from its three exact totals:
    lower_total <= density <= upper_total, and covered_lo, the enumerated
    cells' mass rounded DOWN, whose complement upper_total charges as the
    unenumerated tail. threads is the count used, the request capped at the
    usable cores. A progress report is one too, over the pair_count cells
    summed so far, with the time so far."""

    y: int
    z: int
    r_max: int
    threads: int
    lower_total: DirScalar
    upper_total: DirScalar
    covered_lo: DirScalar
    pair_count: int
    elapsed_seconds: float

    @property
    def covered_mass(self) -> float:
        """Certified lower bound on the total density of enumerated cells."""
        return self.covered_lo.value


# ---------------------------------------------------------------------------
# exact cell density
# ---------------------------------------------------------------------------

def check_cell(a: int, b: int, y: int) -> list[int]:
    """Check that (a, b) is a cell for the smoothness bound y: y is
    supported (moments.check_y), a and b are positive and y-smooth, a odd, b
    even, and the two coprime. Returns the primes <= y.

    Only the primes <= y are divided out of a and b, so a coordinate with a
    large prime factor is rejected without factoring it.
    """
    check_y(y)
    primes = primes_upto(y).tolist()
    for name, n in (("a", a), ("b", b)):
        if n < 1:
            raise InvalidParameterError(f"cannot factor {n}")
        m = n
        for p in primes:
            while m % p == 0:
                m //= p
        if m != 1:
            raise InvalidCellError(f"{name}={n} is not {y}-smooth")
    if a % 2 == 0:
        raise InvalidCellError(f"a must be odd, got {a}")
    if b % 2 == 1:
        raise InvalidCellError(f"b must be even, got {b}")
    if gcd(a, b) != 1:
        raise InvalidCellError(f"a and b must be coprime, got {a}, {b}")
    return primes


def cell_density(a: int, b: int, y: int) -> Fraction:
    """Exact density of the cell (a, b) for the smoothness bound y:
    (2/ab) prod_{p|ab}(1-1/p) prod_{p<=y, p∤ab}(1-2/p). The cell is checked
    first (see check_cell)."""
    primes = check_cell(a, b, y)
    ab = a * b
    num, den = 2, ab
    for p in primes:
        num *= p - 1 if ab % p == 0 else p - 2
        den *= p
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# ratio curves on a bit grid, cells in numpy chunks
# ---------------------------------------------------------------------------

# Grid point i, for i = 0 .. _GRID_SIZE - 1, is the double whose int64 bits
# are those of 1/2 plus i << _GRID_SHIFT: 2^e (1 + j 2^-16) on each binade
# [2^e, 2^(e+1)) for e = -1 .. 1, ending at 4.0, so each point is within a
# factor 1 + 2^-16 of the next. Point _ONE_SLOT is 1.0. A ratio above 4.0
# reads the curve at 4.0, which bounds it too, as it is monotone; ratios
# stay below 7 (q <= h(b) < 7 for every b below 1.97e24), and 0.6% of the
# cells at y = 31, z = 1e8 pass 4. A ratio below 1/2 reads 1: q < 1/2 needs
# h(a) > 3, and at 1/2 the folded curve is within 7.7e-10 of 1 at y = 3 and
# is 1 from y = 5 (a grid from 1/4 moved no bit at y = 2 or 5 to 353, and
# the lower total at y = 3 by 1.3e-9, for 0.5 MB more).
_GRID_SIZE = (3 << 16) + 1
_GRID_SHIFT = 36
_ONE_SLOT = 1 << 16
_SLOT_BASE = 0x3FE0_0000_0000_0000 - (1 << _GRID_SHIFT)  # 1/2, one point down

# The level of the moment table run_bounds builds when it is given none, for
# y <= _FOLD_MAX_Y: the primes in (y, _FOLD_LEVEL] are folded into the bound
# curve (see _engine_consts). Folding them tightened both ends of every
# bracket measured at y <= 881 (z = 1e5, 1e6, 1e7) and widened those at
# y = 907 and 997, where the few primes folded gain less than the log grid
# of the fold loses.
_FOLD_LEVEL = 1009
_FOLD_MAX_Y = 809

# Row cap of the smooth-number tables (the b table, the odd part of the a
# side) and of one block of a-side rows: the memory of a run is bounded for
# any z.
_ROW_BUDGET = 1 << 18

# Candidate (a, b) rows per chunk. The chunk sums are exact, so the cut
# moves no bit of the totals.
_CHUNK = 1 << 14

# The first _CLASS_PRIMES odd primes of the b table split it into classes
# (see _classes), so that each a-side row is paired only with the b classes
# its own class is disjoint from; the mask filter drops the pairs that share
# one of the other primes.
_CLASS_PRIMES = 3


class _Consts(NamedTuple):
    """The z-independent engine state: the odd primes <= y, the directed
    density base prod (p-2)/p over them, the bound curve and where its
    lower side starts.

    ru_at is the bound curve on the grid behind a sentinel 1: index
    _slot(q) reads it at the largest grid point <= q, or the trivial 1
    when q lies below the grid. A cell reads its upper bound at q <=
    h(b)/h(a) and its lower bound, ulp_dn(1 - ru_at), formed at lookup, at
    w <= h(a)/h(b) (see _chunk_sums and the lemmas of moments). Only the
    cells with q <= q_lower can have w at or above the first grid point
    where the curve is below 1; the others read +0.0 there.
    """

    odd: tuple[int, ...]
    base_dn: float
    base_up: float
    ru_at: np.ndarray
    q_lower: float


def _grid(start: int = 0) -> np.ndarray:
    """The grid points from point `start` on, increasing, to 4.0."""
    i = np.arange(start + 1, _GRID_SIZE + 1, dtype=np.int64)
    return ((i << _GRID_SHIFT) + _SLOT_BASE).view(np.float64)


def _slot(x: np.ndarray) -> np.ndarray:
    """searchsorted(_grid(), x, 'right') for x >= +0.0, from the bits of x:
    non-negative doubles order like their int64 bits (see dirround.ulp_up),
    so the grid points <= x are those whose offset from the bits of 1/2 is
    at most that of x."""
    s = x.view(np.int64) - _SLOT_BASE
    s >>= _GRID_SHIFT
    return np.clip(s, 0, _GRID_SIZE, out=s)


def _engine_consts(table: MomentTable, y: int) -> _Consts:
    """The engine state for the cells at level y <= table.y.

    The curve folds the primes in (y, table.y] (moments.fold_curve): each
    grid point reads the folded curve at its last point whose upper bound
    hi is at most the grid point, or 1 below the first. With none to fold,
    it is the moment curve on the grid points above 1, and 1 at and below
    1. Either is capped at 1/2 above 1 by the symmetry lemma (see moments),
    which gives no upper bound at and below 1.
    """
    odd = tuple(primes_upto(y).tolist()[1:])
    num, den = 1, 1
    for p in odd:
        num *= p - 2
        den *= p
    ru_at = np.ones(_GRID_SIZE + 1)  # behind the sentinel, the curve ru
    ru = ru_at[1:]
    above = ru[_ONE_SLOT + 1:]
    if table.y > y:
        hi, s = fold_curve(table, y)
        first = _slot(ulp_dn(hi))  # of the grid points below hi[k]
        ru[first[0]:] = np.repeat(s, np.diff(first, append=ru.size))
    else:
        above[...] = bound_curves(table, _grid(_ONE_SLOT + 1))
    np.minimum(above, 0.5, out=above)
    k = int(np.argmax(ru < 1.0))  # ru is non-increasing
    return _Consts(
        odd=odd,
        base_dn=ratio_dn(num, den),
        base_up=ratio_up(num, den),
        ru_at=_read_only(ru_at),
        # q > q_lower >= 1/(point k) gives w <= 1/q < point k
        q_lower=up_div(1.0, float(_grid(k)[0])) if ru[k] < 1.0 else 0.0,
    )


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, marked read-only. The pool's threads share the engine's tables, so
    an in-place step such as ulp_up on one raises instead of racing."""
    a.setflags(write=False)
    return a


class _Rows(NamedTuple):
    """Smooth numbers with what a cell needs of each, one array per column.

    A b-side row is an even b. An a-side row stands for an odd a and a t
    (see _a_blocks) and its value is a*t. mask holds one uint64 word per 64
    odd primes of the b table's prime set, bit j for the j-th odd prime, and
    at least one word, all zero when the set is empty.
    d_* is the directed density factor F(value)/value, F the product of
    (p-1)/(p-2) over the odd primes dividing value, with the density base
    folded into the a side. h_* is the directed abundancy h(b) = sigma(b)/b,
    or h(a)/h(t) on the a side.
    """

    value: np.ndarray
    mask: np.ndarray
    d_dn: np.ndarray
    d_up: np.ndarray
    h_dn: np.ndarray
    h_up: np.ndarray

    def read_only(self) -> "_Rows":
        return _Rows(*map(_read_only, self))


def _smooth_rows(odd, limit: int, even: bool, f0_dn: float, f0_up: float,
                 budget: Optional[int] = None, classes: int = 0):
    """Every even (or odd) number v <= limit built from 2 (or not) and a
    prefix of the odd primes `odd`, sorted by class and then by value, with
    the density factor f0 * F(v)/v and the abundancy h(v). A row's class is
    the set of the first `classes` primes used that divide v (see
    _classes); with classes = 0 the rows are sorted by value alone.

    The odd primes join in increasing order while the table stays within
    `budget` rows. Returns the rows and the number of odd primes used.

    The build keeps its memory near the size of the result. The first phase
    generates the values alone: each prime p appends, for k = 1, 2, ..., the
    batch v * p^k of the values v so far with v * p^k <= limit, recorded as
    (prime index, p^k, parent indices). The second sorts the values (by
    value, then stably by class) and writes every other column straight into
    its sorted place, batch by batch
    and so parents before children. The heads are the powers of 2 (e >= 1
    on the even side, e = 0 on the odd), with the factor f0 / 2^e, exact,
    and the abundancy (2^(e+1)-1)/2^e; a child v * p^k multiplies its
    parent's factor by (p-1)/((p-2) p^k) and its abundancy by h(p^k), each
    an exact ratio rounded to its side, and takes one directed step. No
    integer is rounded to a float on the way.
    """
    heads = [2**e for e in range(1, limit.bit_length())] if even else [1]
    value = np.array(heads, dtype=np.int64)
    n0 = value.size
    batches = []
    used = 0
    for j, p in enumerate(odd):
        parts, new = [value], []
        size = value.size
        pk = p
        while True:
            sel = np.flatnonzero(value <= limit // pk)
            if not sel.size:
                break
            size += sel.size
            if budget is not None and size > budget:
                break
            parts.append(value[sel] * pk)
            new.append((j, pk, sel))
            pk *= p
        if budget is not None and size > budget:
            break
        value = np.concatenate(parts)
        batches += new
        used += 1
    parts = new = None  # free the last prime's pieces before the columns

    # each value is generated once, from its factorization, so the values
    # are distinct and any sort gives the same order: no stable sort needed
    order = np.argsort(value)
    if classes:  # bit j of a class is bit j of the mask
        cls = np.zeros(value.size, np.uint8)
        for j, p in enumerate(odd[:min(classes, used)]):
            cls |= (value % p == 0).view(np.uint8) << np.uint8(j)
        order = order[np.argsort(cls[order], kind="stable")]
    value = value[order]
    pos = np.empty_like(order)  # generation index -> sorted position
    pos[order] = np.arange(order.size)
    del order
    n = value.size
    mask = np.zeros((max(1, -(-used // 64)), n), np.uint64)
    d_dn, d_up, h_dn, h_up = (np.empty(n) for _ in range(4))
    head = pos[:n0]
    d_dn[head] = [f0_dn / v for v in heads]  # exact: v is a power of 2
    d_up[head] = [f0_up / v for v in heads]
    h_dn[head] = [ratio_dn(2 * v - 1, v) for v in heads]
    h_up[head] = [ratio_up(2 * v - 1, v) for v in heads]
    start = n0
    batches.reverse()
    while batches:  # popped, so each batch's indices go once it is written
        j, pk, sel = batches.pop()
        p = odd[j]
        par = pos[sel]
        dst = pos[start:start + par.size]
        start += par.size
        m = mask[:, par]
        m[j // 64] |= np.uint64(1 << (j % 64))
        mask[:, dst] = m
        sig_dn, sig_up = ratio_dn(pk * p - 1, pk * (p - 1)), ratio_up(pk * p - 1, pk * (p - 1))
        d_dn[dst] = ulp_dn(d_dn[par] * ratio_dn(p - 1, (p - 2) * pk))
        d_up[dst] = ulp_up(d_up[par] * ratio_up(p - 1, (p - 2) * pk))
        h_dn[dst] = ulp_dn(h_dn[par] * sig_dn)
        h_up[dst] = ulp_up(h_up[par] * sig_up)
    return _Rows(value, mask, d_dn, d_up, h_dn, h_up), used


def _a_blocks(small: _Rows, rest: tuple, z: int):
    """The a side of every cell, in blocks of about _ROW_BUDGET rows.

    With S the primes of the b table, a cell (a, b) splits as a = c*m and
    b = s*t: c and s are S-smooth, m and t are coprime and built from the
    remaining odd primes `rest`. A depth-first walk over `rest` visits every
    (m, t) with m*t <= z//2; each visit emits a row per c in `small` (the odd
    S-smooth numbers, sorted, base folded in) with c*m*t <= z//2, with value
    c*m*t, c's mask, density factor d(c) F(m)F(t)/(mt) and
    abundancy h(c) h(m)/h(t). When S holds every prime, the one visit is
    (1, 1) and the block is `small` itself.
    """
    lim = z // 2
    if not rest:
        yield small
        return

    def walk(i, m, t, sm, st, fnum, fden):
        yield m, t, sm, st, fnum, fden
        for j in range(i, len(rest)):
            p = rest[j]
            if m * t * p > lim:
                break
            pk, s = p, 1 + p
            while m * t * pk <= lim:
                yield from walk(j + 1, m * pk, t, sm * s, st, fnum * (p - 1), fden * (p - 2))
                yield from walk(j + 1, m, t * pk, sm, st * s, fnum * (p - 1), fden * (p - 2))
                pk *= p
                s = s * p + 1

    pending, size = [], 0
    for visit in walk(0, 1, 1, 1, 1, 1, 1):
        m, t = visit[:2]
        k = int(np.searchsorted(small.value, lim // (m * t), "right"))
        pending.append((*visit, k))
        size += k
        if size >= _ROW_BUDGET:
            yield _a_block(small, pending, size)
            pending, size = [], 0
    if pending:
        yield _a_block(small, pending, size)


def _a_block(small: _Rows, visits: list, size: int) -> _Rows:
    """The rows of the (m, t, sm, st, fnum, fden, k) `visits`, written
    straight into one block of `size` rows (see _a_blocks): the first k rows
    of `small` each, scaled by m*t, so the build holds little beyond the
    block."""
    block = _Rows(
        np.empty(size, np.int64),
        np.empty((small.mask.shape[0], size), np.uint64),
        *(np.empty(size) for _ in range(4)),
    )
    o = 0
    for m, t, sm, st, fnum, fden, k in visits:
        rows = _Rows(*(col[..., o:o + k] for col in block))
        o += k
        mt = m * t
        if mt == 1:
            for col, src in zip(rows, small):
                col[...] = src[..., :k]
            continue
        np.multiply(small.value[:k], mt, out=rows.value)
        rows.mask[...] = small.mask[:, :k]
        ulp_dn(np.multiply(small.d_dn[:k], ratio_dn(fnum, fden * mt), out=rows.d_dn))
        ulp_up(np.multiply(small.d_up[:k], ratio_up(fnum, fden * mt), out=rows.d_up))
        ulp_dn(np.multiply(small.h_dn[:k], ratio_dn(sm * t, m * st), out=rows.h_dn))
        ulp_up(np.multiply(small.h_up[:k], ratio_up(sm * t, m * st), out=rows.h_up))
    return block


class _Chunk(NamedTuple):
    """Candidate rows: for each range k, a-side row a[k] of `rows` against
    the b-table rows j_lo[k] <= j < j_hi[k], b values of one class disjoint
    from the row's own and at most z // the row's value."""

    rows: _Rows
    a: np.ndarray
    j_lo: np.ndarray
    j_hi: np.ndarray


def _cell_tables(consts: _Consts, z: int):
    """The b table and the chunks of candidate rows, in their fixed order.

    The b table holds the even numbers <= z built from 2 and the longest
    prefix of the odd primes that keeps it within _ROW_BUDGET rows, sorted by
    class and then by value (see _classes); the odd primes outside it go to
    the a side (see _a_blocks). The b table and the a-side blocks come back
    read-only.
    """
    b, used = _smooth_rows(consts.odd, z, True, 1.0, 1.0, _ROW_BUDGET, _CLASS_PRIMES)
    small, _ = _smooth_rows(consts.odd[:used], z // 2, False, consts.base_dn, consts.base_up)
    blocks = (rows.read_only() for rows in _a_blocks(small, consts.odd[used:], z))
    b = b.read_only()
    return b, _chunks(blocks, b, (1 << min(used, _CLASS_PRIMES)) - 1, z)


def _classes(rows: _Rows, cmask: int) -> np.ndarray:
    """Each row's class, as uint8: its mask bits under cmask, i.e. the set
    of the b table's class primes (its first odd primes) dividing its value."""
    return (rows.mask[0] & np.uint64(cmask)).astype(np.uint8)


def _ranges(rows: _Rows, b: _Rows, bounds: np.ndarray, cmask: int, z: int):
    """The candidate ranges (a, j_lo, count) of the a-side block `rows`:
    per a-side row and per b class disjoint from the row's class, the b rows
    of that class with value <= z // the row's value. `bounds[c]` is where
    class c starts in the b table. Yielded in batches of _CHUNK >>
    _CLASS_PRIMES rows, at most _CHUNK ranges each, so that the ranges held
    at once stay near the size of a chunk whatever the block's size; a range
    of length 0 is dropped."""
    a_cls = _classes(rows, cmask)
    step = max(1, _CHUNK >> _CLASS_PRIMES)
    for g in range(0, rows.value.size, step):
        lim = z // rows.value[g:g + step]
        cls = a_cls[g:g + step]
        parts = []
        for c in range(cmask + 1):
            sel = np.flatnonzero(cls & c == 0)
            cnt = np.searchsorted(b.value[bounds[c]:bounds[c + 1]], lim[sel], "right")
            nz = np.flatnonzero(cnt)
            parts.append((sel[nz] + g, np.full(nz.size, bounds[c]), cnt[nz]))
        yield tuple(np.concatenate(col) for col in zip(*parts))


def _chunks(blocks, b: _Rows, cmask: int, z: int):
    """Cut each batch of candidate ranges (see _ranges) into chunks of
    _CHUNK candidate rows; the last chunk of a batch takes the rows left
    over. A range may be split between chunks."""
    bounds = np.searchsorted(_classes(b, cmask), np.arange(cmask + 2))
    for rows in blocks:
        for a, lo, cnt in _ranges(rows, b, bounds, cmask, z):
            ends = np.cumsum(cnt)
            s = 0
            while cnt.size and s < ends[-1]:
                r0 = int(np.searchsorted(ends, s, "right"))
                r1 = int(np.searchsorted(ends, s + _CHUNK - 1, "right")) + 1
                starts = ends[r0:r1] - cnt[r0:r1]
                yield _Chunk(
                    rows,
                    a[r0:r1],
                    lo[r0:r1] + np.maximum(s - starts, 0),
                    lo[r0:r1] + np.minimum(s + _CHUNK - starts, cnt[r0:r1]),
                )
                s += _CHUNK


def _chunk_sums(consts: _Consts, b: _Rows, ch: _Chunk):
    """Exact sums of the directed cell terms of one chunk.

    Returns (lower, upper_cells, covered_dn, pairs), the three sums as
    exact_sum gives them, integer counts of 2**-1074. Every cell term is
    directed (a one-ULP step after each operation); the sums of them are
    exact.

    Every cell reads ru at q, a DOWN bound on h(b)/h(a). Its lower bound
    rl = ulp_dn(1 - ru) is read at w, a DOWN bound on h(a)/h(b) <= 1/q, and
    is +0.0 unless w reaches the first grid point where ru < 1, so w and rl
    are formed for the cells with q <= consts.q_lower alone. Each sum is
    taken as soon as its terms are formed, and the upper terms overwrite
    the densities: the chunk's arrays set the run's peak memory.
    """
    rows = ch.rows
    ai, bi = _coprime_pairs(b, ch)
    dens_dn = ulp_dn(rows.d_dn[ai] * b.d_dn[bi])
    dens_up = ulp_up(rows.d_up[ai] * b.d_up[bi])
    covered = exact_sum(dens_dn)
    q = ulp_dn(b.h_dn[bi] / rows.h_up[ai])  # <= h(b)/h(a)
    ru = consts.ru_at[_slot(q)]
    upper = exact_sum(ulp_up(np.multiply(dens_up, ru, out=dens_up), ru < 1.0))  # ru = 1 is exact
    low = np.flatnonzero(q <= consts.q_lower)
    ai = ai[low]
    bi = bi[low]
    w = ulp_dn(rows.h_dn[ai] / b.h_up[bi])  # <= h(a)/h(b)
    rl = ulp_dn(1.0 - consts.ru_at[_slot(w)])  # ru = 1 gives +0.0
    lower = exact_sum(ulp_dn(np.multiply(dens_dn[low], rl, out=rl)))
    return lower, upper, covered, int(dens_dn.size)


def _coprime_pairs(b: _Rows, ch: _Chunk):
    """The a-side and b-table row indices of the chunk's candidate pairs
    whose masks do not intersect, the pairs with coprime values."""
    lens = ch.j_hi - ch.j_lo
    ai = np.repeat(ch.a, lens)
    bi = np.arange(ai.size) - np.repeat(np.cumsum(lens) - lens - ch.j_lo, lens)
    clash = ch.rows.mask[0][ai] & b.mask[0][bi]  # one mask word at a time
    for w in range(1, b.mask.shape[0]):
        clash |= ch.rows.mask[w][ai] & b.mask[w][bi]
    keep = np.flatnonzero(clash == 0)
    return ai[keep], bi[keep]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _pooled(consts: _Consts, b: _Rows, chunks, threads: int):
    """Yield each chunk's sums in chunk order, computed on a thread pool.

    numpy releases the GIL in its array loops, and the threads share consts,
    the b table and the a-side blocks, all read-only. At most four chunks per
    worker are in flight, so memory stays bounded.
    """
    # imported here: runs without a pool need not pay for the import
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as ex:
        window = deque()
        for ch in chunks:
            window.append(ex.submit(_chunk_sums, consts, b, ch))
            if len(window) >= 4 * threads:
                yield window.popleft().result()
        for fut in window:
            yield fut.result()


_ONE = 1 << 1074  # 1.0 in the units of exact_sum


def run_bounds(
    y: int,
    z: int,
    r_max: int,
    threads: int = 1,
    progress: Optional[Callable[[BoundReport, bool], None]] = None,
    flush_every: int = 0,
    table: Optional[MomentTable] = None,
) -> BoundReport:
    """Certified bracket for the density of n with sigma(2n+1) >= sigma(2n).

    Enumerates every cell with ab <= z and sums the DOWN-directed lower and
    UP-directed upper cell terms plus the covered mass exactly, as integers,
    then charges the unenumerated tail (1 - covered) to the upper side. Each
    reported number is rounded once, to its side, from the exact totals, so
    neither the chunk cut nor the thread count moves a bit. One thread sums
    the chunks in the calling thread; more share a pool (see _pooled).
    `threads` is capped at the usable cores, and the report carries the
    count used. `progress(report, flush)` gets the BoundReport of the cells
    summed so far, itself a certified bracket, after each chunk that crosses
    a multiple of `flush_every` cells (flush True), and otherwise at most
    once a second (flush False). With no `table`, the run builds one at
    level _FOLD_LEVEL for y <= _FOLD_MAX_Y, and at y otherwise; a supplied
    table of level table.y >= y folds the primes in (y, table.y] into the
    bound curve (see _engine_consts).
    """
    if z < 2:
        raise InvalidParameterError(f"z must be >= 2, got {z}")
    if z >= 2**63:
        raise InvalidParameterError(f"z must be below 2**63, got {z}")
    if r_max < 1:
        raise InvalidParameterError(f"r_max must be >= 1, got {r_max}")
    if threads < 1:
        raise InvalidParameterError(f"threads must be >= 1, got {threads}")
    check_y(y)
    t_start = time.perf_counter()
    if table is None:
        table = build_moment_table(_FOLD_LEVEL if y <= _FOLD_MAX_Y else y, r_max)
    elif table.y < y or table.r_max != r_max:
        raise InvalidParameterError("supplied moment table does not match y/r_max")
    consts = _engine_consts(table, y)
    b, chunks = _cell_tables(consts, z)

    # capped, so that a huge request opens no huge window of futures
    threads = min(threads, _usable_cpus())
    if threads == 1:
        done = (_chunk_sums(consts, b, ch) for ch in chunks)
    else:
        done = _pooled(consts, b, chunks, threads)

    def report(lo: int, up_cells: int, cov_dn: int, pairs: int) -> BoundReport:
        # the exact totals, in units of 2**-1074, each rounded once to its
        # side; upper adds the unenumerated tail 1 - covered, with covered
        # taken DOWN, to the cells' upper sum and is capped at 1
        lower = ratio_dn(lo, _ONE)
        upper = min(ratio_up(up_cells + _ONE - cov_dn, _ONE), 1.0)
        if lower > upper:
            raise AssertionError("certified bracket inverted; this is a bug")
        return BoundReport(
            y=y,
            z=z,
            r_max=r_max,
            threads=threads,
            lower_total=DirScalar(lower, DOWN),
            upper_total=DirScalar(upper, UP),
            covered_lo=DirScalar(ratio_dn(cov_dn, _ONE), DOWN),
            pair_count=pairs,
            elapsed_seconds=time.perf_counter() - t_start,
        )

    sums, pairs = [0, 0, 0], 0  # the exact totals (see _chunk_sums)
    next_tick = t_start + 1.0
    for *part, k in done:
        sums = [s + p for s, p in zip(sums, part)]
        before, pairs = pairs, pairs + k
        if progress is None:
            continue
        flush = bool(flush_every) and pairs // flush_every > before // flush_every
        if flush or time.perf_counter() >= next_tick:
            progress(report(*sums, pairs), flush)
            next_tick = time.perf_counter() + 1.0
    return report(*sums, pairs)
