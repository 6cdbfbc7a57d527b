"""Cell enumeration and the certified density bracket.

The integers split into cells indexed by (a, b): a is the largest y-smooth
divisor of 2n+1 and b the largest y-smooth divisor of 2n, so a is odd, b is
even and coprime to a, and each cell is a finite union of arithmetic
progressions with an exactly computable density. Per cell, moment inequalities
turn the abundancy ratio of a and b into certified bounds on how much of the
cell satisfies the target inequality. Both sides charge the cells of each
odd a <= z // 2 by group, each group at its closed-form mass and at one
read of the bound curve that bounds all its cells, enumerated or not. The
upper side groups them by (k, C), k = min(v2(b), 3) and C the set of the
first five odd primes <= y that divide b, and takes off what each
enumerated cell's own read saves against its group's (the tail lemma of
moments); the cells of the a past z // 2 are charged at 1. The lower side
groups them by (k, C, R), R whether b has an odd prime past those five,
and adds what each enumerated cell's own read gains over its group's (the
lower tail lemma); the cells of the a past z // 2 count at 0. That yields
a bracket for the density of the whole set.

run_bounds evaluates the cells in numpy. It builds a table of even b values
and a table of the odd a once per run, each row carrying its prime mask,
directed density factor and directed abundancy, and each odd a its directed
masses and the bounds its groups are read at. The a side's net charges are
formed once, from those masses and the 192 groups' ratios and weights,
tables that depend on y alone. A (y, z) whose b table would pass
_ROW_BUDGET rows is refused, with the largest y that fits at that z.
The b table is sorted by class, the set of the first three of its odd
primes that divide b, and then by value, so that the candidate pairs
(a, b) with b <= z // a, taken only from the b classes disjoint from a's
own, are ranges of the table; they are cut into chunks. Per chunk it drops
the pairs whose masks still intersect, computes each cell's directed terms,
reads the grid slot of its abundancy ratio off the ratio's bits and the
bound curve ru there, reads its group's curve value from its group's ratio
and h(a), in the same bits as the charge did (and, for the cells whose
inverse ratio can reach the part of the curve below 1, forms the lower
bound 1 - ru stepped down at that ratio and its group's lower read, in the
charge's bits too), and sums the three totals (lower, saving, covered mass)
DOWN with fixed_sum, each an integer count of 2**-FIXED_BITS = 2**-94.
Integer addition is exact in any order, so the totals do not depend on the
chunk cut or on the thread count. The pool's threads share the tables,
which are marked read-only.

Directed rounding discipline: lower quantities round DOWN, upper ones UP.
Each cell term takes a one-ULP step after every operation; each sum of
terms is floored (or, for the upper charges, ceiled) to a whole count of
2**-94 and added as an integer, to its side: the covered mass, the lower
terms, the savings and the masses the upper side takes off DOWN, the upper
charges UP. Each reported number is rounded once, to its side, from those
integer totals (see run_bounds). So the reported bracket is a certificate
no matter how many cells were summed, and so is each progress report.
"""
from __future__ import annotations

import os
import time
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, NamedTuple, Optional

import numpy as np

from .arith import primes_upto
from .dirround import (DOWN, FIXED_BITS, UP, DirScalar, fixed_sum, ratio_dn, ratio_up, ulp_dn,
                       ulp_up, up_div)
from .errors import InvalidCellError, InvalidParameterError, UnsupportedParameterError
from .moments import MomentTable, bound_curves, build_moment_table, check_y, fold_curve

# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """The certified bracket of one run, from its integer totals:
    lower_total <= density <= upper_total, and covered_lo, the enumerated
    cells' mass rounded DOWN. threads is the count used, the request capped
    at the usable cores. A progress report is one too, over the pair_count
    cells summed so far, with the time so far."""

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
# curve (see _engine_consts). On the 2^-13 log grid of the fold, folding
# tightened both ends of the bracket at every prime y <= 911 at each of
# (z, r_max) = (1e5, 500), (1e6, 200) and (1e7, 200); past that the few
# primes folded gain less than the log grid loses. The change of width,
# folded minus a table at y (* where one end moved out):
#     y      (1e5, 500)  (1e6, 200)  (1e7, 200)
#     809     -3.34e-5    -5.43e-5    -6.01e-5
#     907     -7.74e-6    -1.53e-5    -1.67e-5
#     911     -6.32e-6    -1.30e-5    -1.43e-5
#     919     -4.93e-6 *  -1.09e-5    -1.18e-5
#     947     +3.87e-7 *  -2.43e-6 *  -2.37e-6 *
#     997     +8.93e-6 *  +1.12e-5 *  +1.30e-5 *
_FOLD_LEVEL = 1009
_FOLD_MAX_Y = 911

# Row cap of the b table, and so of the odd a side, which holds no more
# rows (2a is in the b table for every a): a (y, z) past it is refused (see
# _b_table), so the memory of a run is bounded for any z.
_ROW_BUDGET = 1 << 18

# Candidate (a, b) rows per chunk. The chunk sums are integers, so the cut
# moves no bit of the totals.
_CHUNK = 1 << 14

# The first _CLASS_PRIMES odd primes of the b table split it into classes
# (see _classes), so that each a-side row is paired only with the b classes
# its own class is disjoint from; the mask filter drops the pairs that share
# one of the other primes.
_CLASS_PRIMES = 3

# The cells of an odd a are charged in groups (k, C, R) by k = min(v2(b),
# _V2_CAP), the set C of the group primes, the first _GROUP_PRIMES odd
# primes <= y, that divide b, and R, whether b has an odd prime outside
# them. The upper side reads each (k, C) at h(2^k) prod_{p in C} h(p) / h(a),
# whatever R; the lower side reads each (k, C, R) at h(a) over a bound on
# the h(b) of its cells (see _group_tables and the tail lemmas of moments).
# Group g is (k - 1) << (_GROUP_PRIMES + 1) | R << _GROUP_PRIMES | C, bit j
# of C for the j-th odd prime, as in the masks. Fixed by y alone, the groups
# move with neither the split of the primes between the b table and the a
# side nor _CLASS_PRIMES. With no group prime the groups are those of k and
# R alone. With the lower groups, deep's width at 3, 4 and 5 group primes
# is 8.13e-4, 7.60e-4 and 7.13e-4. Each prime doubles the groups and the
# upper charge's terms (deep's 284k to 447k, wide's 246k to 460k). With the
# rounds of exact extraction that summed the terms before dirround.fixed_sum,
# five made deep's run 15-19% slower in process than four; with fixed_sum,
# deep's charge takes 13 ms at five against 9 ms at four, and its run
# (0.13 s) is faster than four groups were with the exact sums (0.14 s).
# Six would pass the uint8 group codes (see _group_tables).
_V2_CAP = 3
_GROUP_PRIMES = 5


class _Consts(NamedTuple):
    """The z-independent engine state: the odd primes <= y, the bound curve,
    where its lower side starts, and the groups' ratios and weights (see
    _group_tables).

    ru_at is the bound curve on the grid behind a sentinel 1: index
    _slot(q) reads it at the largest grid point <= q, or the trivial 1
    when q lies below the grid. A cell reads its upper bound at q <=
    h(b)/h(a) and its lower bound, ulp_dn(1 - ru_at), formed at lookup, at
    w <= h(a)/h(b) (see _chunk_sums and the lemmas of moments). w_lower is
    the first grid point where the curve is below 1 (+inf if none): a lower
    read at a w below it is +0.0. Only the cells with q <= q_lower can have
    w at or above it.
    """

    odd: tuple[int, ...]
    ru_at: np.ndarray
    q_lower: float
    w_lower: float
    group_h: np.ndarray
    group_w: np.ndarray
    group_hx: np.ndarray
    group_wl: np.ndarray


def _grid(start: int = 0, stop: int = _GRID_SIZE) -> np.ndarray:
    """The grid points from point `start` up to `stop`, increasing; by
    default to the last, 4.0."""
    i = np.arange(start + 1, stop + 1, dtype=np.int64)
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
    ru_at = np.ones(_GRID_SIZE + 1)  # behind the sentinel, the curve ru
    ru = ru_at[1:]
    above = ru[_ONE_SLOT + 1:]
    if table.y > y:
        hi, s = fold_curve(table, y)
        first = _slot(ulp_dn(hi))  # of the grid points below hi[k]
        start, counts = int(first[0]), np.diff(first, append=ru.size)
        # run_bounds holds the b table here: freed, the grid bounds leave
        # this build's peak below that of the cell walk
        del hi, first
        ru[start:] = np.repeat(s, counts)
    else:
        above[...] = bound_curves(table, _grid(_ONE_SLOT + 1))
    np.minimum(above, 0.5, out=above)
    k = int(np.argmax(ru < 1.0))  # ru is non-increasing
    w_lower = float(_grid(k, k + 1)[0]) if ru[k] < 1.0 else math.inf
    group_h, group_w, group_hx, group_wl = _group_tables(odd)
    return _Consts(
        odd=odd,
        ru_at=_read_only(ru_at),
        # q > q_lower >= 1/w_lower gives w <= 1/q < w_lower
        q_lower=up_div(1.0, w_lower) if ru[k] < 1.0 else 0.0,
        w_lower=w_lower,
        group_h=_read_only(group_h),
        group_w=_read_only(group_w),
        group_hx=_read_only(group_hx),
        group_wl=_read_only(group_wl),
    )


def _group_tables(odd: tuple):
    """The ratios and the weights of the groups (k, C, R) of the tail lemmas
    of moments, for the odd primes `odd`, with G the first _GROUP_PRIMES of
    them and group g = (k - 1) << (_GROUP_PRIMES + 1) | R << _GROUP_PRIMES
    | C (bit j of C for G[j]). Returns (h, w, hx, wl).

    The upper side: h[g] is h(2^k) prod_{p in C} (p+1)/p rounded DOWN, at
    most h(b) for every b of the group. w[A, g] is the share of M(a) that
    group (k, C) holds for the odd a divisible by the primes of G in A and
    by no other, rounded UP: 2^-k (2^-(_V2_CAP-1) at k = _V2_CAP), times
    1/(p-1) for each p in C and (p-2)/(p-1) for each p of G in neither C
    nor A. It is set on the entries with R = 0 alone, and is 0 where C
    meets A, or names a prime past G: the group holds no cell.

    The lower side: hx[g] is h+(2^k) prod_{p in C} p/(p-1) rounded UP, with
    h+(2^k) = h(2^k) below _V2_CAP and 2 at it, at least h(b) for every b
    of group (k, C, 0); a b of (k, C, 1) has h(b) at most hx[g] times the
    rest factor of a, which the a side carries (see _smooth_rows). wl[A,
    g] is w[A, g] of group (k, C) rounded DOWN, for either R, with 0 where w
    is 0; the share of R (rho(a) or 1 - rho(a)) comes with the a's mass.

    The cells carry their groups as uint8 codes (see _chunks),
    so a (_V2_CAP, _GROUP_PRIMES) whose largest code passes 255 raises
    UnsupportedParameterError rather than wrap.
    """
    top = (_V2_CAP - 1) << (_GROUP_PRIMES + 1) | (2 << _GROUP_PRIMES) - 1
    if top > 255:
        raise UnsupportedParameterError(
            f"group code {top} of _V2_CAP = {_V2_CAP} and _GROUP_PRIMES = {_GROUP_PRIMES} "
            "does not fit uint8")
    gp = odd[:_GROUP_PRIMES]
    n = 1 << _GROUP_PRIMES
    h, hx = np.empty(2 * _V2_CAP * n), np.empty(2 * _V2_CAP * n)
    up, dn = np.zeros((n, n)), np.zeros((n, n))  # [A, C]: the factors of G, 0 where no cell
    for C in range(n):
        hnum = hden = xnum = xden = 1  # the factors of the primes of C
        for j, p in enumerate(gp):
            if C >> j & 1:
                hnum, hden, xnum, xden = hnum * (p + 1), hden * p, xnum * p, xden * (p - 1)
        for k in range(1, _V2_CAP + 1):
            g = (k - 1) << (_GROUP_PRIMES + 1) | C
            num, den = 2 ** (k + 1) - 1, 2**k
            h[g] = h[g | n] = ratio_dn(num * hnum, den * hden)
            num, den = (num, den) if k < _V2_CAP else (2, 1)
            hx[g] = hx[g | n] = ratio_up(num * xnum, den * xden)
        if C >> len(gp):
            continue
        for A in range(n):
            if C & A:
                continue
            num = den = 1
            for j, p in enumerate(gp):
                if C >> j & 1:
                    den *= p - 1
                elif not A >> j & 1:
                    num, den = num * (p - 2), den * (p - 1)
            up[A, C], dn[A, C] = ratio_up(num, den), ratio_dn(num, den)
    # the factor of k is a power of 2: scaling by it is exact
    k = np.arange(1, _V2_CAP + 1)
    g = ((k - 1) << (_GROUP_PRIMES + 1))[:, None] | np.arange(n)  # [k, C]
    scale = np.ldexp(1.0, -np.minimum(k, _V2_CAP - 1))[:, None]
    w, wl = np.zeros((n, h.size)), np.zeros((n, h.size))
    w[:, g] = up[:, None, :] * scale
    wl[:, g] = wl[:, g | n] = dn[:, None, :] * scale
    return h, w, hx, wl


def _read(consts: _Consts, s: np.ndarray) -> np.ndarray:
    """ru_at[_slot(x)] for s = bits(x) - _SLOT_BASE, x >= +0.0 as an int64,
    or for s = bits(x) - _SLOT_BASE - 1, which is that of ulp_dn(x) for x >
    0: the shift gives the slot, and take's clip mode is _slot's clip. s is
    overwritten. Every read of the curve goes through here."""
    s >>= _GRID_SHIFT
    return consts.ru_at.take(s, mode="clip")


def _quotient_dn(num, den: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """num / den rounded DOWN, for num > 0 and den >= 1, as the int64 view
    of its bits: the rounded quotient, above +0.0, takes a bare step down,
    but where den is exactly 1.0, as h(a) is at a = 1, whose quotient is
    num itself, exact. `out` may be den."""
    inexact = den != 1.0
    bits = np.divide(num, den, out=out).view(np.int64)
    bits -= inexact
    return bits


def _group_read(consts: _Consts, h, h_a: np.ndarray) -> np.ndarray:
    """The curve read of a group of ratio h (from consts.group_h, one or one
    per a) for the odd a with h(a) <= h_a: ru at h / h_a rounded DOWN (see
    _quotient_dn), at most the q of every cell of the group.
    The charge (see _group_charge) and the cells (see _chunk_sums) read it
    here, in the same bits."""
    s = _quotient_dn(h, h_a)
    s -= _SLOT_BASE
    return _read(consts, s)


def _lower_read(consts: _Consts, base: np.ndarray, hx: np.ndarray) -> np.ndarray:
    """The lower read ulp_dn(1 - ru) at ulp_dn(base / hx). For a group of
    bound hx (from consts.group_hx, one per term) and the odd a with base
    <= h(a), or base <= hl(a) on a group with R = 1, ulp_dn(base / hx) is at
    most the w of every cell of the group: the charge and the cells read it
    here, in the same bits. A cell reads its own lower bound here too, at
    ulp_dn(h(a) / h(b)) from its directed abundancies (see _chunk_sums)."""
    s = np.divide(base, hx).view(np.int64)
    s -= _SLOT_BASE + 1
    ru = _read(consts, s)
    return ulp_dn(np.subtract(1.0, ru, out=ru))


def _upper_charge(consts: _Consts, A: int, h_up: np.ndarray, m_up: np.ndarray) -> int:
    """The sum of the upper group charges M_up w c of the odd a with h(a)
    <= h_up, M(a) <= m_up and the group primes A, w = consts.group_w[A, g]
    and c the group's read (see _group_read), over the groups g of nonzero
    weight, summed UP in units of 2**-FIXED_BITS (see dirround.fixed_sum).
    Each product steps UP where it may be inexact: M_up w unless every w of
    A is a power of 2 (as at y <= 3), (M_up w) c unless c = 1. All groups
    are taken at once, in steps of about _CHUNK terms, as many as a chunk's
    cells (see _chunk_sums)."""
    live = np.flatnonzero(consts.group_w[A])
    w = consts.group_w[A, live, None]
    exact = bool(np.all(np.frexp(w)[0] == 0.5))
    step = max(1, _CHUNK // live.size)
    total = 0
    for s in range(0, h_up.size, step):
        c = _group_read(consts, consts.group_h[live, None], h_up[s:s + step])
        mc = np.multiply(m_up[s:s + step], w)
        if not exact:
            ulp_up(mc)
        ulp_up(np.multiply(mc, c, out=mc), c < 1.0)
        total += fixed_sum(mc.ravel(), UP)
    return total


def _group_charge(consts: _Consts, rows: _Rows, grp: np.ndarray) -> tuple[int, int]:
    """The group charges (lower, upper) of the odd a of the a-side table
    `rows`, in units of 2**-FIXED_BITS: lower summed DOWN, upper summed UP
    less the masses summed DOWN. Each row's h_up, h_dn and hl_dn are in
    the bits its cells read their groups at; grp holds the group primes
    dividing each a (bit j for the j-th odd prime).

    upper is the sum of the upper group charges (see _upper_charge) less
    the mass M_dn. lower is the sum of M_R w l over the groups (k, C, R), w
    = consts.group_wl[A, g], l the group's lower read (see _lower_read) and
    M_R the mass of R rounded DOWN: mr_dn for R = 0 and m_dn - mr_up for
    R = 1. M_R w and (M_R w) l each step DOWN, as a cell's dens_dn and its
    lower term do: where a group is one cell, enumerated, the charge is that
    cell's lower term, bit for bit. Only the terms whose read can be above 0
    are formed: a base below w_lower hx (1 - 2^-40), the product rounded,
    gives base / hx below w_lower, where the read is +0.0. Per R the a are
    sorted by A and then by base, so those of each A and group that are
    formed are a tail of A's part of the order, and the terms are taken in
    steps of _CHUNK.
    """
    n = 1 << _GROUP_PRIMES
    upper = -fixed_sum(rows.m_dn, DOWN)
    lower = 0
    cut = consts.w_lower * (1.0 - 2.0**-40)
    rest_mass = ulp_dn(np.maximum(np.subtract(rows.m_dn, rows.mr_up), 0.0))
    for r, base, mass in ((0, rows.h_dn, rows.mr_dn), (1, rows.hl_dn, rest_mass)):
        order = np.argsort(base)
        order = order[np.argsort(grp[order], kind="stable")]  # by A, then by base
        bounds = np.searchsorted(grp[order], np.arange(n + 1)).tolist()
        base, mass = base[order], mass[order]
        # the segments (g, w, start, count): the a of A whose base reaches
        # group g's threshold, a tail of A's part of the order
        segs = []
        for A in range(n):
            lo, hi = bounds[A], bounds[A + 1]
            if lo == hi:
                continue
            if not r:  # the upper charges take each A once, in R = 0's order
                upper += _upper_charge(consts, A, rows.h_up[order[lo:hi]], rows.m_up[order[lo:hi]])
            live = np.flatnonzero(consts.group_wl[A])
            live = live[(live >> _GROUP_PRIMES & 1) == r]
            start = lo + np.searchsorted(base[lo:hi], consts.group_hx[live] * cut)
            segs.append((live, consts.group_wl[A, live], start, hi - start))
        if not segs:
            continue
        g, w, start, cnt = (np.concatenate(col) for col in zip(*segs))
        hx = consts.group_hx[g]
        ends = np.cumsum(cnt)
        for s in range(0, int(ends[-1]), _CHUNK):
            r0 = int(np.searchsorted(ends, s, "right"))
            r1 = int(np.searchsorted(ends, s + _CHUNK - 1, "right")) + 1
            first = ends[r0:r1] - cnt[r0:r1]  # of the segments, in the terms
            skip = np.maximum(s - first, 0)
            lens = np.minimum(s + _CHUNK - first, cnt[r0:r1]) - skip
            # the positions in the order of each segment's terms in the part
            pos = np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens - start[r0:r1] - skip,
                                                    lens)
            mw = ulp_dn(np.multiply(mass.take(pos), np.repeat(w[r0:r1], lens)))
            l = _lower_read(consts, base.take(pos), np.repeat(hx[r0:r1], lens))
            lower += fixed_sum(ulp_dn(np.multiply(mw, l, out=mw)), DOWN)
    return lower, upper


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, marked read-only. The pool's threads share the engine's tables, so
    an in-place step such as ulp_up on one raises instead of racing."""
    a.setflags(write=False)
    return a


class _Rows(NamedTuple):
    """Smooth numbers with what a cell needs of each, one array per column.

    A b-side row is an even b, an a-side row an odd a. mask holds one
    uint64 word per 64 odd primes <= y, bit j for the j-th odd prime, and
    at least one word, all zero when there is none.
    d_dn is the density factor F(value)/value rounded DOWN, F the product of
    (p-1)/(p-2) over the odd primes dividing value, with the density base
    folded into the a side. h_* is the directed abundancy sigma(v)/v of the
    value v. The last five columns are those of the a side, and empty on
    the b table and on the a side once charged, but for hl_dn: m_* is the
    directed mass M(a) of the cells of an odd a, mr_* the directed M(a)
    rho(a) of those whose b has no odd prime outside the group primes, and
    hl_dn is hl(a) = h(a) / rest(a) rounded DOWN (the tail lemmas of
    moments).
    """

    value: np.ndarray
    mask: np.ndarray
    d_dn: np.ndarray
    h_dn: np.ndarray
    h_up: np.ndarray
    m_dn: np.ndarray
    m_up: np.ndarray
    mr_dn: np.ndarray
    mr_up: np.ndarray
    hl_dn: np.ndarray

    def read_only(self) -> "_Rows":
        return _Rows(*map(_read_only, self))


def _smooth_rows(odd, limit: int, even: bool, f0: float, m0: tuple = (),
                 budget: Optional[int] = None, classes: int = 0):
    """Every even (or odd) number v <= limit built from 2 (or not) and a
    prefix of the odd primes `odd`, sorted by class and then by value, with
    the density factor f0 * F(v)/v rounded DOWN and the abundancy h(v),
    directed. On the odd side, m0 = (m_dn, m_up, mr_dn, mr_up, hl_dn) gives
    the heads of the last five columns (see _Rows) at v = 1, directed; they
    are empty without. A row's class is the set of the first `classes`
    primes used that divide v (see _classes); with classes = 0 the rows are
    sorted by value alone. The first _GROUP_PRIMES of `odd` are the group
    primes.

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
    parent's factor by (p-1)/((p-2) p^k), its abundancy by h(p^k), its mass
    by 1/p^k, and, for a p outside the group primes, its mr by
    (p-1)/((p-2) p^k) and its hl by h(p^k) p/(p-1) (by 1/p^k and h(p^k) for
    a group prime), each an exact ratio rounded to its side, and takes one
    directed step. No integer is rounded to a float on the way.
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
        sel = np.flatnonzero(value <= limit // p)
        while sel.size:
            size += sel.size
            if budget is not None and size > budget:
                break
            v = value[sel]
            parts.append(v * pk)
            new.append((j, pk, sel))
            pk *= p
            sel = sel[v <= limit // pk]  # v p^k <= limit needs v p^(k-1) <= limit
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
    d_dn, h_dn, h_up = (np.empty(n) for _ in range(3))
    # the last five columns as the rows of one array, the DOWN ones first:
    # m_dn, mr_dn, hl_dn, m_up, mr_up, each batch stepped in one pass
    last = np.empty((5, n if m0 else 0))
    head = pos[:n0]
    d_dn[head] = [f0 / v for v in heads]  # exact: v is a power of 2
    h_dn[head] = [ratio_dn(2 * v - 1, v) for v in heads]
    h_up[head] = [ratio_up(2 * v - 1, v) for v in heads]
    if m0:  # the odd side: one head, v = 1
        m_dn, m_up, mr_dn, mr_up, hl_dn = m0
        last[:, head] = [[m_dn], [mr_dn], [hl_dn], [m_up], [mr_up]]
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
        snum, sden = pk * p - 1, pk * (p - 1)  # h(p^k)
        d_dn[dst] = ulp_dn(d_dn[par] * ratio_dn(p - 1, (p - 2) * pk))
        h_dn[dst] = ulp_dn(h_dn[par] * ratio_dn(snum, sden))
        h_up[dst] = ulp_up(h_up[par] * ratio_up(snum, sden))
        if m0:
            if j < _GROUP_PRIMES:
                rnum, rden, lnum, lden = 1, pk, snum, sden
            else:  # rho(v) and rest(v) lose their factors of p
                rnum, rden, lnum, lden = p - 1, (p - 2) * pk, snum * p, sden * (p - 1)
            part = last.take(par, axis=1)
            part *= np.array([ratio_dn(1, pk), ratio_dn(rnum, rden), ratio_dn(lnum, lden),
                              ratio_up(1, pk), ratio_up(rnum, rden)])[:, None]
            ulp_dn(part[:3])
            ulp_up(part[3:])
            last[:, dst] = part
    return _Rows(value, mask, d_dn, h_dn, h_up, last[0], last[3], last[1], last[4], last[2]), used


class _Chunk(NamedTuple):
    """Candidate rows: for each range k, a-side row a[k] of `rows` against
    the b-table rows j_lo[k] <= j < j_hi[k], b values of one class disjoint
    from the row's own and at most z // the row's value. b_group is each
    b-table row's group (see _group_tables), of the C and R its own primes
    make. charge is the a side's net charges (lower, upper) on the first
    chunk and (0, 0) on the others."""

    rows: _Rows
    b_group: np.ndarray
    charge: tuple
    a: np.ndarray
    j_lo: np.ndarray
    j_hi: np.ndarray


def _b_table(odd: tuple, z: int) -> _Rows:
    """The b table, read-only: the even y-smooth numbers <= z, `odd` the
    odd primes <= y, sorted by class and then by value (see _classes). If
    it would pass _ROW_BUDGET rows, the run is refused with
    UnsupportedParameterError, which names the largest y whose table fits:
    that of the longest prefix of the odd primes that _smooth_rows keeps
    within the budget. It needs no moment table, so run_bounds builds it
    first."""
    b, used = _smooth_rows(odd, z, True, 1.0, (), _ROW_BUDGET, _CLASS_PRIMES)
    if used < len(odd):
        fits = odd[used - 1] if used else 2
        raise UnsupportedParameterError(
            f"the even y-smooth numbers <= {z} pass the row budget of {_ROW_BUDGET}; "
            f"at this z use y <= {fits}")
    return b.read_only()


def _cell_tables(consts: _Consts, b: _Rows, z: int):
    """The chunks of candidate rows of the b table `b` (see _b_table), in
    their fixed order. The a side holds the odd y-smooth
    numbers <= z // 2 with the density base prod (p-2)/p and the mass base
    prod (p-1)/p over the odd primes, so that a row's mass is M(a) of the
    tail lemma (see moments); its mr starts at the mass base times rho(1),
    the product of (p-2)/(p-1), and its hl at 1/rest(1), the product of
    (p-1)/p, both over the odd primes outside the group primes. Sorted by
    value, its row 0 is a = 1. Its net charges are taken here (see
    _group_charge). Its table comes back read-only.
    """
    base, mass, den, rho, rho_den, rest, rest_den = 1, 1, 1, 1, 1, 1, 1
    for j, p in enumerate(consts.odd):
        base *= p - 2
        mass *= p - 1
        den *= p
        if j >= _GROUP_PRIMES:
            rho, rho_den = rho * (p - 2), rho_den * (p - 1)
            rest, rest_den = rest * (p - 1), rest_den * p
    m0 = (ratio_dn(mass, den), ratio_up(mass, den), ratio_dn(mass * rho, den * rho_den),
          ratio_up(mass * rho, den * rho_den), ratio_dn(rest, rest_den))
    a, _ = _smooth_rows(consts.odd, z // 2, False, ratio_dn(base, den), m0)
    a = a.read_only()
    charge = _group_charge(consts, a, _classes(a, (1 << _GROUP_PRIMES) - 1))
    # hl_dn alone outlives the charge: copied, it frees the masses' array
    empty = _read_only(np.empty(0))
    a = a._replace(m_dn=empty, m_up=empty, mr_dn=empty, mr_up=empty,
                   hl_dn=_read_only(a.hl_dn.copy()))
    return _chunks(a, charge, b, (1 << min(len(consts.odd), _CLASS_PRIMES)) - 1, z)


def _classes(rows: _Rows, cmask: int) -> np.ndarray:
    """Each row's mask bits under cmask, as uint8: the set of the odd
    primes of those bits that divide its value, of the b table's class
    primes (its first odd primes) or of the group primes."""
    return (rows.mask[0] & np.uint64(cmask)).astype(np.uint8)


def _ranges(rows: _Rows, b: _Rows, bounds: np.ndarray, cmask: int, z: int):
    """The candidate ranges (a, j_lo, count) of the a side `rows`:
    per a-side row and per b class disjoint from the row's class, the b rows
    of that class with value <= z // the row's value. `bounds[c]` is where
    class c starts in the b table. Yielded in batches of _CHUNK >>
    _CLASS_PRIMES rows, at most _CHUNK ranges each, so that the ranges held
    at once stay near the size of a chunk whatever the a side's size; a range
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


def _chunks(rows: _Rows, charge: tuple, b: _Rows, cmask: int, z: int):
    """Cut each batch of candidate ranges of the a side `rows` (see
    _ranges) into chunks of _CHUNK candidate rows; the last chunk of a
    batch takes the rows left over. A range may be split between chunks.
    The first chunk carries the a side's net charges `charge`: the row a =
    1 pairs with b = 2, so there is a chunk."""
    bounds = np.searchsorted(_classes(b, cmask), np.arange(cmask + 2))
    k = np.zeros(b.value.size, np.uint8)  # min(v2(b), _V2_CAP) - 1
    for j in range(2, _V2_CAP + 1):
        k += (b.value & ((1 << j) - 1)) == 0
    r = (b.mask[0] >> np.uint64(_GROUP_PRIMES)) != 0  # an odd prime past the group primes
    for word in b.mask[1:]:
        r |= word != 0
    b_group = k << np.uint8(_GROUP_PRIMES + 1) | r.view(np.uint8) << np.uint8(_GROUP_PRIMES)
    b_group |= _classes(b, (1 << _GROUP_PRIMES) - 1)
    b_group = _read_only(b_group)
    for a, lo, cnt in _ranges(rows, b, bounds, cmask, z):
        ends = np.cumsum(cnt)
        s = 0
        while cnt.size and s < ends[-1]:
            r0 = int(np.searchsorted(ends, s, "right"))
            r1 = int(np.searchsorted(ends, s + _CHUNK - 1, "right")) + 1
            starts = ends[r0:r1] - cnt[r0:r1]
            yield _Chunk(
                rows,
                b_group,
                charge,
                a[r0:r1],
                lo[r0:r1] + np.maximum(s - starts, 0),
                lo[r0:r1] + np.minimum(s + _CHUNK - starts, cnt[r0:r1]),
            )
            charge = (0, 0)
            s += _CHUNK


def _chunk_sums(consts: _Consts, b: _Rows, ch: _Chunk):
    """The directed sums of the cell terms of one chunk.

    Returns (lower, upper, covered_dn, pairs): the sums as fixed_sum gives
    them, integer counts of 2**-FIXED_BITS, with lower the chunk's lower
    charge and its cells' excesses, and upper its upper charge less its
    saving. Every cell term is directed (a one-ULP step after each
    operation), and every sum of them is taken DOWN: the covered mass, the
    excesses and the saving, which the upper side takes off.

    Every cell reads ru at q, a DOWN bound on h(b)/h(a) (exact at a = 1,
    the a side's row 0, see _quotient_dn), and saves
    dens_dn (c - ru) stepped DOWN, or 0 where c <= ru, off its group's read
    c, in the bits its a's charge read it (see _group_read and the tail
    lemma of moments). Its lower bound rl = ulp_dn(1 - ru) is read at w, a
    DOWN bound on h(a)/h(b) <= 1/q, and is +0.0 unless w reaches
    consts.w_lower, so w and rl are formed for the cells with q <=
    consts.q_lower alone. Such a cell adds dens_dn (rl - l) stepped DOWN, or
    0 where rl <= l, over its group's lower read l, in the bits its a's
    charge read it (see _lower_read and the lower tail lemma of moments);
    the difference steps only where l > 0, as rl - 0 is exact. Each sum is
    taken as soon as its terms are formed, and the savings overwrite the
    group reads: the chunk's arrays set the run's peak memory.
    """
    rows = ch.rows
    ai, bi = _coprime_pairs(b, ch)
    dens_dn = ulp_dn(np.multiply(rows.d_dn.take(ai), b.d_dn.take(bi)))
    covered = fixed_sum(dens_dn, DOWN)
    g = ch.b_group.take(bi)
    h = rows.h_up.take(ai)
    gap = _group_read(consts, consts.group_h.take(g), h)
    q = _quotient_dn(b.h_dn.take(bi), h, out=h)  # <= h(b)/h(a)
    ru = _read(consts, np.subtract(q, _SLOT_BASE))
    q = q.view(np.float64)
    ulp_dn(np.maximum(np.subtract(gap, ru, out=gap), 0.0, out=gap))
    saving = fixed_sum(ulp_dn(np.multiply(dens_dn, gap, out=gap)), DOWN)
    pairs = dens_dn.size
    low = np.flatnonzero(q <= consts.q_lower)
    del gap, ru, q, h  # the lower reads take the low cells alone
    ai, bi, g, dens_dn = ai.take(low), bi.take(low), g.take(low), dens_dn.take(low)
    h = rows.h_dn.take(ai)
    rl = _lower_read(consts, h, b.h_up.take(bi))  # at w <= h(a)/h(b); ru = 1 gives +0.0
    r = (g & np.uint8(1 << _GROUP_PRIMES)) != 0
    base = np.where(r, rows.hl_dn.take(ai), h)
    l = _lower_read(consts, base, consts.group_hx.take(g))
    ulp_dn(np.maximum(np.subtract(rl, l, out=rl), 0.0, out=rl), l > 0.0)
    lower = fixed_sum(ulp_dn(np.multiply(dens_dn, rl, out=rl)), DOWN)
    return ch.charge[0] + lower, ch.charge[1] - saving, covered, pairs


def _coprime_pairs(b: _Rows, ch: _Chunk):
    """The a-side and b-table row indices of the chunk's candidate pairs
    whose masks do not intersect, the pairs with coprime values."""
    lens = ch.j_hi - ch.j_lo
    ai = np.repeat(ch.a, lens)
    bi = np.arange(ai.size) - np.repeat(np.cumsum(lens) - lens - ch.j_lo, lens)
    clash = ch.rows.mask[0].take(ai) & b.mask[0].take(bi)  # one mask word at a time
    for w in range(1, b.mask.shape[0]):
        clash |= ch.rows.mask[w].take(ai) & b.mask[w].take(bi)
    keep = np.flatnonzero(clash == 0)
    return ai.take(keep), bi.take(keep)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _pooled(consts: _Consts, b: _Rows, chunks, threads: int):
    """Yield each chunk's sums in chunk order, computed on a thread pool.

    numpy releases the GIL in its array loops, and the threads share consts,
    the b table and the a side, all read-only. At most four chunks per
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


_ONE = 1 << FIXED_BITS  # 1.0 in the units of fixed_sum


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

    Enumerates every cell with ab <= z and sums the directed cell terms and
    the covered mass, each sum floored or ceiled to its side as an integer
    count of 2**-FIXED_BITS (see dirround.fixed_sum). Each side charges the
    cells of every odd a <= z // 2 by group, each group at one read of the
    bound curve: the upper side charges the cells of the a above z // 2 at
    1 and takes off each enumerated cell's saving against its group's read
    (the tail lemma of moments), the lower side adds each enumerated cell's
    gain over its group's lower read (the lower tail lemma): so the
    unenumerated cells of an a are bounded by the curve on both sides, not
    by 1 and 0. The a side's charges are added with the first chunk, before
    any of its cells. Each reported number is rounded once, to its side,
    from the integer totals, so neither the chunk cut nor the thread count
    moves a bit. One thread sums the chunks in the calling thread; more
    share a pool (see _pooled).
    `threads` is capped at the usable cores, and the report carries the
    count used. `progress(report, flush)` gets the BoundReport of the cells
    summed so far, itself a certified bracket, after each chunk that crosses
    a multiple of `flush_every` cells (flush True), and otherwise at most
    once a second (flush False). With no `table`, the run builds one at
    level _FOLD_LEVEL for y <= _FOLD_MAX_Y, and at y otherwise; a supplied
    table of level table.y >= y folds the primes in (y, table.y] into the
    bound curve (see _engine_consts). A (y, z) whose b table passes the row
    budget is refused before any moment table is built (see _b_table).
    """
    if z < 2:
        raise InvalidParameterError(f"z must be >= 2, got {z}")
    if z >= 2**63:
        # a z past the int-to-str limit cannot be formatted
        raise InvalidParameterError(f"z must be below 2**63, got a {z.bit_length()}-bit z")
    if r_max < 1:
        raise InvalidParameterError(f"r_max must be >= 1, got {r_max}")
    if threads < 1:
        raise InvalidParameterError(f"threads must be >= 1, got {threads}")
    check_y(y)
    if table is not None and (table.y < y or table.r_max != r_max):
        raise InvalidParameterError("supplied moment table does not match y/r_max")
    t_start = time.perf_counter()
    b = _b_table(tuple(primes_upto(y).tolist()[1:]), z)  # refused before the table is built
    if table is None:
        table = build_moment_table(_FOLD_LEVEL if y <= _FOLD_MAX_Y else y, r_max)
    consts = _engine_consts(table, y)
    chunks = _cell_tables(consts, b, z)

    # capped, so that a huge request opens no huge window of futures
    threads = min(threads, _usable_cpus())
    if threads == 1:
        done = (_chunk_sums(consts, b, ch) for ch in chunks)
    else:
        done = _pooled(consts, b, chunks, threads)

    def report(lo: int, up: int, cov_dn: int, pairs: int) -> BoundReport:
        # the integer totals, in units of 2**-FIXED_BITS, each rounded once
        # to its side; up is the a side's group charges less its mass and
        # the savings of the cells summed, so upper adds the 1 that charges
        # the cells of the a past z // 2, and is capped at 1
        lower = ratio_dn(lo, _ONE)
        upper = min(ratio_up(up + _ONE, _ONE), 1.0)
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

    sums, pairs = [0, 0, 0], 0  # the integer totals (see _chunk_sums)
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
