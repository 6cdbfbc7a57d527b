"""Cell enumeration and the certified density bracket.

The integers split into cells indexed by (a, b): a is the largest y-smooth
divisor of 2n+1 and b the largest y-smooth divisor of 2n, so a is odd, b is
even and coprime to a, and each cell is a finite union of arithmetic
progressions with an exactly computable density. Per cell, moment inequalities
turn the abundancy ratio of a and b into certified bounds on how much of the
cell satisfies the target inequality; summing over all cells with ab <= z and
charging the unenumerated tail to the upper side yields a bracket for the
density of the whole set.

Directed rounding discipline: lower accumulations round DOWN, upper ones UP,
so the reported bracket is a certificate no matter how many cells were summed.
"""
from __future__ import annotations

import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Optional

import numpy as np

from .arith import FactoredSmooth, PrimeTable, ext_gcd, sieve_primes
from .dirround import (
    DOWN,
    UP,
    DirScalar,
    dn_add,
    dn_mul,
    dn_sub,
    next_up,
    ratio_dn,
    ratio_up,
    up_add,
    up_div,
    up_mul,
    up_sub,
)
from .errors import InvalidCellError, InvalidParameterError
from .moments import MomentTable, build_moment_table

_TWO53 = 9007199254740992.0  # ints below this convert to float exactly


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellDensity:
    a: FactoredSmooth
    b: FactoredSmooth
    y: int
    dens: Fraction


@dataclass(frozen=True)
class PairBound:
    """Certified per-cell bounds; r_* = 0 records a trivial fallback."""

    cell: CellDensity
    lower: DirScalar
    upper: DirScalar
    r_lower: int
    r_upper: int


@dataclass(frozen=True)
class ProgressionCell:
    """One congruence-class slice of a cell; an arithmetic progression in n
    when the divisibility gate holds, otherwise empty."""

    a: int
    b: int
    t1: int
    t2: int
    modulus: int
    solvable: bool
    first_n: Optional[int]
    step: Optional[int]


@dataclass(frozen=True)
class ProgressEvent:
    pairs: int
    current_a: int
    lower: float  # certified lower bound accumulated so far
    upper: float  # certified upper bound if the run stopped now (tail included)
    covered: float  # DOWN-directed covered mass so far
    flush: bool = False


@dataclass(frozen=True)
class BoundReport:
    y: int
    z: int
    r_max: int
    threads: int
    lower_total: DirScalar
    upper_total: DirScalar
    covered_lo: DirScalar
    covered_hi: DirScalar
    pair_count: int
    elapsed_seconds: float

    @property
    def covered_mass(self) -> float:
        """Certified lower bound on the total density of enumerated cells."""
        return self.covered_lo.value


# ---------------------------------------------------------------------------
# exact cell density and its progression oracle
# ---------------------------------------------------------------------------

def _validate_factored(f: FactoredSmooth, y: int, name: str) -> None:
    v = 1
    last = 1
    for p, e in f.factors:
        if p <= last or e < 1:
            raise InvalidCellError(f"{name} has a malformed factorization")
        if p > y:
            raise InvalidCellError(f"{name}={f.value} is not {y}-smooth")
        v *= p**e
        last = p
    if v != f.value:
        raise InvalidCellError(f"{name} factorization does not match its value")


def cell_density(a: FactoredSmooth, b: FactoredSmooth, primes: PrimeTable) -> CellDensity:
    """Exact density of the cell: (2/ab) prod_{p|ab}(1-1/p) prod_{p<=y, p∤ab}(1-2/p)."""
    y = primes.bound
    _validate_factored(a, y, "a")
    _validate_factored(b, y, "b")
    if a.value % 2 == 0:
        raise InvalidCellError(f"a must be odd, got {a.value}")
    if b.value % 2 == 1:
        raise InvalidCellError(f"b must be even, got {b.value}")
    if gcd(a.value, b.value) != 1:
        raise InvalidCellError(f"a and b must be coprime, got {a.value}, {b.value}")
    ab_primes = set(a.prime_set()) | set(b.prime_set())
    dens = Fraction(2, a.value * b.value)
    for p in ab_primes:
        dens *= Fraction(p - 1, p)
    for p in primes.primes:
        if p not in ab_primes:
            dens *= Fraction(p - 2, p)
    return CellDensity(a=a, b=b, y=y, dens=dens)


def solve_progression(a: int, b: int, t1: int, t2: int, modulus: int) -> ProgressionCell:
    """Solve for the n with (2n+1)/a == t1 and 2n/b == t2 modulo the primorial.

    Writing 2n+1 = ax and 2n = by forces ax - by = 1; threading the two
    congruences through the general solution shows the class is nonempty
    exactly when modulus | 1 - a*t1 + b*t2, and then it is an arithmetic
    progression with step a*b*modulus/2. Small-scale oracle for cell_density.
    """
    P = modulus
    if a < 1 or a % 2 == 0:
        raise InvalidParameterError(f"a must be a positive odd integer, got {a}")
    if b < 2 or b % 2 == 1:
        raise InvalidParameterError(f"b must be a positive even integer, got {b}")
    if gcd(a, b) != 1:
        raise InvalidParameterError(f"a and b must be coprime, got {a}, {b}")
    if P < 2 or P % 2 == 1:
        raise InvalidParameterError(f"modulus must be even and >= 2, got {P}")
    if not (1 <= t1 <= P and 1 <= t2 <= P):
        raise InvalidParameterError("t1, t2 must lie in [1, modulus]")
    if gcd(t1, P) != 1 or gcd(t2, P) != 1:
        raise InvalidParameterError("t1 and t2 must be coprime to the modulus")

    c = 1 - a * t1 + b * t2
    if c % P:
        return ProgressionCell(a, b, t1, t2, P, False, None, None)
    ell = c // P
    g, u, _v = ext_gcd(a, b)
    assert g == 1
    x0 = u  # a*x0 == 1 (mod b), giving a particular solution of ax - by = 1
    x = t1 + P * x0 * ell
    twonp1 = a * x
    step = a * b * P // 2
    n0 = (twonp1 - 1) // 2
    n = n0 % step
    if n < 1:
        n += step
    # paranoia: confirm the representative really satisfies all four conditions
    if (
        (2 * n + 1) % a
        or ((2 * n + 1) // a - t1) % P
        or (2 * n) % b
        or ((2 * n) // b - t2) % P
    ):
        raise AssertionError("progression construction is inconsistent")
    return ProgressionCell(a, b, t1, t2, P, True, n, step)


# ---------------------------------------------------------------------------
# per-cell moment bounds (reference path: consecutive r search)
# ---------------------------------------------------------------------------

def _scan_best_ratio(q: Fraction, vals: list[float], roots: list[float], r_max: int):
    """Walk r upward per the local stop rule and return (best_g, r) where
    best_g is an UP bound on min_r (M(r)-1)/(q^r-1), or (None, 0).

    Stops at the first non-improving candidate, except that stopping is never
    allowed before r=2 has been looked at (the r=1 candidate alone can be a
    spurious plateau).
    """
    q_dn = ratio_dn(q.numerator, q.denominator)
    qr = 1.0
    best = None
    best_r = 0
    for r in range(1, r_max + 1):
        qr = dn_mul(qr, q_dn)
        lam = vals[r]
        if not math.isfinite(lam):
            break  # saturated orders never recover: discard, never use
        if q_dn <= roots[r]:
            continue
        cap = 1e9 * lam
        qe = qr if qr < cap else cap
        den = dn_sub(qe, 1.0)
        if den <= 0.0:
            continue
        cand = up_div(up_sub(lam, 1.0), den)
        if best is None or cand < best:
            best, best_r = cand, r
        elif r >= 2:
            break
    return best, best_r


def pair_bounds(
    cell: CellDensity, table: MomentTable, ha: Fraction, hb: Fraction
) -> PairBound:
    """Certified lower/upper bounds for the target-set share of one cell.

    With q the larger of hb/ha and ha/hb, the candidate at order r is
    dens * (M(r)-1)/(q^r-1) subtracted from the appropriate side; only the
    side whose abundancy dominates can beat the trivial bounds [0, dens].
    """
    dens = cell.dens
    dens_dn = ratio_dn(dens.numerator, dens.denominator)
    dens_up = ratio_up(dens.numerator, dens.denominator)
    vals = table.value_floats()
    roots = table.root_floats()

    lower_v, r_lo = 0.0, 0
    upper_v, r_up = dens_up, 0
    if hb > ha:
        best, r = _scan_best_ratio(hb / ha, vals, roots, table.r_max)
        if best is not None and best < 1.0:
            upper_v, r_up = up_mul(dens_up, best), r
    elif ha > hb:
        best, r = _scan_best_ratio(ha / hb, vals, roots, table.r_max)
        if best is not None and best < 1.0:
            ratio = dn_sub(1.0, best)
            if ratio > 0.0:
                cand = dn_mul(dens_dn, ratio)
                if cand > 0.0:
                    lower_v, r_lo = cand, r
    return PairBound(
        cell=cell,
        lower=DirScalar(lower_v, DOWN),
        upper=DirScalar(upper_v, UP),
        r_lower=r_lo,
        r_upper=r_up,
    )


# ---------------------------------------------------------------------------
# production path: ratio curves tabulated on a geometric grid
# ---------------------------------------------------------------------------

_GRID_SIZE = 1 << 17
_GRID_LO = 1.0 + 2.0**-16
_GRID_HI = 32.0


def _ratio_grids(table: MomentTable):
    """Tabulate the bound-ratio curves over a geometric grid of q values.

    For grid point g and any cell ratio q >= g the upper curve satisfies
    min_r (M(r)-1)/(q^r-1) <= ru[g] and the lower curve
    max_r (1 - (M(r)-1)/(q^r-1)) >= rl[g], because both expressions are
    monotone in q. Per cell the engine then only needs the grid slot at or
    below its q: one lookup replaces the whole r search, at a tightness cost
    bounded by the grid spacing (4e-5 in log q).
    """
    vals = table.value_floats()
    inf = np.inf
    g = np.geomspace(_GRID_LO, _GRID_HI, _GRID_SIZE)
    np.maximum.accumulate(g, out=g)  # guard monotonicity at the ulp level
    qr = g.copy()
    ru = np.ones(_GRID_SIZE)
    rl = np.zeros(_GRID_SIZE)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for r in range(1, table.r_max + 1):
            lam = vals[r]
            if not math.isfinite(lam):
                break  # orders only saturate upward from here
            if r > 1:
                qr = np.minimum(np.nextafter(qr * g, 0.0), 1e300)
            num = next_up(lam - 1.0)
            cap = 1e9 * lam if math.isfinite(1e9 * lam) else 1e300
            qe = np.minimum(qr, cap)
            den = np.nextafter(qe - 1.0, -inf)
            ok = den > 0.0
            cand = np.where(ok, np.nextafter(num / den, inf), inf)
            np.minimum(ru, cand, out=ru)
            f = np.nextafter(1.0 - cand, -inf)
            np.maximum(rl, np.where(ok, f, 0.0), out=rl)
    iu = np.nonzero(ru < 1.0)[0]
    il = np.nonzero(rl > 0.0)[0]
    gate_u = float(g[iu[0]]) if iu.size else math.inf
    gate_l = float(g[il[0]]) if il.size else math.inf
    lg0 = math.log(g[0])
    inv_step = (_GRID_SIZE - 1) / math.log(g[-1] / g[0])
    return g.tolist(), ru.tolist(), rl.tolist(), gate_u, gate_l, lg0, inv_step


def _engine_consts(y: int, z: int, table: MomentTable):
    odd = sieve_primes(y).odd() if y >= 3 else ()
    f_dn = tuple(ratio_dn(p - 1, p - 2) for p in odd)
    f_up = tuple(ratio_up(p - 1, p - 2) for p in odd)
    base = Fraction(1)
    for p in odd:
        base *= Fraction(p - 2, p)
    base_dn = ratio_dn(base.numerator, base.denominator)
    base_up = ratio_up(base.numerator, base.denominator)
    grid, ru, rl, gate_u, gate_l, lg0, inv_step = _ratio_grids(table)
    return (z, odd, f_dn, f_up, base_dn, base_up, grid, ru, rl, gate_u, gate_l, lg0, inv_step)


def _run_tasks(consts, tasks, progress=None, flush_every=0, t_start=0.0):
    """Enumerate the subtrees described by `tasks` and accumulate bounds.

    Returns (lower, upper_cells, covered_dn, covered_up, pairs). The upper
    component covers enumerated cells only; the caller adds the tail.
    """
    (z, odd, f_dn, f_up, base_dn, base_up, grid, ru, rl,
     gate_u, gate_l, lg0, inv_step) = consts
    K = len(odd)
    G1 = len(grid) - 1
    nxt = math.nextafter
    log = math.log
    INF = math.inf
    used = bytearray(K)

    lo_sum = 0.0
    up_sum = 0.0
    cov_dn = 0.0
    cov_up = 0.0
    pairs = 0
    av = 1
    asig = 1
    zb = 0
    ticking = progress is not None
    next_tick = t_start + 1.0

    def emit(flush: bool) -> None:
        nonlocal next_tick
        progress(ProgressEvent(
            pairs=pairs,
            current_a=av,
            lower=lo_sum,
            upper=_upper_with_tail(up_sum, cov_dn),
            covered=cov_dn,
            flush=flush,
        ))
        next_tick = time.perf_counter() + 1.0

    def walk_b(i, bv, bs, rdn, rup):
        nonlocal lo_sum, up_sum, cov_dn, cov_up, pairs
        # ---- the cell (av, bv) ----
        ab = av * bv
        fab = float(ab)
        if fab < _TWO53:
            fab_dn = fab_up = fab
        elif fab == ab:
            fab_dn = fab_up = fab
        elif fab > ab:
            fab_up = fab
            fab_dn = nxt(fab, 0.0)
        else:
            fab_dn = fab
            fab_up = nxt(fab, INF)
        dens_dn = nxt(rdn / fab_up, 0.0)
        dens_up = nxt(rup / fab_dn, INF)
        lhs = bs * av  # sigma(b) * a
        rhs = asig * bv  # sigma(a) * b
        up_cell = dens_up
        if lhs > rhs:
            # b side more abundant: only the upper bound can improve
            q = nxt(lhs / rhs, 0.0)
            if q >= gate_u:
                i2 = int((log(q) - lg0) * inv_step)
                if i2 > G1:
                    i2 = G1
                elif i2 < 0:
                    i2 = 0
                while grid[i2] > q:
                    i2 -= 1
                ratio = ru[i2]
                if ratio < 1.0:
                    up_cell = nxt(dens_up * ratio, INF)
        elif rhs > lhs:
            w = nxt(rhs / lhs, 0.0)
            if w >= gate_l:
                i2 = int((log(w) - lg0) * inv_step)
                if i2 > G1:
                    i2 = G1
                elif i2 < 0:
                    i2 = 0
                while grid[i2] > w:
                    i2 -= 1
                ratio = rl[i2]
                if ratio > 0.0:
                    lo_sum = nxt(lo_sum + nxt(dens_dn * ratio, 0.0), 0.0)
        up_sum = nxt(up_sum + up_cell, INF)
        cov_dn = nxt(cov_dn + dens_dn, 0.0)
        cov_up = nxt(cov_up + dens_up, INF)
        pairs += 1
        if ticking:
            if flush_every and pairs % flush_every == 0:
                emit(True)
            elif (pairs & 2047) == 0 and time.perf_counter() >= next_tick:
                emit(False)
        # ---- children: extend b by unused odd primes ----
        for j in range(i, K):
            if used[j]:
                continue
            p = odd[j]
            vv = bv * p
            if vv > zb:
                break
            ndn = nxt(rdn * f_dn[j], 0.0)
            nup = nxt(rup * f_up[j], INF)
            t = 1 + p
            while vv <= zb:
                walk_b(j + 1, vv, bs * t, ndn, nup)
                vv *= p
                t = t * p + 1

    def do_a(v, sv, rdn, rup):
        nonlocal av, asig, zb
        av = v
        asig = sv
        zb = z // v
        if zb < 2:
            return
        b2 = 2
        s2 = 3
        while b2 <= zb:
            walk_b(0, b2, s2, rdn, rup)
            b2 *= 2
            s2 = 2 * s2 + 1

    def walk_a(i, v, sv, rdn, rup):
        do_a(v, sv, rdn, rup)
        for j in range(i, K):
            p = odd[j]
            vv = v * p
            if vv > z:
                break
            ndn = nxt(rdn * f_dn[j], 0.0)
            nup = nxt(rup * f_up[j], INF)
            used[j] = 1
            t = 1 + p
            while vv <= z:
                walk_a(j + 1, vv, sv * t, ndn, nup)
                vv *= p
                t = t * p + 1
            used[j] = 0

    for a0, idx, subtree in tasks:
        # rebuild the a-side state (sigma, density ratio, used primes)
        sv = 1
        rdn = base_dn
        rup = base_up
        marks = []
        m = a0
        for j in range(K):
            if m == 1:
                break
            p = odd[j]
            if m % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                sv *= (p ** (e + 1) - 1) // (p - 1)
                rdn = nxt(rdn * f_dn[j], 0.0)
                rup = nxt(rup * f_up[j], INF)
                used[j] = 1
                marks.append(j)
        if m != 1:
            raise InvalidParameterError(f"task root {a0} is not {len(odd)}-index smooth")
        if subtree:
            walk_a(idx, a0, sv, rdn, rup)
        else:
            do_a(a0, sv, rdn, rup)
        for j in marks:
            used[j] = 0

    return lo_sum, up_sum, cov_dn, cov_up, pairs


def _split_tasks(odd, z):
    """Partition the a tree at depth two for parallel execution.

    Task (a0, idx, subtree): process a0's own b walk, and when subtree is set
    also every extension of a0 by primes with index >= idx. The list covers
    the full tree exactly once.
    """
    K = len(odd)
    level1 = []
    for j in range(K):
        v = odd[j]
        while v <= z:
            level1.append((v, j + 1))
            v *= odd[j]
    tasks = [(1, 0, False)]
    for v, i in level1:
        tasks.append((v, i, False))
        for j in range(i, K):
            vv = v * odd[j]
            while vv <= z:
                tasks.append((vv, j + 1, True))
                vv *= odd[j]
    return tasks


_WORKER_CONSTS = None


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _worker_init(consts):
    global _WORKER_CONSTS
    _WORKER_CONSTS = consts


def _worker_run(batch):
    return _run_tasks(_WORKER_CONSTS, batch)


def run_bounds(
    y: int,
    z: int,
    r_max: int,
    threads: Optional[int] = None,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
    flush_every: int = 0,
    table: Optional[MomentTable] = None,
) -> BoundReport:
    """Certified bracket for the density of n with sigma(2n+1) >= sigma(2n).

    Enumerates every cell with ab <= z, accumulates DOWN-directed lower and
    UP-directed upper totals plus the covered mass, then charges the
    unenumerated tail (1 - covered) to the upper side. Single-threaded runs
    are bit-reproducible; multi-worker runs merge per-task partial sums in a
    fixed order, so the bracket is certified under any schedule. `threads`
    is capped at the usable cores and at the task count; the report carries
    the count actually used.
    """
    if z < 2:
        raise InvalidParameterError(f"z must be >= 2, got {z}")
    if r_max < 1:
        raise InvalidParameterError(f"r_max must be >= 1, got {r_max}")
    if threads is None:
        threads = _usable_cpus()
    if threads < 1:
        raise InvalidParameterError(f"threads must be >= 1, got {threads}")
    t_start = time.perf_counter()
    if table is None:
        table = build_moment_table(y, r_max)  # validates y
    elif table.y != y or table.r_max < r_max:
        raise InvalidParameterError("supplied moment table does not match y/r_max")
    consts = _engine_consts(y, z, table)

    parts = []
    if threads > 1:
        tasks = _split_tasks(consts[1], z)
        # the fork pool starts every worker up front: no more workers than
        # usable cores, nor than tasks (and so batches) to hand them
        threads = min(threads, _usable_cpus(), len(tasks))
    if threads == 1:
        parts.append(_run_tasks(consts, [(1, 0, True)], progress, flush_every, t_start))
    else:
        nb = min(len(tasks), threads * 8)
        batches = [tasks[i::nb] for i in range(nb)]
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(
            max_workers=threads,
            mp_context=ctx,
            initializer=_worker_init,
            initargs=(consts,),
        ) as ex:
            futures = [ex.submit(_worker_run, b) for b in batches]
            reported = 0
            for fut in futures:  # merge in submit order
                parts.append(fut.result())
                if progress is not None:
                    lo, up_cells, cov_dn, _, pairs = _merge(parts)
                    # a batch ends at no particular pair count: flush when
                    # this merge crossed a multiple of flush_every
                    flush = bool(flush_every) and pairs // flush_every > reported // flush_every
                    reported = pairs
                    progress(ProgressEvent(
                        pairs=pairs,
                        current_a=0,
                        lower=lo,
                        upper=_upper_with_tail(up_cells, cov_dn),
                        covered=cov_dn,
                        flush=flush,
                    ))

    lo, up_cells, cov_dn, cov_up, pairs = _merge(parts)
    upper = _upper_with_tail(up_cells, cov_dn)
    if lo > upper:
        raise AssertionError("certified bracket inverted; this is a bug")
    return BoundReport(
        y=y,
        z=z,
        r_max=r_max,
        threads=threads,
        lower_total=DirScalar(lo, DOWN),
        upper_total=DirScalar(upper, UP),
        covered_lo=DirScalar(cov_dn, DOWN),
        covered_hi=DirScalar(cov_up, UP),
        pair_count=pairs,
        elapsed_seconds=time.perf_counter() - t_start,
    )


def _upper_with_tail(up_cells: float, cov_dn: float) -> float:
    """UP bound on the whole density: the enumerated cells' upper sum plus
    the unenumerated tail 1 - covered, capped at 1."""
    return min(up_add(up_cells, up_sub(1.0, cov_dn)), 1.0)


def _merge(parts):
    lo = 0.0
    up = 0.0
    cd = 0.0
    cu = 0.0
    n = 0
    for l, u, c1, c2, k in parts:
        lo = dn_add(lo, l)
        up = up_add(up, u)
        cd = dn_add(cd, c1)
        cu = up_add(cu, c2)
        n += k
    # DOWN sums of densities (a zero part still nudges below 0): clamping
    # them at 0 is safe
    return max(lo, 0.0), up, max(cd, 0.0), cu, n


def enumerate_cells(y: int, z: int):
    """Yield (a, b) FactoredSmooth pairs of every cell with ab <= z.

    Test/oracle surface; run_bounds does its own fused walk for speed.
    """
    from .arith import iter_smooth

    if z < 2:
        raise InvalidParameterError(f"z must be >= 2, got {z}")
    pt = sieve_primes(y)
    odd = pt.odd()
    for a in iter_smooth(odd, z):
        a_primes = set(a.prime_set())
        rest = [p for p in odd if p not in a_primes]
        limit = z // a.value
        if limit < 2:
            continue
        e2 = 1
        v2 = 2
        while v2 <= limit:
            for m in iter_smooth(rest, limit // v2):
                factors = tuple(sorted(((2, e2),) + m.factors))
                yield a, FactoredSmooth(v2 * m.value, factors)
            v2 *= 2
            e2 += 1
