"""Reference implementations the tests compare the library against.

None of this runs in the library: these are slow, direct forms of what the
production path computes in bulk (cells one at a time, moment bounds one
order at a time, per-cell r searches, exact divisor sums).
"""
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

import numpy as np

from sigbound.arith import primes_upto
from sigbound.dirround import (
    DOWN,
    UP,
    DirScalar,
    dn_mul,
    dn_sub,
    next_up,
    pow_dn,
    ratio_dn,
    ratio_up,
    ulp_dn,
    ulp_up,
    up_add,
    up_div,
    up_mul,
)
from sigbound.engine import _Rows, _grid
from sigbound.errors import InvalidParameterError
from sigbound.moments import _TAIL_RATE, _mid_primes, check_y


def ratio_grids_per_r(table, q=None):
    """The ratio curves at the ratios q (the engine's grid when q is None),
    returned as (q, ru, rl), in their direct form: q^r is stepped at every
    point and order, clamped at 1e300, and both curves are updated inside
    the r loop.

    `moments.bound_curves` returns ru alone (the engine forms rl =
    ulp_dn(1 - ru) where it reads it), spreads the capped candidates with
    one running min, stops carrying q^r past a cap crossing once no later
    order has a smaller capped candidate, and steps q^r and q^r - 1 without
    a clamp; all of that must leave every bit as this form has it. The
    engine reads the curves under the symmetry cap (see symmetry_capped).
    """
    vals = table.values
    inf = np.inf
    if q is None:
        q = _grid()
    qr = q.copy()
    ru = np.ones(q.size)
    rl = np.zeros(q.size)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for r in range(1, table.r_max + 1):
            lam = vals[r]
            if not math.isfinite(lam):
                break
            if r > 1:
                qr = np.minimum(np.nextafter(qr * q, 0.0), 1e300)
            num = next_up(lam - 1.0)
            cap = 1e9 * lam if math.isfinite(1e9 * lam) else 1e300
            qe = np.minimum(qr, cap)
            den = np.nextafter(qe - 1.0, -inf)
            ok = den > 0.0
            cand = np.where(ok, np.nextafter(num / den, inf), inf)
            np.minimum(ru, cand, out=ru)
            f = np.nextafter(1.0 - cand, -inf)
            np.maximum(rl, np.where(ok, f, 0.0), out=rl)
    return q, ru, rl


def naive_sigma_upto(n):
    """sigma(0..n) as a list (entry 0 is 0), by adding every divisor to its
    multiples."""
    out = [0] * (n + 1)
    for d in range(1, n + 1):
        for m in range(d, n + 1, d):
            out[m] += d
    return out


# ---------------------------------------------------------------------------
# directed kernels only the references use
# ---------------------------------------------------------------------------

def up_sub(x, y):
    return math.nextafter(x - y, math.inf)


def dn_div(x, y):
    return math.nextafter(x / y, -math.inf)


def pow_up(x, r):
    """x**r for x >= 0, r >= 0, every multiply nudged UP."""
    result = 1.0
    base = x
    e = r
    while e:
        if e & 1:
            result = math.nextafter(result * base, math.inf)
        e >>= 1
        if e:
            base = math.nextafter(base * base, math.inf)
    return result


def flt_dn(n):
    """Largest double <= n (int-to-float conversions round to nearest)."""
    f = float(n)
    return f if f <= n else math.nextafter(f, -math.inf)


def bincount_sum(x):
    """`dirround.exact_sum` of the finite doubles x >= +0.0 (an integer
    count of 2**-1074) by exponent buckets: each element is m * 2**e with m
    the frexp mantissa, and M = m * 2**53, an integer below 2**53, is cut
    into M = hi * 2**26 + lo. np.bincount sums hi and lo per exponent e,
    exactly for fewer than 2**26 terms (each bucket stays below 2**53), and
    the buckets join into one Python int, shifted by the smallest exponent
    into units of 2**-1074 (a right shift, for subnormals, drops only zero
    bits). `dirround.exact_sum` sums by extraction instead."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return 0
    m, e = np.frexp(x)
    t = m * 2.0**27  # exact: a power-of-two scaling
    hi = np.floor(t)
    lo = (t - hi) * 2.0**26  # exact: the fraction bits of t
    e_min = int(e.min())
    e -= e_min
    hi_sums = np.bincount(e, weights=hi)
    lo_sums = np.bincount(e, weights=lo)
    total = 0
    for k in np.flatnonzero(hi_sums).tolist():
        total += ((int(hi_sums[k]) << 26) + int(lo_sums[k])) << k
    shift = e_min - 53 + 1074
    return total << shift if shift >= 0 else total >> -shift


_E_UP = math.nextafter(math.e, math.inf)


def exp_up_wide(v):
    """Upper bound on e^v for one v >= 0, the scalar form of
    `dirround.exp_up`: halve into [0, 1/16], sum the degree-8 Taylor
    polynomial plus the remainder bound e*v^9/9!, then square."""
    if v < 0.0:
        raise InvalidParameterError(f"exp_up_wide needs v >= 0, got {v}")
    if math.isinf(v):
        return math.inf
    k = 0
    while v > 0.0625:
        v *= 0.5
        k += 1
    s = up_div(v, 8.0)
    for d in (7.0, 6.0, 5.0, 4.0, 3.0, 2.0):
        s = up_mul(up_add(s, 1.0), up_div(v, d))
    s = up_add(up_mul(up_add(s, 1.0), v), 1.0)
    v3 = up_mul(up_mul(v, v), v)
    v9 = up_mul(up_mul(v3, v3), v3)
    s = up_add(s, up_div(up_mul(_E_UP, v9), 362880.0))
    for _ in range(k):
        s = up_mul(s, s)
    return s


def tail_factor(r):
    """UP bound on exp(1.6623114e-6 * r), the tail correction of order r."""
    rate = ratio_up(_TAIL_RATE.numerator, _TAIL_RATE.denominator)
    return exp_up_wide(up_mul(rate, float(r)))


# ---------------------------------------------------------------------------
# exact arithmetic on factorizations
# ---------------------------------------------------------------------------

def sigma(f):
    """Sum of divisors from a factorization, (p, e) pairs: the product of
    (p^(e+1)-1)/(p-1)."""
    s = 1
    for p, e in f:
        s *= (p ** (e + 1) - 1) // (p - 1)
    return s


def abundancy(f):
    """sigma(n)/n in lowest terms; equals 1 only for n = 1."""
    n = 1
    for p, e in f:
        n *= p**e
    return Fraction(sigma(f), n)


def factorize(n):
    """Trial-division factorization of a small n >= 1, as (p, e) pairs with
    p increasing; () for 1."""
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
    return tuple(factors)


def split_smooth(n, primes):
    """n = s * c with s built from `primes` and c coprime to them, as (s, c):
    c is 1 exactly when n is smooth over `primes`."""
    s = 1
    for p in primes:
        while n % p == 0:
            n //= p
            s *= p
    return s, n


def primorial(y):
    """The product of the primes <= y."""
    return math.prod(primes_upto(y).tolist())


def iter_smooth(primes, limit):
    """Every integer in [1, limit] whose prime factors all lie in `primes`,
    each once, in no promised order."""
    if limit < 1:
        raise InvalidParameterError(f"smooth enumeration limit must be >= 1, got {limit}")
    plist = sorted(set(primes))
    if plist and plist[0] < 2:
        raise InvalidParameterError("prime list contains a non-prime entry < 2")

    def rec(start, value):
        yield value
        for j in range(start, len(plist)):
            p = plist[j]
            v = value * p
            if v > limit:
                break
            while v <= limit:
                yield from rec(j + 1, v)
                v *= p

    yield from rec(0, 1)


def _concat(parts: list) -> _Rows:
    return _Rows(*(np.concatenate(cols, axis=-1) for cols in zip(*parts)))


def smooth_rows(odd, limit, even, f0_dn, f0_up, budget=None, classes=0):
    """The smooth-number table of `engine._smooth_rows` (same arguments and
    result), built the direct way: every column of every row is extended
    prime by prime, each prime's table re-concatenated from the last one's,
    and all six columns sorted at the end by class (the mask bits of the
    first `classes` primes used) and then by value, in one lexsort.

    `engine._smooth_rows` builds the values first and writes each other
    column once, in sorted order; every byte of its result must equal this.
    """
    if even:
        pows = [2**e for e in range(1, limit.bit_length())]
        value = np.array(pows, dtype=np.int64)
        d_dn = np.array([f0_dn / v for v in pows])
        d_up = np.array([f0_up / v for v in pows])
        h_dn = np.array([ratio_dn(2 * v - 1, v) for v in pows])
        h_up = np.array([ratio_up(2 * v - 1, v) for v in pows])
    else:
        value = np.ones(1, dtype=np.int64)
        d_dn, d_up = np.full(1, f0_dn), np.full(1, f0_up)
        h_dn = h_up = np.ones(1)
    n = value.size
    words = max(1, -(-len(odd) // 64))  # at least one mask word, as the engine keeps
    rows = _Rows(value, np.zeros((words, n), np.uint64), d_dn, d_up, h_dn, h_up)
    used = 0
    for j, p in enumerate(odd):
        bit = np.uint64(1 << (j % 64))
        parts = [rows]
        size = n
        pk = p
        while True:
            sel = np.flatnonzero(rows.value <= limit // pk)
            if not sel.size:
                break
            size += sel.size
            if budget is not None and size > budget:
                break
            mask = rows.mask[:, sel]
            mask[j // 64] |= bit
            value = rows.value[sel] * pk
            sig_dn, sig_up = ratio_dn(pk * p - 1, pk * (p - 1)), ratio_up(pk * p - 1, pk * (p - 1))
            parts.append(_Rows(
                value, mask,
                ulp_dn(rows.d_dn[sel] * ratio_dn(p - 1, (p - 2) * pk)),
                ulp_up(rows.d_up[sel] * ratio_up(p - 1, (p - 2) * pk)),
                ulp_dn(rows.h_dn[sel] * sig_dn),
                ulp_up(rows.h_up[sel] * sig_up),
            ))
            pk *= p
        if budget is not None and size > budget:
            break
        rows = _concat(parts)
        n = size
        used += 1
    rows = rows._replace(mask=rows.mask[: max(1, -(-used // 64))])
    cls = rows.mask[0] & np.uint64((1 << min(classes, used)) - 1)
    order = np.lexsort((rows.value, cls))
    return _Rows(*(col[..., order] for col in rows)), used


# ---------------------------------------------------------------------------
# cells one at a time, and their progressions
# ---------------------------------------------------------------------------

def enumerate_cells(y, z):
    """Yield the (a, b) of every cell with ab <= z, one at a time; run_bounds
    enumerates the same cells as chunks of table rows."""
    if z < 2:
        raise InvalidParameterError(f"z must be >= 2, got {z}")
    odd = primes_upto(y).tolist()[1:]
    for a in iter_smooth(odd, z):
        rest = [p for p in odd if a % p]
        limit = z // a
        v2 = 2
        while v2 <= limit:
            for m in iter_smooth(rest, limit // v2):
                yield a, v2 * m
            v2 *= 2


def _divides_exactly(pk, p, m):
    """Whether pk = p^v divides m and p^(v+1) does not."""
    return m % pk == 0 and m % (pk * p) != 0


def local_cell_density(a, b, y):
    """The density of the cell (a, b) as a product of local factors, one per
    prime p <= y: the share of the residues n mod p^(e+1), e the exponent of
    p in ab, with p^v || 2n+1 and p^w || 2n (v, w the exponents of p in a
    and b), counted one residue at a time. The residues of n modulo powers of
    distinct primes are independent (CRT), so the product is the density."""
    dens = Fraction(1)
    for p in primes_upto(y).tolist():
        pa = math.gcd(a, p**a.bit_length())  # p^v
        pb = math.gcd(b, p**b.bit_length())  # p^w
        mod = pa * pb * p
        hits = sum(1 for n in range(mod)
                   if _divides_exactly(pa, p, 2 * n + 1) and _divides_exactly(pb, p, 2 * n))
        dens *= Fraction(hits, mod)
    return dens


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


def solve_progression(a, b, t1, t2, modulus):
    """Solve for the n with (2n+1)/a == t1 and 2n/b == t2 modulo the primorial.

    Writing 2n+1 = ax and 2n = by forces ax - by = 1; threading the two
    congruences through the general solution shows the class is nonempty
    exactly when modulus | 1 - a*t1 + b*t2, and then it is an arithmetic
    progression with step a*b*modulus/2.
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
    # a * x0 == 1 (mod b) gives a particular solution of ax - by = 1
    x = t1 + P * pow(a, -1, b) * (c // P)
    step = a * b * P // 2
    n = ((a * x - 1) // 2) % step or step
    if (2 * n + 1) % a or ((2 * n + 1) // a - t1) % P or (2 * n) % b or ((2 * n) // b - t2) % P:
        raise AssertionError("progression construction is inconsistent")
    return ProgressionCell(a, b, t1, t2, P, True, n, step)


# ---------------------------------------------------------------------------
# per-cell moment bounds by a consecutive r search
# ---------------------------------------------------------------------------

# The symmetry cap of `sigbound.moments`: a cell's share is at most 1/2
# when h(b) > h(a), and at least 1/2 when h(a) > h(b).
SYMMETRY_CAP = 0.5


def symmetry_capped(q, ru, rl):
    """The curves (ru, rl) of ratio_grids_per_r at the ratios q under the
    symmetry cap, which holds where q > 1: there ru at most 1/2, and rl at
    least 1/2 stepped down."""
    above = q > 1.0
    return (np.where(above, np.minimum(ru, SYMMETRY_CAP), ru),
            np.where(above, np.maximum(rl, math.nextafter(1.0 - SYMMETRY_CAP, 0.0)), rl))


@dataclass(frozen=True)
class PairBound:
    """Certified per-cell bounds; r_* = 0 records that no moment order beat
    the symmetry cap (the trivial bound when h(a) = h(b))."""

    dens: Fraction
    lower: DirScalar
    upper: DirScalar
    r_lower: int
    r_upper: int


def _scan_best_ratio(q, vals, roots, r_max):
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
        den = dn_sub(min(qr, cap), 1.0)
        if den <= 0.0:
            continue
        cand = up_div(up_sub(lam, 1.0), den)
        if best is None or cand < best:
            best, best_r = cand, r
        elif r >= 2:
            break
    return best, best_r


def pair_bounds(dens, table, ha, hb):
    """Certified lower/upper bounds for the target-set share of one cell of
    exact density `dens`.

    With q the larger of hb/ha and ha/hb, the candidate at order r is
    dens * (M(r)-1)/(q^r-1), capped at dens/2, subtracted from the
    appropriate side; only the side whose abundancy dominates can beat the
    trivial bounds [0, dens].
    """
    dens_dn = ratio_dn(dens.numerator, dens.denominator)
    dens_up = ratio_up(dens.numerator, dens.denominator)
    vals = table.values
    roots = table.roots
    lower_v, r_lo = 0.0, 0
    upper_v, r_up = dens_up, 0
    if ha != hb:
        best, r = _scan_best_ratio(max(hb / ha, ha / hb), vals, roots, table.r_max)
        if best is None or best >= SYMMETRY_CAP:
            best, r = SYMMETRY_CAP, 0
        if hb > ha:
            upper_v, r_up = up_mul(dens_up, best), r
        else:
            lower_v, r_lo = max(dn_mul(dens_dn, dn_sub(1.0, best)), 0.0), r
    return PairBound(dens, DirScalar(lower_v, DOWN), DirScalar(upper_v, UP), r_lo, r_up)


# ---------------------------------------------------------------------------
# one moment bound at a time
# ---------------------------------------------------------------------------

def moment_upper(y, r, mids=None):
    """Upper bound for order r via the finite product over y < p < 65536.

    Factor at p: 1 + ((1+1/p)^r - 1)/p + r / ((p^4 - p^2) (1 - 1/p)^(r-1)),
    everything UP-directed (the denominator pieces DOWN-directed). Valid for
    r >= 1; build_moment_table routes r = 1 to the tighter closed form.
    """
    check_y(y)
    if r < 1:
        raise InvalidParameterError(f"moment order must be >= 1, got {r}")
    if mids is None:
        mids = _mid_primes(y)
    acc = 1.0
    for p in mids:
        u = pow_up(ratio_up(p + 1, p), r)
        t1 = up_div(up_sub(u, 1.0), float(p))
        w = pow_dn(ratio_dn(p - 1, p), r - 1)
        den = dn_mul(flt_dn(p**4 - p**2), w)
        if den <= 0.0:
            acc = math.inf
            break
        acc = up_mul(acc, up_add(1.0, up_add(t1, up_div(float(r), den))))
    return up_mul(acc, tail_factor(r))


# ---------------------------------------------------------------------------
# the fold of a prime's law into a bound curve, in exact arithmetic
# ---------------------------------------------------------------------------

def log2_floor(num, den, bits):
    """floor(2^bits log2(num/den)) for num > den > 0, exactly: the largest f
    with 2^f den^(2^bits) <= num^(2^bits)."""
    return (num ** (1 << bits) // den ** (1 << bits)).bit_length() - 1


def exact_fold(f, primes, bits, cutoff, tight):
    """The curve f, a non-increasing list on the log grid of step 2^-bits,
    folded with the law of each prime in exact arithmetic.

    The atoms +log h(p^k) and -log h(p^k) are kept for k <= K, K the last k
    with (1 - 1/p)/p^k >= cutoff, each read at the exact -ceil and +floor of
    2^bits log2 h(p^k) with its exact mass. The rest of each side, of mass
    1/p^(K+1), is read where it bounds the fold of every atom from below
    (tight False: + at atom K+1's offset, - at the floor of p/(p-1)'s) or
    from above (tight True: + at the ceil of p/(p-1)'s, - at atom K's).
    The curve reads 1 below the grid and its last point above it. Returns
    Fractions.
    """
    cur = [Fraction(v) for v in f]
    n = len(cur)
    for p in primes:
        law = {0: Fraction(p - 2, p)}
        pk = p
        while True:
            fl = log2_floor(pk * p - 1, pk * (p - 1), bits)  # h(p^k)
            for off in (-fl - 1, fl):
                law[off] = law.get(off, 0) + Fraction(p - 1, pk * p)
            if Fraction(p - 1, pk * p * p) < cutoff:
                break
            pk *= p
        lim = log2_floor(p, p - 1, bits)
        nxt = log2_floor(pk * p * p - 1, pk * p * (p - 1), bits)  # h(p^(K+1))
        rest = ((-lim - 1, fl) if tight else (-nxt - 1, lim))
        for off in rest:
            law[off] = law.get(off, 0) + Fraction(1, pk * p)
        cur = [sum(m * (1 if i + off < 0 else cur[min(i + off, n - 1)])
                   for off, m in law.items()) for i in range(n)]
    return cur
