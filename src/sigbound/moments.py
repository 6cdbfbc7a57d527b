"""Upper bounds on the mean of (sigma(n)/n)^r over totatives of the primorial.

For moment order r the engine needs a certified upper bound on the asymptotic
mean value of the r-th power of the abundancy along arithmetic progressions
coprime to all primes <= y. For r = 1 there is a closed form built from
zeta(2); for r >= 2 we evaluate a finite Euler-type product over the primes
strictly between y and 65536, times a fixed exponential correction covering
the discarded tail. Both the 65536 ceiling and the correction constant
1.6623114e-6 are inputs of the method and are not re-derived here, which is
why y must stay below the ceiling.

Every evaluation is UP-directed so the tabulated numbers are certificates.
A table holds an increasing tuple of orders, starting at 1, and one value
per order. The curve is a min over the orders, and the best order moves
slowly with q, so a run needs few of them: build_moment_table takes every
order up to _DENSE_ORDERS = 32 and then ceil(32 (21/20)^k) for k = 1, 2,
... below r_max, and r_max itself (moment_orders: 70 orders at r_max =
200, 89 at 500, 117 at 2000). The orders left out only drop candidates of
a min, so each bound stays a certificate and can only rise: each end of
the engine's bracket moved out by at most 1.0e-13 at r_max <= 500 and
4.4e-10 at 2000, at the settings measured (see _ORDER_RATIO). lambda asks
for every order 1..r_max.

The loop over the orders moves (1 + 1/p)^r UP and (1 - 1/p)^(r-1) DOWN
from one order to the next by the power of the gap: it multiplies by the
directed squares base^(2^j), one for each bit j of the gap, and steps
after each multiply. Each square is a chain of directed multiplies from
the directed base, and each multiply of two UP (DOWN) bounds of positive
numbers, stepped UP (DOWN), bounds their product, so the factor at every
order bounds its exact value just as the step by one factor did, and
values[k] still bounds the constant of order orders[k]. At a gap of 1 the
one square is the base itself: an every-order table has the bits of the
step-by-one loop. The loop steps its reused buffers by a bare +1 or -1 on
their int64 view, without the clamps of ulp_up / ulp_dn, which cannot act
before an order saturates (see _bulk_values); the tail factors of all
orders come from one dirround.exp_up pass.

bound_curves turns a table into the per-cell bound: min over its orders r
of (M(r)-1)/(q^r-1), at any non-decreasing array of ratios q > 1; the
lower bound is 1 minus it, stepped down, formed by the caller. The engine
evaluates it once, on its grid; it carries q^r from one order to the next
by the power of the gap, DOWN, in the same way, and only up to the cap
crossings it has seen, with no guess of where they fall.

The symmetry cap. The engine reads min(ru, 1/2) wherever q > 1, by this
lemma. Fix a cell (a, b), so 2n+1 = aA and 2n = bB with A, B free of the
primes <= y, and let X = log h(A) - log h(B) under the cell's density: the
cell's share of the target set is P(X >= log h(b)/h(a)).
1. Exchangeable atoms. The cell is a union of classes modulo a number M
   built from the primes <= y. For a prime p > y and k >= 1, p^k || 2n+1
   and p^k || 2n are each one class modulo p^k less one modulo p^(k+1),
   and p divides at most one of 2n+1 and 2n. By CRT (gcd(M, p) = 1) each
   has relative density (1 - 1/p)/p^k in the cell, and for distinct primes
   these conditions are independent of each other and of the cell. So the
   pair (v_p(2n+1), v_p(2n)) has the same law as (v_p(2n), v_p(2n+1)), and
   the pairs of distinct primes are independent.
2. X is symmetric. The truncation X_Y, the sum over the primes y < p <= Y
   of log h(p^v_p(2n+1)) - log h(p^v_p(2n)), is then a sum of independent
   symmetric terms, so X_Y and -X_Y have the same law. A prime p > Y
   divides 2n(2n+1) with density 2/p and then moves X by at most
   log(p/(p-1)) <= 1/(p-1), so E|X - X_Y| <= 2 sum_{p > Y} 1/(p(p-1)),
   which tends to 0: the same truncation-plus-tail limit the paper takes
   for the moments. So X_Y tends to X in law, and a limit in law of
   symmetric laws is symmetric: P(X > s) = P(X < -s) for every s.
3. The cap. For t > 0, P(X >= t) <= P(X > 0) = P(X < 0), and the two add to
   at most 1, so P(X >= t) <= 1/2. No continuity of the law is needed: an
   atom at 0 only lowers both sides.
4. The mirror. For t < 0, P(X >= t) = 1 - P(X < t) = 1 - P(-X > -t) >=
   1 - 1/2, by step 3 applied to -X, which has the same law. So an a-side
   cell, q < 1, reads the lower bound 1 - min(ru(w), 1/2) at w <= 1/q.
The cap needs q > 1 strictly: at q = 1 the share P(X >= 0) is at least
1/2, so the engine's curve stays at 1 on the ratios q <= 1 when it reads
the moment curve alone. bound_curves itself stays the moment bound,
uncapped: the cap is a property of X, not of the table.

The fold. fold_curve bounds the same share with a moment table at a level
Y2 > y, by this lemma. In a cell (a, b) at level y, split A = A1 A2 and
B = B1 B2, with A1 and B1 made of the primes in (y, Y2], so that
X = X1 + X2 with X1 = log h(A1) - log h(B1).
1. By step 1, X1 is a sum of independent per-prime terms, each 0 with mass
   1 - 2/p and +log h(p^k) or -log h(p^k) with mass (1 - 1/p)/p^k each
   (k >= 1), and X1 is independent of X2. Given (A1, B1), the pair
   (a A1, b B1) is a cell at level Y2, of which X2 is the X.
2. At level Y2, P(X2 >= s) <= g(s), with g(s) = min(ru(e^s), 1/2) for
   s > 0 (ru the moment curve of the Y2 table, and the cap at level Y2)
   and g(s) = 1 for s <= 0.
3. So P(X >= t) <= S(t) = sum_x P(X1 = x) g(t - x), and S is
   non-increasing. With the cap at level y, a cell reads min(S, 1/2) at
   q > 1.
4. The other side: by step 2, P(X < t) = P(X > -t) <= S(-t), so
   P(X >= t) >= 1 - S(-t). One curve gives both bounds of every cell,
   U = S(log q) and L = 1 - S(log w), on either side of q = 1.
fold_curve evaluates S UP on a grid of base-2 logs with one shift-add per
atom (see there); at Y2 = y there is nothing to fold.

The rounding of the fold. _fold folds law k, of m_k offsets, in m_k
round-to-nearest multiplies and m_k - 1 adds, with no directed step, and
multiplies the last curve by one slack 1 + 4 M u rounded UP, u = 2^-53 and
M = sum_k m_k. A point all of whose reads are 1s of the curve before it
(or the 1 below the grid) is set to 1 and not computed. This is the bound
for recursive summation of nonnegative terms (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., 2002, sec. 4.2), as
_bulk_values uses it across the primes. Let S_k be the fold of the first k
laws with their exact masses, which add to 1, so S_k <= 1 as the first
curve is at most 1.
1. One law. Its masses are the exact ones rounded UP, so the law is a
   linear map F_k with nonnegative coefficients, at least the map with the
   exact masses and monotone in the curve it reads (the 1 read below the
   grid included). A rounded multiply or add whose result is a normal
   double is the exact one times some 1 + d with |d| <= u. Each term meets
   one multiply and at most m_k - 1 adds, so at a computed point the
   rounded fold of a curve c is at least (1 - u)^m_k F_k(c).
2. By induction. Let the rounded curve c_(k-1) be at least (1 - u)^K
   S_(k-1), K the offsets of the laws before k (the 1 below the grid is at
   least (1 - u)^K too). At a computed point, as F_k is monotone,
   c_k >= (1 - u)^m_k F_k(c_(k-1)) >= (1 - u)^(K + m_k) S_k; at a point
   set to 1, c_k = 1 >= S_k.
3. The slack. (1 - u)^-M <= 1 + 2 M u while M u <= 1/2, so the slack, with
   a doubled margin as in _bulk_values, makes the last curve at least S.
Step 1 needs every product and partial sum to be a normal double or an
exact 0. Each law's masses add to at least 1, so no point of a curve falls
below (1 - u)^M times the least point of the first, and every partial sum
is at least one of its products. So it is enough that the least point of
the first curve times the least mass is at least 2^-1021 (twice 2^-1022,
the least normal double, for the (1 - u)^M); _fold checks this and raises
AssertionError if it fails, a bug. The first curve is at most 1 and each
mass sum exceeds 1 by rounding only, so no value comes near overflow.

The tail lemma. The engine charges the upper side by groups of cells, each
at one read of its curve U (non-increasing in q, and bounding the share of
every cell at q <= h(b)/h(a)), whether or not the cells are enumerated. The
cells of an odd y-smooth a are the (a, b) with b even, y-smooth and coprime
to a. Let G be the group primes, the first five odd primes <= y (fewer
for y < 13), and A the primes of G dividing a.
1. Mass. The cell density (2/ab) prod_{p|ab} (1-1/p) prod_{p∤ab} (1-2/p)
   factors over the primes. Summed over b, the power 2^k of 2 in b gives
   2^-k, and an odd p not dividing a gives
   (1 - 2/p) + sum_{j>=1} (1 - 1/p)/p^j = (1 - 2/p) + 1/p = 1 - 1/p,
   of which 1/p comes from the b that p divides. So the cells of a hold
   M(a) = (1/a) prod_{odd p<=y} (1 - 1/p), the M(a) add to 1 (the cells
   partition the integers), and, relative to M(a), the events v2(b) = k
   and p | b for the odd p not dividing a are independent, with
   P(v2(b) = k) = 2^-k, P(p | b) = (1/p)/(1 - 1/p) = 1/(p-1) and
   P(p ∤ b) = (1 - 2/p)/(1 - 1/p) = (p-2)/(p-1). A p of A divides no b.
2. The groups. Group the cells of a by (k, C), k = min(v2(b), K) and C the
   set of primes of G dividing b. Group (k, C) holds M(a) w(k, C), with
   w(k, C) = 2^-k (2^-(K-1) at k = K) prod_{p in C} 1/(p-1)
   prod_{p in G, p not in C or A} (p-2)/(p-1),
   and nothing where C meets A. For each A the w add to 1: the factors of
   k and of each p of G outside A are laws that add to 1.
3. One read per group. h is multiplicative, at least 1, and h(p^j) grows
   with j. In a cell of group (k, C), 2^k and each p in C divide b, so
   h(b) >= h(2^k) prod_{p in C} h(p) = H(k, C), with h(p) = (p+1)/p, and
   q = h(b)/h(a) >= H(k, C)/h(a). U is non-increasing, so its read c at
   H(k, C)/h(a) bounds the share of every cell of the group.
4. The charge. A cell's share is at most its group's c and at most its own
   read ru, so at most min(c, ru) = c - max(0, c - ru). So the density is
   at most sum_groups M w c - sum_{enumerated cells} dens max(0, c - ru)
   + (1 - sum_a M(a)), where the last term charges the a left out at 1.
   The bound holds as well with any c' <= c in the saving, as
   c - max(0, c' - ru) >= min(c, ru), but not with a c' > c: a cell must
   read its group at the charge's ratio or above it.
The engine takes K = 3, the a <= z // 2, which hold every cell with ab <= z
(b >= 2), and rounds w UP and H DOWN. Where its b table leaves odd primes
to the a side, the engine enumerates the cells of an a on several rows, one
per odd part t of b built from those primes; every such row reads a's
groups, each cell that of its own b, and a's charge is taken once. G is
fixed by y alone, so the split moves no group.

The lower tail lemma. The engine charges the lower side by groups of
cells too, each at one read of its curve L (non-decreasing in w, and
bounding the share of every cell at w <= h(a)/h(b) from below). Take a,
G, A and the groups (k, C) as in the tail lemma, and let P be the odd
primes <= y outside G that do not divide a; the odd primes of a b outside
G are in P, as b is coprime to a.
1. The rest bit. Split each group (k, C) by R, whether b has a prime of
   P. By step 1 of the tail lemma, relative to M(a) w(k, C) the events
   p ∤ b for p in P are independent of each other and of (k, C), each of
   probability (p-2)/(p-1). So R = {} holds the share
   rho(a) = prod_{p in P} (p-2)/(p-1) of the group and R != {} the rest,
   1 - rho(a); with P empty, R != {} holds no cell.
2. A bound on h(b). h(2^j) = 2 - 2^-j < 2 and h(p^j) < p/(p-1) for odd p.
   A b of (k, C, {}) is 2^j, with j = k for k < K and j >= K at k = K,
   times powers of the primes of C, so h(b) <= Hx(k, C) =
   h+(2^k) prod_{p in C} p/(p-1), h+(2^k) = h(2^k) for k < K and 2 at
   k = K. A b of (k, C, R != {}) may hold powers of the primes of P too,
   so h(b) <= Hx(k, C) rest(a), rest(a) = prod_{p in P} p/(p-1).
3. One read per group. So w = h(a)/h(b) >= h(a)/Hx(k, C) on R = {} and
   >= hl(a)/Hx(k, C) on R != {}, hl(a) = h(a)/rest(a). L is
   non-decreasing, so its read l there bounds the share of every cell of
   the group from below.
4. The charge. A cell's share is at least its group's l and at least its
   own read rl, so at least max(l, rl) = l + max(0, rl - l). So the
   density is at least sum_groups M w rho_R l + sum_{enumerated cells}
   dens max(0, rl - l), rho_R = rho(a) for R = {} and 1 - rho(a) for
   R != {}, over the a <= z // 2; the cells of the a left out count at 0.
   The bound holds as well with any l' >= l in a cell's term, as
   l + max(0, rl - l') <= max(l, rl), but not with an l' < l: a cell must
   read its group at the charge's ratio or above it.
The engine rounds the masses M rho_R and w DOWN (the mass of R != {} as
M - M rho, each rounded to its side), Hx UP and h(a) and hl(a) DOWN. A
group charged at 0 is sound too, so the engine forms the charges of the
groups whose read can be above 0 alone.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .arith import primes_upto
from .dirround import (
    LN2_UP,
    ZETA2_UP,
    dn_sub,
    exp_up,
    log_up,
    next_up,
    pow_dn,
    ratio_dn,
    ratio_up,
    ulp_dn,
    ulp_up,
    up_div,
    up_mul,
)
from .errors import InvalidParameterError, UnsupportedParameterError

PRIME_CEILING = 65536

# Highest moment order a table accepts. The tail correction stops bounding the
# primes above the ceiling near r = 70,000 (a float64 check, not a proof);
# 10,000 keeps a wide margin below that and bounds the work for any r_max.
MAX_ORDER = 10_000

# Tail correction per unit moment order, exp(_TAIL_RATE * r).
_TAIL_RATE = Fraction(16623114, 10**13)  # 1.6623114e-6

# The orders of a table run_bounds builds (see moment_orders): every order
# up to _DENSE_ORDERS, then the ceilings of _DENSE_ORDERS _ORDER_RATIO^k,
# distinct only while _DENSE_ORDERS (_ORDER_RATIO - 1) >= 1. Against the
# every-order table, each end of run_bounds' bracket moved out by at most
# 7.6e-14 at (y, z, r_max) = (31, 1e8, 200), 1.0e-13 at (353, 1e5, 500),
# 4.2e-10 at (13, 1e9, 2000), 3.2e-10 at (2, 1e15, 2000) and 4.4e-10 at
# (31, 1e8, 2000). Distinct ceilings at a ratio of 1.02 cut these moves
# 3-4x, with 1.7-2x the orders.
_DENSE_ORDERS = 32
_ORDER_RATIO = Fraction(21, 20)

# The grid of fold_curve: point i is log2 q = i 2^-_LOG_BITS, for
# |i| <= _LOG_HALF = 2^(_LOG_BITS + 1), so log2 q spans [-2, 2] (the ratios
# [1/4, 4]) in 2^(_LOG_BITS + 2) + 1 points.
_LOG_BITS = 13
_LOG_HALF = 2 << _LOG_BITS

# A folded prime's atoms past the first stop below this mass; the rest of
# each side is read where it bounds them all (see _law).
_FOLD_CUTOFF = Fraction(1, 2**60)


@dataclass(frozen=True)
class MomentTable:
    """Per-order certified upper bounds, as floats rounded UP.

    orders is strictly increasing and starts at 1; values[k] bounds the
    moment-mean constant of order orders[k] and roots[k] its r-th root. A
    non-finite value marks an order whose bound overflowed and must not be
    used (the engine then falls back to trivial cell bounds); the orders
    after it overflow too.
    """

    y: int
    orders: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        orders = self.orders
        if (not orders or orders[0] != 1 or len(self.values) != len(orders)
                or any(a >= b for a, b in zip(orders, orders[1:]))):
            raise InvalidParameterError(
                "a moment table needs increasing orders from 1, one value each")

    @property
    def r_max(self) -> int:
        """The largest order."""
        return self.orders[-1]

    @cached_property
    def roots(self) -> tuple[float, ...]:
        """The r-th roots of the values, computed on first access: the
        engine never reads them."""
        vals = self.values
        roots = [vals[0]] + [math.inf] * (len(vals) - 1)
        live = [k for k in range(1, len(vals)) if math.isfinite(vals[k])]
        expo = [up_div(log_up(max(vals[k], 1.0)), float(self.orders[k])) for k in live]
        for k, root in zip(live, exp_up(expo).tolist()):
            r, v = self.orders[k], max(vals[k], 1.0)
            # certify root^r >= value by DOWN-powering; bump if rounding fell short
            while pow_dn(root, r) < v:
                root = next_up(root)
            roots[k] = root
        return tuple(roots)


def check_y(y: int) -> None:
    """Reject a smoothness bound outside [2, PRIME_CEILING)."""
    if y < 2:
        raise InvalidParameterError(f"smoothness bound must be >= 2, got {y}")
    if y >= PRIME_CEILING:
        raise UnsupportedParameterError(
            f"smoothness bound must stay below {PRIME_CEILING}, got {y}"
        )


def _mid_primes(y: int) -> tuple[int, ...]:
    """Primes strictly between y and the ceiling."""
    return tuple(p for p in primes_upto(PRIME_CEILING - 1).tolist() if p > y)


def moment_r1_exact(y: int) -> float:
    """Upper bound for order 1: zeta(2) times prod_{p <= y} (1 - 1/p^2).

    Each factor is below 1, so the factor itself is rounded UP to keep the
    running product an upper bound.
    """
    acc = ZETA2_UP
    for p in primes_upto(y).tolist():
        acc = up_mul(acc, ratio_up(p * p - 1, p * p))
    return acc


def moment_orders(r_max: int) -> tuple[int, ...]:
    """The orders of the table run_bounds builds at r_max: every order up to
    _DENSE_ORDERS, then ceil(_DENSE_ORDERS _ORDER_RATIO^k) for k = 1, 2,
    ... below r_max, then r_max. Each ceiling is exact, and they are
    distinct, as the products grow by at least 1.6 a step."""
    orders = list(range(1, min(r_max, _DENSE_ORDERS) + 1))
    num, den = _ORDER_RATIO.numerator, _ORDER_RATIO.denominator
    k = 1
    while orders[-1] < r_max:
        orders.append(min(r_max, -(-_DENSE_ORDERS * num**k // den**k)))
        k += 1
    return tuple(orders)


def _tail_factors(orders) -> np.ndarray:
    """UP bounds on exp(_TAIL_RATE * r) for each r of orders, in one array."""
    rate = ratio_up(_TAIL_RATE.numerator, _TAIL_RATE.denominator)
    return exp_up(ulp_up(rate * np.asarray(orders, dtype=np.float64)))


def _bulk_values(orders: tuple[int, ...], mids: tuple[int, ...]) -> list[float]:
    """Vectorized product over the mid primes at every order of orders
    (increasing, from 1), past the first; the first value is nan.

    The per-element factor construction takes a one-ULP step after each
    operation, as the scalar reference in tests/oracles.py does. From one
    order to the next, u = (1+1/p)^r and w = (1-1/p)^(r-1) are multiplied
    by the directed squares base^(2^j) of the bits j of the gap, in
    increasing j, each multiply stepped (see the module docstring); at a
    gap of 1 that is one multiply by the base. The setup, the squares
    included, steps through the clamped ulp_up / ulp_dn; the steps in the
    loop are bare, a +1 or -1 on the int64 view of a reused buffer. A bare
    step equals the clamped one everywhere but at +inf (up) and +0.0
    (down), where it gives a NaN instead of holding the value. Every value
    in the loop stays finite and above +0.0 up to the first order whose
    product is not finite, so there the bits are those of the clamped steps.
    That order is the one where (1+1/p)^r overflows (a square may be +inf
    already), (1-1/p)^(r-1) underflows to +0.0 (so r/den overflows), or f
    or the product overflows. There the clamped steps give +inf where the
    bare ones give a NaN; every buffer reaches f through arithmetic, so
    either one makes the product non-finite, and the same order saturates.

    The reduction across primes uses round-to-nearest multiplies, so the
    result is inflated by (1+u)^(m-1) <= 1 + 2(m-1)u (u = 2^-53, m*u << 1),
    with a doubled margin for safety. The products, that slack and the tail
    factors meet in one array pass after the loop.
    """
    tails = _tail_factors(orders)
    if not mids:
        values = tails.tolist()
        values[0] = math.nan
        return values
    prods = np.full(len(orders), np.inf)  # the orders the loop leaves saturate
    p = np.array(mids, dtype=np.float64)  # mid primes are exact in a double
    inv_up = ulp_up(1.0 / p)
    base_up = ulp_up(1.0 + inv_up)  # >= 1 + 1/p
    base_dn = ulp_dn(1.0 - inv_up)  # <= 1 - 1/p
    p2 = p * p  # exact, p < 2^16
    p4_dn = ulp_dn(p2 * p2)
    pden_dn = ulp_dn(p4_dn - p2)  # <= p^4 - p^2
    slack = 1.0 + 4.0 * len(mids) * 2.0**-53
    gaps = [r - s for s, r in zip(orders, orders[1:])]
    squares = [(base_up, base_dn)]  # base^(2^j), UP and DOWN
    with np.errstate(over="ignore", under="ignore"):
        for _ in range(1, max(gaps, default=1).bit_length()):
            up, dn = squares[-1]
            squares.append((ulp_up(up * up), ulp_dn(dn * dn)))
    u = base_up.copy()  # (1+1/p)^r, UP, currently r = 1
    w = np.ones_like(p)  # (1-1/p)^(r-1), DOWN, currently r = 1
    t1 = np.empty_like(p)
    t2 = np.empty_like(p)
    f = np.empty_like(p)
    u_b, w_b, t1_b, t2_b, f_b = (a.view(np.int64) for a in (u, w, t1, t2, f))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i, (r, gap) in enumerate(zip(orders[1:], gaps), 1):
            for j, (up, dn) in enumerate(squares):
                if gap >> j & 1:
                    np.multiply(u, up, out=u)
                    u_b += 1  # u > 1; NaN once u overflows
                    np.multiply(w, dn, out=w)
                    w_b -= 1  # w > 0; NaN once w underflows to +0.0
            np.subtract(u, 1.0, out=t1)
            t1_b += 1  # u - 1 > 0, as u >= 1 + 1/p
            np.divide(t1, p, out=t1)
            t1_b += 1  # finite and > 0 while u is finite
            np.multiply(pden_dn, w, out=t2)  # den
            t2_b -= 1  # den >= w > 0, as pden_dn > 1
            np.divide(float(r), t2, out=t2)  # t2 = r / den
            t2_b += 1  # NaN once r / den overflows
            np.add(t1, t2, out=f)
            f_b += 1  # t1 + t2 > 0; NaN once it overflows
            f += 1.0
            f_b += 1  # as for t1 + t2
            prod = float(np.multiply.reduce(f))
            if not math.isfinite(prod):
                # each directed step is monotone, so every factor, and
                # with it the product, only grows with r: all later
                # orders overflow too
                break
            prods[i] = prod
    ulp_up(np.multiply(prods, slack, out=prods))
    values = ulp_up(np.multiply(prods, tails, out=prods)).tolist()
    values[0] = math.nan
    return values


def build_moment_table(y: int, r_max: int, every_order: bool = False) -> MomentTable:
    """Tabulate the orders of moment_orders(r_max), or every order 1..r_max
    with every_order, once; the table is immutable afterwards."""
    check_y(y)
    if r_max < 1:
        raise InvalidParameterError(f"r_max must be >= 1, got {r_max}")
    if r_max > MAX_ORDER:
        raise UnsupportedParameterError(
            f"r_max must be at most {MAX_ORDER}, got {r_max}"
        )
    orders = tuple(range(1, r_max + 1)) if every_order else moment_orders(r_max)
    values = _bulk_values(orders, _mid_primes(y))
    values[0] = moment_r1_exact(y)
    return MomentTable(y=y, orders=orders, values=tuple(values))


def _carry_power(x: np.ndarray, q: np.ndarray, gap: int, square: np.ndarray) -> None:
    """x times q^gap, in place, DOWN, for x >= 1 and q > 1 of one size:
    one multiply by each square q^(2^j) of the bits j of gap, in increasing
    j, each square the last one squared into `square`, a buffer of the same
    size; every multiply takes a bare step down on the int64 view. At a
    gap of 1 that is one multiply by q. No value is +0.0, the one value
    where ulp_dn's clamp acts: each is at least q > 1 (+inf steps to the
    largest finite double either way)."""
    x_b, sq_b = x.view(np.int64), square.view(np.int64)
    power = q
    while True:
        if gap & 1:
            np.multiply(x, power, out=x)
            x_b -= 1
        gap >>= 1
        if not gap:
            return
        np.multiply(power, power, out=square)
        sq_b -= 1
        power = square


def bound_curves(table: MomentTable, q: np.ndarray) -> np.ndarray:
    """The bound-ratio curve ru at the ratios q.

    q is a non-decreasing float64 array with q[0] > 1. For each q[i] and any
    cell ratio q' >= q[i], min_r (M(r)-1)/(q'^r-1) <= ru[i] over the
    table's orders r, because the expression is monotone in q'. On the
    engine's grid one lookup per cell then replaces the whole r search, at
    a tightness cost bounded by the grid spacing (at most 2^-16 relative).
    The lower bound needs no curve of its own: 1 - c stepped down is
    monotone in c, so the best lower candidate belongs to the best upper
    one, and max_r (1 - (M(r)-1)/(q'^r-1)) >= ulp_dn(1 - ru[i]), which a
    caller forms where it reads it (ru <= 1, and ru = 1 gives +0.0).

    Order r caps q^r at c_r = min(1e9 M(r), 1e300). q^r is rounded down and
    non-decreasing along q, so the points where it reaches c_r form a
    suffix, and there the candidate is the one scalar s_r =
    (M(r)-1)/(c_r-1) (+inf if c_r - 1 steps down to <= 0); it goes to the
    first point k of the suffix in `tail`, and one running min spreads the
    scalars after the loop. No candidate of an order is below its s_r, so
    if no later order has a smaller s, none can lower ru past k, and q^r is
    carried on the points before k only. M(r) of a built table never
    falls, so there every crossing shrinks the prefix.

    q^r moves from one order to the next by the power of the gap (see
    _carry_power), with bare steps down, and so does the square it uses;
    q^r - 1 steps down bare too, as q^r - 1 >= q[0] - 1 > 0, exactly, is
    never +0.0, where alone the clamp of ulp_dn acts. The quotient
    (M(r)-1)/(q^r-1) may overflow, so it steps through the clamped ulp_up,
    which holds +inf.

    Returns ru, non-increasing and at most 1.
    """
    n = q.size
    orders = table.orders
    # orders only saturate upward: stop at the first non-finite one
    lam = np.array(table.values)
    stop = np.flatnonzero(~np.isfinite(lam))
    if stop.size:
        lam = lam[: stop[0]]
    with np.errstate(over="ignore"):  # 1e9 M(r) may overflow; the cap holds
        cap = np.minimum(1e9 * lam, 1e300).tolist()
    nums = [next_up(v - 1.0) for v in lam.tolist()]
    scalars = [up_div(num, d) if (d := dn_sub(c, 1.0)) > 0.0 else math.inf
               for num, c in zip(nums, cap)]
    # later[i]: the least capped scalar of the orders after order i
    later = np.minimum.accumulate([math.inf, *scalars[:0:-1]])[::-1].tolist()
    qr = q.copy()  # q^r rounded down, on the prefix still read
    ru = np.ones(n)
    # tail[k]: the least capped scalar of the orders whose capped suffix
    # starts at point k
    tail = np.ones(n)
    cand = np.empty(n)
    square = np.empty(n)  # the squares q^(2^j) of a gap past 1
    cand_b = cand.view(np.int64)
    m = n
    with np.errstate(over="ignore"):  # q^r and num / d may overflow
        for i, (num, c, s) in enumerate(zip(nums, cap, scalars)):
            if i:
                _carry_power(qr[:m], q[:m], orders[i] - orders[i - 1], square[:m])
            k = int(np.searchsorted(qr[:m], c))  # qr[:k] < c <= qr[k:m]
            cd = cand[:k]
            np.subtract(qr[:k], 1.0, out=cd)
            # bare step down: q^r - 1 >= q[0] - 1 > 0, exactly, so the
            # stepped d is above +0.0
            cand_b[:k] -= 1
            np.divide(num, cd, out=cd)
            # clamped: num / d may overflow to +inf, which must stay +inf
            ulp_up(cd)
            np.minimum(ru[:k], cd, out=ru[:k])
            if k < m:
                tail[k] = min(tail[k], s)
                if s <= later[i]:  # no later order can lower ru past k
                    m = k
    np.minimum.accumulate(tail, out=tail)
    np.minimum(ru, tail, out=ru)
    return ru


def _pow2_bounds(bits: int, n: int):
    """(lo, hi), increasing, with lo[k] <= 2^(i 2^-bits) <= hi[k] for
    i = k - n in -n .. n.

    With e[j] >= 2^(j 2^-bits) from exp_up for j = 0 .. 2^bits, made
    non-decreasing, hi is 2^d e[j] and lo is 2^(d+1) times 1 / e[2^bits -
    j], stepped down, for i = d 2^bits + j.
    """
    one = 1 << bits
    e = exp_up(ulp_up(np.arange(one + 1) * (LN2_UP / one)))  # one: a power of 2
    e[0], e[one] = 1.0, 2.0
    np.maximum.accumulate(e, out=e)
    i = np.arange(-n, n + 1)
    d, j = i >> bits, i & (one - 1)
    return np.ldexp(ulp_dn(1.0 / e[one - j]), d + 1), np.ldexp(e[j], d)


def _law(p: int, lo: np.ndarray, hi: np.ndarray, cutoff: Fraction):
    """The term of the prime p in X1 (see the fold lemma) on a log grid, as
    ((offset, mass), ...), offsets increasing; lo and hi bound 2^(i delta)
    for i = 0, 1, ... as _pow2_bounds does.

    The atom +log h(p^k) is read at offset -c, c the least with lo[c] >=
    h(p^k), and -log h(p^k) at +f, f the largest with hi[f] <= h(p^k): each
    at a grid point at or below its exact one, where the curve it reads is
    no lower. Atoms at one offset share one mass, their exact sum rounded
    UP. h(p^k) rises to p/(p-1), so every + atom may also be read at the c
    of p/(p-1), and every - atom past k at k's offset. The atoms stop at the
    first k whose offsets reach those of p/(p-1), or after it whose mass
    (1 - 1/p)/p^(k+1) is below cutoff; the rest of each side, of mass
    1/p^(k+1), is read at the c of p/(p-1) and at k's f.
    """
    lim = ratio_up(p, p - 1)
    c_lim, f_lim = bisect_left(lo, lim), bisect_right(hi, lim) - 1
    atoms = []  # (offset, p^k)
    c = f = 0
    pk = p
    while True:
        num, den = pk * p - 1, pk * (p - 1)  # h(p^k) = num / den
        if c < c_lim:
            c = bisect_left(lo, ratio_up(num, den))
        if f < f_lim:
            f = bisect_right(hi, ratio_dn(num, den)) - 1
        atoms += [(-c, pk), (f, pk)]
        if c == c_lim and f == f_lim or (p - 1) * cutoff.denominator < pk * p * p * cutoff.numerator:
            break
        pk *= p
    # masses as numerators over p^(K+1), K the last k
    mass = {0: (p - 2) * pk, -c_lim: 1}
    mass[f] = mass.get(f, 0) + 1
    for off, pj in atoms:
        mass[off] = mass.get(off, 0) + (p - 1) * (pk // pj)
    return tuple((off, ratio_up(m, pk * p)) for off, m in sorted(mass.items()))


def _fold(f: np.ndarray, laws) -> np.ndarray:
    """The curve f, non-increasing and at most 1, on a log grid, folded
    with each law of _law in turn: point i of the result is at least the
    sum of mass * f[i + offset] over the exact masses of the law, with f
    read as 1 below the grid and as its last point above it.

    Each law is m round-to-nearest multiplies and m - 1 adds, m its offsets,
    between two padded buffers that swap roles, on the points that read
    more than 1s; one slack 1 + 4 M 2^-53, M the offsets of all laws,
    rounded UP, covers the rounding (see the rounding of the fold in the
    module docstring). Raises AssertionError if a product could leave the
    normal doubles.
    """
    if not laws:
        return f.copy()
    n = f.size
    pad = max(abs(off) for law in laws for off, _ in law)
    least = min(mass for law in laws for _, mass in law)
    if not float(f.min()) * least >= 2.0**-1021:
        raise AssertionError("fold product below the normal doubles; this is a bug")
    ones = n - int(np.count_nonzero(f < 1.0))  # f[:ones] is all 1
    src, dst = np.ones(n + 2 * pad), np.ones(n + 2 * pad)
    src[pad:pad + n] = f
    tmp = np.empty(n)
    for law in laws:
        src[pad + n:] = src[pad + n - 1]
        # the points that read only the 1s of src stay 1; ones never rises,
        # so no law has written dst below it
        ones = min(ones, max(0, ones - max(off for off, _ in law)))
        start, m = pad + ones, n - ones
        acc, part = dst[start:pad + n], tmp[:m]
        (off, mass), *rest = law
        np.multiply(src[start + off:start + off + m], mass, out=acc)
        for off, mass in rest:
            np.multiply(src[start + off:start + off + m], mass, out=part)
            acc += part
        src, dst = dst, src
    slack = 1.0 + 4.0 * sum(map(len, laws)) * 2.0**-53
    return ulp_up(np.multiply(src[pad:pad + n], slack))


def fold_curve(table: MomentTable, y: int):
    """The folded curve S of the fold lemma, for the cells at level
    y <= table.y, on its grid: (hi, s), hi increasing, with s[k] >=
    P(X >= log q) for every q >= hi[k] in every cell at level y, and so
    1 - s[k] <= P(X >= log q) for every q with 1/q >= hi[k] (step 4 of
    the lemma). s is non-increasing and at most 1.

    S lives on base-2 logs, point i at log2 q = i 2^-_LOG_BITS for
    |i| <= _LOG_HALF, with the bounds (lo, hi) of _pow2_bounds: g is the
    capped moment curve of the table at lo, and each prime in (y, table.y]
    folds in by _fold.
    """
    n = _LOG_HALF
    lo, hi = _pow2_bounds(_LOG_BITS, n)
    g = np.ones(2 * n + 1)
    g[n + 1:] = np.minimum(bound_curves(table, lo[n + 1:]), 0.5)
    laws = [_law(p, lo[n:], hi[n:], _FOLD_CUTOFF) for p in primes_upto(table.y).tolist() if p > y]
    return hi, np.minimum(_fold(g, laws), 1.0)
