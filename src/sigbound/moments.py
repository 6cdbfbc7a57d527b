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
The loop over the orders steps its reused buffers by a bare +1 or -1 on
their int64 view, without the clamps of ulp_up / ulp_dn, which cannot act
before an order saturates (see _bulk_values); the tail factors of all
orders come from one dirround.exp_up pass.

bound_curves turns a table into the per-cell bound: min over r of
(M(r)-1)/(q^r-1), at any non-decreasing array of ratios q > 1; the lower
bound is 1 minus it, stepped down, formed by the caller. The engine
evaluates it once, on its grid; it carries q^r only up to the cap
crossings it has seen, with no guess of where they fall.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .arith import primes_upto
from .dirround import (
    ZETA2_UP,
    dn_sub,
    exp_up,
    log_up,
    next_up,
    pow_dn,
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


@dataclass(frozen=True)
class MomentTable:
    """Per-order certified upper bounds, as floats rounded UP.

    values[r] bounds the moment-mean constant of order r and roots[r] its
    r-th root, for r = 1..r_max; index 0 is unused (nan). A non-finite value
    marks an order whose bound overflowed and must not be used (the engine
    then falls back to trivial cell bounds).
    """

    y: int
    r_max: int
    values: tuple[float, ...]

    @cached_property
    def roots(self) -> tuple[float, ...]:
        """The r-th roots of values[r], computed on first access: the
        engine never reads them."""
        vals = self.values
        roots = [math.nan, vals[1]] + [math.inf] * (self.r_max - 1)
        orders = [r for r in range(2, self.r_max + 1) if math.isfinite(vals[r])]
        expo = [up_div(log_up(max(vals[r], 1.0)), float(r)) for r in orders]
        for r, root in zip(orders, exp_up(expo).tolist()):
            v = max(vals[r], 1.0)
            # certify root^r >= value by DOWN-powering; bump if rounding fell short
            while pow_dn(root, r) < v:
                root = next_up(root)
            roots[r] = root
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


def _tail_factors(r_max: int) -> np.ndarray:
    """UP bounds on exp(_TAIL_RATE * r) for r = 0..r_max, in one array."""
    rate = ratio_up(_TAIL_RATE.numerator, _TAIL_RATE.denominator)
    return exp_up(ulp_up(rate * np.arange(r_max + 1, dtype=np.float64)))


def _bulk_values(r_max: int, mids: tuple[int, ...]) -> list[float]:
    """Vectorized product over the mid primes for every r in 2..r_max.

    The per-element factor construction takes a one-ULP step after each
    operation, as the scalar reference in tests/oracles.py does. The setup
    steps through the clamped ulp_up / ulp_dn; the eight steps per order in
    the loop are bare, a +1 or -1 on the int64 view of a reused buffer. A
    bare step equals the clamped one everywhere but at +inf (up) and +0.0
    (down), where it gives a NaN instead of holding the value. Every value
    in the loop stays finite and above +0.0 up to the first order whose
    product is not finite, so there the bits are those of the clamped steps.
    That order is the one where (1+1/p)^r overflows, (1-1/p)^(r-1)
    underflows to +0.0 (so r/den overflows), or f or the product overflows.
    There the clamped steps give +inf where the bare ones give a NaN; every
    buffer reaches f through arithmetic, so either one makes the product
    non-finite, and the same order saturates.

    The reduction across primes uses round-to-nearest multiplies, so the
    result is inflated by (1+u)^(m-1) <= 1 + 2(m-1)u (u = 2^-53, m*u << 1),
    with a doubled margin for safety. The products, that slack and the tail
    factors meet in one array pass after the loop.
    """
    tails = _tail_factors(r_max)
    if not mids:
        values = tails.tolist()
        values[0] = values[1] = math.nan
        return values
    prods = np.full(r_max + 1, np.inf)  # the orders the loop leaves saturate
    p = np.array(mids, dtype=np.float64)  # mid primes are exact in a double
    inv_up = ulp_up(1.0 / p)
    base_up = ulp_up(1.0 + inv_up)  # >= 1 + 1/p
    base_dn = ulp_dn(1.0 - inv_up)  # <= 1 - 1/p
    p2 = p * p  # exact, p < 2^16
    p4_dn = ulp_dn(p2 * p2)
    pden_dn = ulp_dn(p4_dn - p2)  # <= p^4 - p^2
    slack = 1.0 + 4.0 * len(mids) * 2.0**-53
    u = base_up.copy()  # (1+1/p)^r, UP, currently r = 1
    w = np.ones_like(p)  # (1-1/p)^(r-1), DOWN, currently r = 1
    t1 = np.empty_like(p)
    t2 = np.empty_like(p)
    f = np.empty_like(p)
    u_b, w_b, t1_b, t2_b, f_b = (a.view(np.int64) for a in (u, w, t1, t2, f))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for r in range(2, r_max + 1):
            np.multiply(u, base_up, out=u)
            u_b += 1  # u > 1; NaN once u overflows
            np.multiply(w, base_dn, out=w)
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
            prods[r] = prod
    ulp_up(np.multiply(prods, slack, out=prods))
    values = ulp_up(np.multiply(prods, tails, out=prods)).tolist()
    values[0] = values[1] = math.nan
    return values


def build_moment_table(y: int, r_max: int) -> MomentTable:
    """Tabulate orders 1..r_max once; the table is immutable afterwards."""
    check_y(y)
    if r_max < 1:
        raise InvalidParameterError(f"r_max must be >= 1, got {r_max}")
    if r_max > MAX_ORDER:
        raise UnsupportedParameterError(
            f"r_max must be at most {MAX_ORDER}, got {r_max}"
        )
    values = _bulk_values(r_max, _mid_primes(y))
    values[1] = moment_r1_exact(y)
    return MomentTable(y=y, r_max=r_max, values=tuple(values))


def bound_curves(table: MomentTable, q: np.ndarray) -> np.ndarray:
    """The bound-ratio curve ru at the ratios q.

    q is a non-decreasing float64 array with q[0] > 1. For each q[i] and any
    cell ratio q' >= q[i], min_r (M(r)-1)/(q'^r-1) <= ru[i], because the
    expression is monotone in q'. On the engine's grid one lookup per cell
    then replaces the whole r search, at a tightness cost bounded by the
    grid spacing (at most 2^-16 relative). The lower bound needs no curve
    of its own: 1 - c stepped down is monotone in c, so the best lower
    candidate belongs to the best upper one, and
    max_r (1 - (M(r)-1)/(q'^r-1)) >= ulp_dn(1 - ru[i]), which a caller forms
    where it reads it (ru <= 1, and ru = 1 gives +0.0).

    Order r caps q^r at c_r = min(1e9 M(r), 1e300). q^r is rounded down and
    non-decreasing along q, so the points where it reaches c_r form a
    suffix, and there the candidate is the one scalar s_r =
    (M(r)-1)/(c_r-1) (+inf if c_r - 1 steps down to <= 0); it goes to the
    first point k of the suffix in `tail`, and one running min spreads the
    scalars after the loop. No candidate of an order is below its s_r, so
    if no later order has a smaller s, none can lower ru past k, and q^r is
    carried on the points before k only. M(r) of a built table never
    falls, so there every crossing shrinks the prefix.

    Two of the three steps per order are bare int64 steps, each where the
    clamp of ulp_dn cannot act (it acts only at +0.0): q^r >= q > 1, and
    q^r - 1 >= q[0] - 1 > 0, exactly. The quotient (M(r)-1)/(q^r-1) may
    overflow, so it steps through the clamped ulp_up, which holds +inf.

    Returns ru, non-increasing and at most 1.
    """
    n = q.size
    # orders only saturate upward: stop at the first non-finite one
    lam = np.array(table.values[1:])
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
    qr_b, cand_b = qr.view(np.int64), cand.view(np.int64)
    m = n
    with np.errstate(over="ignore"):  # q^r and num / d may overflow
        for i, (num, c, s) in enumerate(zip(nums, cap, scalars)):
            if i:
                head = qr[:m]
                np.multiply(head, q[:m], out=head)
                # bare step down: q^r >= q > 1 is never +0.0, the one value
                # where ulp_dn's clamp acts (+inf steps to the largest
                # finite double either way)
                qr_b[:m] -= 1
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
