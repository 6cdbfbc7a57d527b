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
    exp_up_wide,
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
        roots = [math.nan] * (self.r_max + 1)
        roots[1] = self.values[1]
        for r in range(2, self.r_max + 1):
            v = self.values[r]
            if not math.isfinite(v):
                roots[r] = math.inf
                continue
            v = max(v, 1.0)
            root = exp_up_wide(up_div(log_up(v), float(r)))
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


def _tail_factor(r: int) -> float:
    """UP bound on exp(_TAIL_RATE * r)."""
    return exp_up_wide(up_mul(ratio_up(_TAIL_RATE.numerator, _TAIL_RATE.denominator), float(r)))


def _bulk_values(r_max: int, mids: tuple[int, ...]) -> list[float]:
    """Vectorized product over the mid primes for every r in 2..r_max.

    The per-element factor construction nudges after each operation, as the
    scalar reference in tests/oracles.py does; every nudge is a one-ULP step
    of a fresh nonnegative array (ulp_up / ulp_dn). (1+1/p)^r may overflow to
    +inf, which stays +inf, and (1-1/p)^(r-1) may underflow to +0.0, which
    stays +0.0 and makes t2 = r/den infinite. The reduction across primes
    uses round-to-nearest multiplies, so the result is inflated by
    (1+u)^(m-1) <= 1 + 2(m-1)u (u = 2^-53, m*u << 1), with a doubled margin
    for safety.
    """
    out = [math.nan] * (r_max + 1)
    if not mids:
        for r in range(2, r_max + 1):
            out[r] = _tail_factor(r)
        return out
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
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for r in range(2, r_max + 1):
            u = ulp_up(u * base_up)
            w = ulp_dn(w * base_dn)
            t1 = ulp_up(ulp_up(u - 1.0) / p)
            den = ulp_dn(pden_dn * w)
            t2 = ulp_up(float(r) / den)  # den = +0.0 gives +inf
            f = ulp_up(ulp_up(t1 + t2) + 1.0)
            prod = float(np.multiply.reduce(f))
            if not math.isfinite(prod):
                # each directed step is monotone, so every factor, and with
                # it the product, only grows with r: all later orders overflow
                out[r:] = [math.inf] * (r_max + 1 - r)
                break
            out[r] = up_mul(up_mul(prod, slack), _tail_factor(r))
    return out


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
