"""Directed-rounding scalar arithmetic.

The contract: a DOWN-directed value is <= the exact real it stands for, an
UP-directed value is >= it, and every operation preserves that side. The
mechanism is ULP nudging: IEEE double arithmetic rounds to nearest, so the
rounded result differs from the exact one by less than one ULP, and a single
nextafter step in the target direction lands provably on the safe side.

The `up_*` / `dn_*` / `pow_dn` kernels nudge unconditionally, one ULP of slack
even when the operation happened to be exact; `ratio_*` convert exact
rationals to the nearest double on the requested side. A
composite expression stays certified when each operand slot gets the direction
that pushes the result the right way: the subtrahend and the divisor take the
opposite direction of the result, and the operands of mul, div and pow must
be nonnegative. `DirScalar` labels a finished value with
its side; it carries no arithmetic of its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidParameterError

_INF = math.inf
_nextafter = math.nextafter

# Smallest certified upper bound on e that a double can carry: math.e is the
# nearest double to e, so one step up is provably above.
_E_UP = _nextafter(math.e, _INF)

_FACT9 = 362880.0  # 9!


# ---------------------------------------------------------------------------
# raw float kernels (always nudge)
# ---------------------------------------------------------------------------

def next_up(x: float) -> float:
    return _nextafter(x, _INF)


def up_add(x: float, y: float) -> float:
    return _nextafter(x + y, _INF)


def dn_add(x: float, y: float) -> float:
    return _nextafter(x + y, -_INF)


def up_sub(x: float, y: float) -> float:
    return _nextafter(x - y, _INF)


def dn_sub(x: float, y: float) -> float:
    return _nextafter(x - y, -_INF)


def up_mul(x: float, y: float) -> float:
    return _nextafter(x * y, _INF)


def dn_mul(x: float, y: float) -> float:
    return _nextafter(x * y, -_INF)


def up_div(x: float, y: float) -> float:
    return _nextafter(x / y, _INF)


def pow_dn(x: float, r: int) -> float:
    """x**r for x >= 0, r >= 0, every multiply nudged DOWN."""
    result = 1.0
    base = x
    e = r
    while e:
        if e & 1:
            result = _nextafter(result * base, -_INF)
        e >>= 1
        if e:
            base = _nextafter(base * base, -_INF)
    return result


def ratio_up(num: int, den: int) -> float:
    """Double >= num/den for nonnegative num, positive den."""
    try:
        f = num / den
    except OverflowError:
        return _INF
    if math.isinf(f):
        return f
    nf, df = f.as_integer_ratio()
    return f if nf * den == num * df else _nextafter(f, _INF)


def ratio_dn(num: int, den: int) -> float:
    try:
        f = num / den
    except OverflowError:
        return _nextafter(_INF, 0.0)
    if math.isinf(f):
        return _nextafter(f, 0.0)
    nf, df = f.as_integer_ratio()
    return f if nf * den == num * df else _nextafter(f, -_INF)


# ---------------------------------------------------------------------------
# DirScalar, the result type
# ---------------------------------------------------------------------------

class Direction(Enum):
    DOWN = -1
    UP = 1


DOWN = Direction.DOWN
UP = Direction.UP


@dataclass(frozen=True)
class DirScalar:
    """A double paired with the side of the exact value it is certified on."""

    value: float
    direction: Direction

    def __repr__(self) -> str:
        arrow = "<=" if self.direction is DOWN else ">="
        return f"DirScalar({self.value!r} {arrow} exact)"


# ---------------------------------------------------------------------------
# certified exp and log
# ---------------------------------------------------------------------------

def _exp_up_core(v: float) -> float:
    """Upper bound on e^v for 0 <= v <= 1: degree-8 Taylor sum plus the
    remainder bound e*v^9/9! (valid since the tail is <= v^9/9! * e^v)."""
    s = up_div(v, 8.0)
    for k in (7.0, 6.0, 5.0, 4.0, 3.0, 2.0):
        s = up_mul(up_add(s, 1.0), up_div(v, k))
    s = up_add(up_mul(up_add(s, 1.0), v), 1.0)
    v3 = up_mul(up_mul(v, v), v)
    v9 = up_mul(up_mul(v3, v3), v3)
    return up_add(s, up_div(up_mul(_E_UP, v9), _FACT9))


def exp_up_wide(v: float) -> float:
    """Upper bound on e^v for any v >= 0; halve into [0, 1/16], then square."""
    if v < 0.0:
        raise InvalidParameterError(f"exp_up_wide needs v >= 0, got {v}")
    if math.isinf(v):
        return _INF
    k = 0
    while v > 0.0625:
        v *= 0.5  # exact: halving a normal double
        k += 1
    s = _exp_up_core(v)
    for _ in range(k):
        s = up_mul(s, s)
    return s


# ln 2 and zeta(2) = pi^2/6 to 30 decimal places, truncated and bumped, then
# rounded UP to a double.
_LN2_UP = ratio_up(693147180559945309417232121459, 10**30)
ZETA2_UP = ratio_up(1644934066848226436472415166647, 10**30)


def log_up(v: float) -> float:
    """Upper bound on ln v for finite v >= 1.

    Range-reduce with frexp to m in [1, 2), then the atanh series
    ln m = 2 * sum t^(2k+1)/(2k+1) with t = (m-1)/(m+1) <= 1/3, summed UP
    with an explicit geometric tail bound.
    """
    if v < 1.0 or math.isinf(v):
        raise InvalidParameterError(f"log_up domain is finite v >= 1, got {v}")
    if v == 1.0:
        return 0.0
    m, e = math.frexp(v)  # v = m * 2^e with m in [0.5, 1)
    m *= 2.0  # exact
    e -= 1
    num = m - 1.0  # exact by Sterbenz (m in [1, 2))
    t = up_div(num, dn_add(m, 1.0))
    t2 = up_mul(t, t)
    s = t
    tp = t
    for k in range(1, 19):
        tp = up_mul(tp, t2)
        s = up_add(s, up_div(tp, float(2 * k + 1)))
    # tail: sum_{j>=K} t^(2j+1)/(2j+1) <= t^39 / (39 * (1 - t^2))
    tail = up_div(up_mul(tp, t2), dn_mul(39.0, dn_sub(1.0, t2)))
    s = up_add(s, tail)
    total = up_mul(2.0, s)
    if e:
        total = up_add(total, up_mul(float(e), _LN2_UP))
    return total
