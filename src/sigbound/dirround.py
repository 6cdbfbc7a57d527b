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

The numpy kernels `ulp_up` / `ulp_dn` take the same one-ULP step on whole
float64 arrays, in place, through the int64 view of the bits;
`exact_sum` gives the exact sum of an array of doubles in [+0.0, 2**997) as
an integer count of 2**-1074, by rounds of error-free extraction, so that
totals add exactly in any order and a directed total is one `ratio_dn` /
`ratio_up` of the count over 2**1074;
and `exp_up` bounds e^v from above for a whole array of exponents.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

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
    nf, df = f.as_integer_ratio()
    return f if nf * den == num * df else _nextafter(f, _INF)


def ratio_dn(num: int, den: int) -> float:
    try:
        f = num / den
    except OverflowError:
        return _nextafter(_INF, 0.0)
    nf, df = f.as_integer_ratio()
    return f if nf * den == num * df else _nextafter(f, -_INF)


# ---------------------------------------------------------------------------
# array kernels
# ---------------------------------------------------------------------------

# The bits of +inf as an int64. Read as int64, the bit patterns of the doubles
# from +0.0 up to +inf are 0 .. _INF_BITS, in the order of their values, and
# adding 1 steps to the next double: +0.0 to the smallest subnormal, the
# largest subnormal to the smallest normal, the largest finite double to +inf.
_INF_BITS = np.int64(0x7FF0000000000000)


def ulp_up(x: np.ndarray, where: Optional[np.ndarray] = None) -> np.ndarray:
    """Step each element of the float64 array x one ULP up, in place.

    Domain: +0.0 <= x <= +inf (no -0.0, negative or NaN element). There the
    result equals np.nextafter(x, inf) bit for bit; +inf stays +inf. With
    `where` (a bool array of x's shape), only the elements where it holds
    step. Returns x. x must be a fresh temporary: the step overwrites it.
    """
    bits = x.view(np.int64)
    bits += 1 if where is None else where
    np.minimum(bits, _INF_BITS, out=bits)  # +inf stepped past itself
    return x


def ulp_dn(x: np.ndarray, where: Optional[np.ndarray] = None) -> np.ndarray:
    """Step each element of the float64 array x one ULP toward zero, in place.

    Domain: +0.0 <= x <= +inf. There the result equals np.nextafter(x, 0.0)
    bit for bit, which for x > 0 is also np.nextafter(x, -inf): +inf goes to
    the largest finite double and +0.0 stays +0.0, still a lower bound of a
    nonnegative exact value. `where` and the return value as in ulp_up.
    """
    bits = x.view(np.int64)
    bits -= 1 if where is None else where
    np.maximum(bits, 0, out=bits)  # +0.0 stepped below itself
    return x


# exact_sum takes fewer than 2**26 terms, each below 2**997: with
# L = bit_length(n) <= 26 and every term below 2**e, e <= 997, a round of the
# extraction clears at least 53 - 1 - L >= 26 bits of every remainder, and
# sigma = 2**(e + L) <= 2**1023 stays finite.
_SUM_MAX_TERMS = 1 << 26
_SUM_BOUND_BITS = (997 + 1023) << 52  # the int64 bits of 2**997


def exact_sum(x: np.ndarray) -> int:
    """The exact sum of the float64 array x of finite doubles in
    [+0.0, 2**997), as the integer n with sum = n * 2**-1074.

    Every double is a whole multiple of 2**-1074, the smallest subnormal, so
    n is an integer. The sum is taken by extraction (Rump, Ogita and Oishi,
    "Accurate floating-point summation, part I", SIAM J. Sci. Comput. 31,
    2008, ExtractVector): with n < 2**L terms, all below 2**e, and
    sigma = 2**(e + L), each q = (r + sigma) - sigma is r rounded to a whole
    multiple of 2**(e + L - 53), r - q is exact and at most that unit, and
    the float sum of the q is exact in any order, since every partial sum is
    such a multiple of magnitude below sigma. Each round adds that sum to a
    Python int and goes on with the remainders r - q, under a sigma taken
    from their largest magnitude, until all are zero. An empty x sums to 0.
    """
    if x.size == 0:
        return 0
    if x.size >= _SUM_MAX_TERMS:
        raise InvalidParameterError(f"exact_sum takes fewer than 2**26 terms, got {x.size}")
    bits = x.view(np.int64)
    top = int(bits.max())
    if bits.min() < 0 or top >= _SUM_BOUND_BITS:
        raise InvalidParameterError("exact_sum needs finite doubles in [+0.0, 2**997)")
    size = x.size.bit_length()
    # x < 2**e, e from the largest term's exponent field (2**-1022 bounds a
    # subnormal)
    sigma = math.ldexp(1.0, (top >> 52) - 1022 + size)
    q = x + sigma
    q -= sigma
    r = x - q
    total = 0
    while True:
        num, den = float(q.sum()).as_integer_ratio()
        total += (num << 1074) // den  # den is a power of two <= 2**1074
        m = max(r.max(), -r.min())
        if m == 0.0:
            return total
        sigma = math.ldexp(1.0, math.frexp(m)[1] + size)
        np.add(r, sigma, out=q)
        q -= sigma
        r -= q


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

def exp_up(v) -> np.ndarray:
    """Upper bounds on e^v, elementwise, for an array of v >= 0 (+inf
    included); returns a new float64 array and leaves v as it was.

    Each element is halved k times into [0, 1/16], k the least such, summed
    there as the degree-8 Taylor polynomial plus the remainder bound
    e*v^9/9! (valid since the tail is <= v^9/9! * e^v), and squared k times.
    Every operation takes one ULP step up, so each element is what the same
    sequence of scalar `up_*` steps gives (`tests/oracles.py` keeps that
    scalar form).
    """
    v = np.array(v, dtype=np.float64, ndmin=1)
    if not np.all(v >= 0.0):
        raise InvalidParameterError("exp_up needs every v >= 0")
    inf = np.isinf(v)
    v[inf] = 0.0
    k = np.zeros(v.shape, dtype=np.int64)
    big = v > 0.0625
    while big.any():
        v[big] *= 0.5  # exact: halving a normal double
        k += big
        big = v > 0.0625
    s = ulp_up(v / 8.0)
    for d in (7.0, 6.0, 5.0, 4.0, 3.0, 2.0):
        s = ulp_up(ulp_up(s + 1.0) * ulp_up(v / d))
    s = ulp_up(ulp_up(ulp_up(s + 1.0) * v) + 1.0)
    v3 = ulp_up(ulp_up(v * v) * v)
    v9 = ulp_up(ulp_up(v3 * v3) * v3)
    s = ulp_up(s + ulp_up(ulp_up(_E_UP * v9) / _FACT9))
    rounds = 0
    square = k > 0
    while square.any():
        with np.errstate(over="ignore"):  # +inf is a valid upper bound
            np.multiply(s, s, out=s, where=square)
        ulp_up(s, square)
        rounds += 1
        square = k > rounds
    s[inf] = _INF
    return s


# ln 2 and zeta(2) = pi^2/6 to 30 decimal places, truncated and bumped, then
# rounded UP to a double.
LN2_UP = ratio_up(693147180559945309417232121459, 10**30)
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
        total = up_add(total, up_mul(float(e), LN2_UP))
    return total
