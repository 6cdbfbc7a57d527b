import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bincount_sum, dn_div, exp_up_wide, pow_up, up_sub
from sigbound import dirround, engine
from sigbound.dirround import (
    DOWN,
    FIXED_BITS,
    UP,
    ZETA2_UP,
    dn_add,
    dn_mul,
    dn_sub,
    exp_up,
    fixed_sum,
    log_up,
    pow_dn,
    ratio_dn,
    ratio_up,
    up_add,
    up_div,
    ulp_dn,
    ulp_up,
    up_mul,
)
from sigbound.errors import InvalidParameterError


class TestRationalToDir:
    """ratio_up / ratio_dn: the nearest double on the requested side of an
    exact rational, the rational itself when a double holds it."""

    def test_dyadic_is_exact(self):
        assert ratio_dn(1, 2) == 0.5
        assert ratio_up(1, 2) == 0.5

    def test_third_up_is_smallest_above(self):
        v = ratio_up(1, 3)
        assert Fraction(v) >= Fraction(1, 3)
        assert Fraction(math.nextafter(v, 0.0)) < Fraction(1, 3)

    def test_eight_fifths_down(self):
        v = ratio_dn(8, 5)
        assert Fraction(v) <= Fraction(8, 5)
        assert Fraction(math.nextafter(v, 2.0)) > Fraction(8, 5)


class TestDirOps:
    def test_div_one_third_up(self):
        assert Fraction(up_div(1.0, 3.0)) >= Fraction(1, 3)

    def test_sub_composition(self):
        # 1 - DOWN(1/3) rounded UP is >= 2/3
        assert Fraction(up_sub(1.0, dn_div(1.0, 3.0))) >= Fraction(2, 3)


class TestDirPow:
    def test_saturation_up(self):
        # 4000 * log10(1.5) is approximately 704 decimal digits: overflows
        assert pow_up(1.5, 4000) == math.inf

    def test_down_overflow_stays_finite(self):
        assert math.isfinite(pow_dn(1.5, 4000))

    @pytest.mark.parametrize("num,den", [(3, 2), (7, 6), (13, 9)])
    def test_brackets_exact_power(self, num, den):
        q = Fraction(num, den)
        lo = ratio_dn(num, den)
        hi = ratio_up(num, den)
        for r in range(1, 65):
            exact = q**r
            assert Fraction(pow_dn(lo, r)) <= exact
            assert Fraction(pow_up(hi, r)) >= exact


def exp_up_one(x) -> float:
    return float(exp_up([x])[0])


class TestExpUpper:
    def test_correction_scale_value(self):
        v = exp_up_one(1.6623114e-6 * 2000)
        assert 1.003330 <= v <= 1.003336

    def test_half(self):
        v = exp_up_one(0.5)
        assert v >= 1.648721
        assert v >= math.exp(0.5)
        assert v <= math.exp(0.5) + 1e-7

    def test_domain(self):
        for bad in (-0.1, -math.inf, math.nan):
            with pytest.raises(InvalidParameterError):
                exp_up([1.0, bad])

    def test_matches_the_scalar_form_bit_for_bit(self):
        # every number of halvings from 0 to 14, both sides of each
        # halving threshold 2^j / 16, subnormals, overflow and +inf
        edges = [2.0**j / 16 for j in range(-1, 15)]
        rng = np.random.default_rng(3)
        x = np.concatenate([
            [0.0, 5e-324, 2.2e-308, 1e-300, 709.78, 710.0, 1e300, math.inf],
            edges, np.nextafter(edges, 0.0), np.nextafter(edges, math.inf),
            rng.uniform(0.0, 0.0625, 500), rng.uniform(0.0, 800.0, 500),
        ])
        want = np.array([exp_up_wide(float(v)) for v in x])
        got = exp_up(x)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_input_left_as_it_was(self):
        x = np.array([0.5, 3.0, math.inf])
        exp_up(x)
        assert x.tolist() == [0.5, 3.0, math.inf]
        assert exp_up([]).shape == (0,)

    def test_upper_property_on_grid(self):
        import mpmath as mp

        mp.mp.dps = 40
        for k in range(0, 101):
            x = k / 100.0
            assert exp_up_one(x) >= mp.exp(x)


class TestWideExpLog:
    def test_log_up_dominates(self):
        import mpmath as mp

        mp.mp.dps = 40
        rng = random.Random(11)
        for _ in range(300):
            v = math.exp(rng.uniform(0.0, 700.0))
            lu = log_up(v)
            assert lu >= mp.log(v)
            assert lu <= float(mp.log(v)) + 1e-12 * max(1.0, lu)

    def test_exp_up_wide_dominates(self):
        import mpmath as mp

        mp.mp.dps = 40
        rng = random.Random(12)
        for _ in range(300):
            x = rng.uniform(0.0, 700.0)
            eu = exp_up_one(x)
            assert eu >= mp.exp(x)
            # ~14 halve-and-square rounds double the core slack each time
            assert eu <= float(mp.exp(x)) * (1 + 1e-9)

    def test_roundtrip_root(self):
        # exp(log(v)/r) upper bound really dominates the r-th root
        for v in (1.5, 10.0, 1e6, 1e300):
            for r in (2, 7, 100):
                root = exp_up_one(up_div(log_up(v), float(r)))
                assert pow_up(root, r) >= v * (1 - 1e-9)
                assert root >= v ** (1.0 / r) * (1 - 1e-12)


class TestZeta2:
    def test_bracket_against_partial_sums(self):
        # sum_{k<=N} 1/k^2 + 1/(N+1) <= zeta(2) <= sum + 1/N (integral tail)
        N = 20000
        lo = 0.0
        hi = 0.0
        for k in range(1, N + 1):
            lo = dn_add(lo, dn_div(1.0, float(k) * float(k)))
            hi = up_add(hi, up_div(1.0, float(k) * float(k)))
        lo = dn_add(lo, dn_div(1.0, float(N + 1)))
        hi = up_add(hi, up_div(1.0, float(N)))
        assert lo <= ZETA2_UP <= hi

    def test_bracket_against_mpmath(self):
        import mpmath as mp

        mp.mp.dps = 50
        z2 = mp.zeta(2)
        assert z2 <= ZETA2_UP
        assert (ZETA2_UP - z2) / z2 <= 1e-15


# ---------------------------------------------------------------------------
# array kernels: one-ULP steps through the int64 view, directed fixed-point sum
# ---------------------------------------------------------------------------

# +0.0, the smallest subnormal, the largest subnormal, the smallest normal,
# 1.0, the largest finite double and +inf
EDGE_FLOATS = [0.0, 5e-324, math.nextafter(2.0**-1022, 0.0), 2.0**-1022, 1.0,
               1.7976931348623157e308, math.inf]

# The kernels' domain: +0.0 <= x <= +inf (no -0.0).
domain_floats = st.floats(min_value=0.0, allow_nan=False, allow_infinity=True).filter(
    lambda v: math.copysign(1.0, v) > 0.0)


def same_bits(x, y) -> bool:
    return np.array_equal(np.asarray(x).view(np.int64), np.asarray(y).view(np.int64))


def nextafter(x, to):
    """np.nextafter without its overflow warning at the largest double."""
    with np.errstate(over="ignore"):
        return np.nextafter(x, to)


def check_steps(x: np.ndarray) -> None:
    """Both ULP kernels against np.nextafter, on a copy of x."""
    assert same_bits(ulp_up(x.copy()), nextafter(x, np.inf))
    assert same_bits(ulp_dn(x.copy()), nextafter(x, 0.0))
    pos = x[x > 0.0]
    assert same_bits(ulp_dn(pos.copy()), nextafter(pos, -np.inf))


class TestUlpKernels:
    def test_edge_values(self):
        check_steps(np.array(EDGE_FLOATS))
        assert ulp_up(np.array([0.0]))[0] == 5e-324
        assert ulp_up(np.array([1.7976931348623157e308]))[0] == math.inf
        assert ulp_up(np.array([math.inf]))[0] == math.inf
        assert ulp_dn(np.array([0.0]))[0] == 0.0
        assert ulp_dn(np.array([math.inf]))[0] == 1.7976931348623157e308

    def test_bare_steps_past_the_domain_give_nan(self):
        # the moment-table loop steps its buffers by a bare +1 or -1 on the
        # int64 view: +inf stepped up and +0.0 stepped down must come out
        # NaN, and a NaN factor must make the product non-finite
        x = np.array([math.inf, 0.0])
        bits = x.view(np.int64)
        bits[0] += 1
        bits[1] -= 1
        assert np.isnan(x).all()
        for bad in x:
            for other in (0.0, 1.5, math.inf):
                f = np.array([1.5] * 20 + [other, bad, 2.0])
                with np.errstate(invalid="ignore"):
                    assert not math.isfinite(float(np.multiply.reduce(f)))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(domain_floats, min_size=1, max_size=64))
    def test_match_nextafter(self, values):
        check_steps(np.array(values))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(domain_floats, min_size=2, max_size=64), st.integers(2, 3))
    def test_strided_views(self, values, stride):
        base = np.array(values)
        for step, expect in ((ulp_up, nextafter(base[::stride], np.inf)),
                             (ulp_dn, nextafter(base[::stride], 0.0))):
            work = base.copy()
            out = step(work[::stride])
            assert same_bits(out, expect)
            assert same_bits(work[::stride], expect)  # stepped in place
            rest = np.ones(base.size, bool)
            rest[::stride] = False
            assert same_bits(work[rest], base[rest])  # the gaps are untouched

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(domain_floats, st.booleans()), min_size=1, max_size=64))
    def test_where_steps_only_selected(self, pairs):
        x = np.array([v for v, _ in pairs])
        sel = np.array([b for _, b in pairs])
        assert same_bits(ulp_up(x.copy(), sel), np.where(sel, nextafter(x, np.inf), x))
        assert same_bits(ulp_dn(x.copy(), sel), np.where(sel, nextafter(x, 0.0), x))


# fixed_sum's unit and its largest term
UNIT = 2.0**-FIXED_BITS
BELOW_FOUR = math.nextafter(4.0, 0.0)


def fixed_oracle(x, direction) -> int:
    """The sum of floor (DOWN) or ceil (UP) of Fraction(x_i) 2**FIXED_BITS."""
    rnd = math.floor if direction is DOWN else math.ceil
    return sum(rnd(Fraction(v) * 2**FIXED_BITS) for v in np.asarray(x, np.float64).tolist())


def assert_sum_matches(x) -> None:
    """fixed_sum(x) in both directions is the Fraction oracle's integer."""
    x = np.asarray(x, dtype=np.float64)
    for direction in (DOWN, UP):
        got = fixed_sum(x, direction)
        assert type(got) is int
        assert got == fixed_oracle(x, direction), direction


class TestExactSum:
    """fixed_sum is the exact sum of the terms' directed fixed-point values,
    floor (DOWN) or ceil (UP) of x_i 2**FIXED_BITS, on its whole domain."""

    def test_empty_and_zeros(self):
        assert_sum_matches([])
        assert_sum_matches(np.zeros(1000))
        assert fixed_sum(np.zeros(3), UP) == 0

    def test_edge_values(self):
        # the unit and one ULP either side of it, the smallest subnormal,
        # and the largest term
        for v in (math.nextafter(UNIT, 0.0), UNIT, math.nextafter(UNIT, 1.0), 5e-324,
                  2.0**-1022, BELOW_FOUR):
            assert_sum_matches([v])
            assert_sum_matches([v, 1.0, 2.0**-60])
        for v in (math.nextafter(UNIT, 0.0), UNIT, math.nextafter(UNIT, 1.0)):
            assert_sum_matches([v] * 7)
        assert fixed_sum(np.array([UNIT] * 7), DOWN) == fixed_sum(np.array([UNIT] * 7), UP) == 7
        assert_sum_matches([BELOW_FOUR, 4.0 - 2.0**-50])

    def test_subnormals(self):
        rng = np.random.default_rng(2)
        assert_sum_matches(rng.integers(0, 1 << 52, 5000).view(np.float64))
        assert_sum_matches(np.full(4097, 5e-324))
        assert fixed_sum(np.full(4097, 5e-324), DOWN) == 0
        assert fixed_sum(np.full(4097, 5e-324), UP) == 4097

    def test_exponent_spread(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3, 100, 4097, engine._CHUNK):
            assert_sum_matches(rng.random(n) * (7.0 / n))
            # exponents spread past the unit on both sides
            assert_sum_matches(10.0 ** rng.uniform(-30.0, 0.0, n) / n)
            assert_sum_matches(rng.random(n) * 10.0 ** rng.integers(-35, 1, n) / n)

    def test_ties_round_to_even(self):
        # the split rounds x + 4 to nearest: 2**-51 + 4 ties down to 4 and 3
        # * 2**-51 + 4 up to 4 + 2**-49, low parts of +2**-51 and -2**-51,
        # the largest; the most terms the int64 sum takes, at either
        n = dirround._FIXED_MAX_TERMS
        for low in (2.0**-51, 3 * 2.0**-51):
            for direction in (DOWN, UP):
                assert fixed_sum(np.full(n, low), direction) == n * fixed_oracle([low], direction)
            # 4 - 2**-51 + 4 ties up to 8: a high part of 4
            assert_sum_matches([low, BELOW_FOUR])

    def test_a_sum_just_below_eight(self):
        # high parts 4 - 2**-50, 4 - 2**-50 and 2**-50: 8 - 2**-50
        x = [4.0 - 2.0**-50, 4.0 - 2.0**-50, 2.0**-50 - 2.0**-94]
        assert_sum_matches(x)
        assert fixed_sum(np.array(x), DOWN) == (1 << FIXED_BITS + 3) - (1 << FIXED_BITS - 50) - 1

    def test_strided_view(self):
        x = 10.0 ** np.random.default_rng(3).uniform(-35.0, -3.0, 999)
        assert_sum_matches(x[::3])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0).filter(
        lambda v: math.copysign(1.0, v) > 0.0), max_size=7))
    def test_matches_fsum(self, values):
        # every double from 2**-42 up is a whole multiple of the unit: there
        # both sides are the exact sum, which rounds to math.fsum's
        assert_sum_matches(values)
        whole = [v for v in values if v >= 2.0**-42]
        dn, up = (fixed_sum(np.array(whole), d) for d in (DOWN, UP))
        assert dn == up
        assert float(Fraction(dn, 1 << FIXED_BITS)).hex() == math.fsum(whole).hex()

    @pytest.mark.parametrize("bad", [-1.0, -5e-324, -0.0, math.nan, math.inf, -math.inf])
    def test_rejects_negative_nan_and_infinite(self, bad):
        for direction in (DOWN, UP):
            with pytest.raises(InvalidParameterError):
                fixed_sum(np.array([1.0, bad, 2.0]), direction)
        with pytest.raises(InvalidParameterError):  # a NaN with its sign bit set
            fixed_sum(np.array([1.0, -math.nan]), DOWN)

    @pytest.mark.parametrize("big", [4.0, 5.0, 2.0**997, 1.7976931348623157e308])
    def test_rejects_terms_from_the_bound_up(self, big):
        # a term from 4 up splits at a coarser spacing, and its low part
        # can pass 2**-51
        for direction in (DOWN, UP):
            with pytest.raises(InvalidParameterError):
                fixed_sum(np.array([1.0, big, 2.0]), direction)

    @pytest.mark.parametrize("x", [
        [4.0 - 2.0**-50, 4.0 - 2.0**-50, 2.0**-49],  # high parts summing to 8
        [BELOW_FOUR, BELOW_FOUR],  # each high part 4
        [1.0] * 8,
        [BELOW_FOUR] * 3,
    ], ids=["eight", "ties", "ones", "twelve"])
    def test_rejects_a_sum_from_eight_up(self, x):
        # a partial sum of the high parts from 8 up may round
        for direction in (DOWN, UP):
            with pytest.raises(InvalidParameterError):
                fixed_sum(np.array(x), direction)

    def test_rejects_too_many_terms(self):
        # the int64 sum of the low parts stays below 2**63 up to
        # _FIXED_MAX_TERMS terms
        assert fixed_sum(np.full(dirround._FIXED_MAX_TERMS, 2.0**-40), DOWN) == 1 << FIXED_BITS - 21
        with pytest.raises(InvalidParameterError):
            fixed_sum(np.zeros(dirround._FIXED_MAX_TERMS + 1), DOWN)


# Biased exponent fields of the terms: 0 is subnormal, 1023 holds [1, 2).
# Fields past 1024 - bit_length(n) are cut to it, so that n terms sum below 8.
EXPONENT_SPANS = st.one_of(
    st.sampled_from([(0, 1023), (0, 0), (0, 60), (920, 1000), (980, 1023), (1023, 1023)]),
    st.tuples(st.integers(0, 1023), st.integers(0, 1023)).map(sorted),
)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 3, 100, 4097, engine._CHUNK]),
       span=EXPONENT_SPANS, zeros=st.sampled_from([0.0, 0.5]))
def test_exact_sum_matches_the_bincount_oracle(seed, n, span, zeros):
    """Random bit patterns with exponents spread over `span`, some terms
    zeroed: the one split of fixed_sum and the exponent buckets of
    oracles.bincount_sum give the same integer, in both directions."""
    rng = np.random.default_rng(seed)
    field = np.minimum(rng.integers(span[0], span[1] + 1, n), 1024 - n.bit_length())
    x = ((field << 52) | rng.integers(0, 1 << 52, n)).view(np.float64)
    x[rng.random(n) < zeros] = 0.0
    for direction in (DOWN, UP):
        assert fixed_sum(x, direction) == bincount_sum(x, direction)


# ---------------------------------------------------------------------------
# randomized expression trees: DOWN/UP kernel evaluations must bracket the
# exact rational value
# ---------------------------------------------------------------------------

class Node:
    __slots__ = ("op", "left", "right", "frac", "positive")

    def __init__(self, op, left=None, right=None, frac=None, positive=True):
        self.op = op
        self.left = left
        self.right = right
        self.frac = frac
        self.positive = positive


def random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        f = Fraction(rng.randrange(1, 1000), rng.randrange(1, 1000))
        return Node("leaf", frac=f, positive=True)
    left = random_tree(rng, depth - 1)
    right = random_tree(rng, depth - 1)
    ops = ["add", "sub"]
    if left.positive and right.positive:
        ops += ["mul", "div"]
    op = rng.choice(ops)
    positive = left.positive and right.positive and op != "sub"
    return Node(op, left=left, right=right, positive=positive)


def eval_exact(node):
    if node.op == "leaf":
        return node.frac
    l = eval_exact(node.left)
    r = eval_exact(node.right)
    if node.op == "add":
        return l + r
    if node.op == "sub":
        return l - r
    if node.op == "mul":
        return l * r
    return l / r


# (DOWN kernel, UP kernel) per operator; every operand is nonnegative where
# mul and div are drawn, so only sub and div flip the right operand.
_KERNELS = {
    "add": (dn_add, up_add),
    "sub": (dn_sub, up_sub),
    "mul": (dn_mul, up_mul),
    "div": (dn_div, up_div),
}


def eval_dir(node, up):
    """Evaluate on the engine's up_*/dn_* kernels: a DOWN (up=False) or UP
    (up=True) bound on the exact value of the tree."""
    if node.op == "leaf":
        f = node.frac
        return (ratio_up if up else ratio_dn)(f.numerator, f.denominator)
    flip = node.op in ("sub", "div")
    left = eval_dir(node.left, up)
    right = eval_dir(node.right, up != flip)
    return _KERNELS[node.op][up](left, right)


def check_trees(n_trees, seed):
    rng = random.Random(seed)
    violations = 0
    for _ in range(n_trees):
        tree = random_tree(rng, rng.randrange(1, 5))
        exact = eval_exact(tree)
        lo = eval_dir(tree, up=False)
        hi = eval_dir(tree, up=True)
        if not (Fraction(lo) <= exact <= Fraction(hi)):
            violations += 1
    return violations


def test_expression_trees_bracket_exact():
    assert check_trees(10**4, seed=2024) == 0
