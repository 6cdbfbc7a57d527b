import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from oracles import moment_upper, tail_factor
from sigbound import moments
from sigbound.arith import primes_upto
from sigbound.dirround import pow_dn, ratio_up, up_mul
from sigbound.errors import InvalidParameterError, UnsupportedParameterError
from sigbound.moments import MAX_ORDER, PRIME_CEILING, build_moment_table, moment_r1_exact

mp.mp.dps = 40


def exact_r1(y):
    """High-precision reference for the order-1 closed form."""
    v = mp.zeta(2)
    for p in primes_upto(y).tolist():
        v *= 1 - mp.mpf(1) / (p * p)
    return v


class TestOrderOneExact:
    def test_y2_value(self):
        v = moment_r1_exact(2)
        assert 1.2337005 <= v <= 1.2337006
        assert v >= exact_r1(2)

    def test_y3_value(self):
        v = moment_r1_exact(3)
        assert abs(v - 1.0966227112321508) < 1e-12
        assert v >= exact_r1(3)

    def test_monotone_decreasing_toward_one(self):
        values = [moment_r1_exact(y) for y in (2, 3, 5, 31, 157, 1000)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] >= 1.0
        assert values[-1] < 1.001


def euler_product_reference(y, r, pmax=10**6):
    """Independent truncation of the defining Euler product with a tail bound.

    Factor at p: 1 + sum_alpha (h^r(p^alpha) - h^r(p^(alpha-1))) / p^alpha,
    over primes p > y. Returns (certified_lower, crude_upper).
    """
    prod = mp.mpf(1)
    for p in primes_upto(pmax).tolist():
        if p <= y:
            continue
        term = mp.mpf(1)
        prev_h = mp.mpf(1)
        pa = mp.mpf(1)
        for alpha in range(1, 60):
            pa *= p
            h = mp.mpf(int((p ** (alpha + 1) - 1) // (p - 1))) / int(p**alpha)
            inc = (h**r - prev_h**r) / pa
            term += inc
            prev_h = h
            if inc < mp.mpf(10) ** -35:
                break
        prod *= term
    # log of the tail factor over p > pmax is below sum 2^r... use the crude
    # bound rho(p)/p <= ((1+1/p)^r - 1)/p <= (2^r - 1)/p for p > r, summed as
    # an integral; for the parameters exercised here it is tiny.
    tail = mp.mpf(2) ** r / (pmax / mp.log(pmax))
    return prod, prod * mp.e**tail


class TestMomentUpper:
    def test_empty_product_near_ceiling(self):
        v = moment_upper(65535, 5)
        assert v >= 1.0
        assert v <= 1.0001  # just the exponential correction

    def test_exact_form_is_tighter_at_r1(self):
        exact = moment_r1_exact(157)
        product = moment_upper(157, 1)
        assert exact <= product

    def test_dominates_independent_euler_product_y3_r2(self):
        lower, _ = euler_product_reference(3, 2, pmax=10**5)
        assert moment_upper(3, 2) >= lower

    @pytest.mark.parametrize("r", [2, 10, 100])
    def test_monotone_in_y(self, r):
        vals = [moment_upper(y, r) for y in (3, 31, 157)]
        assert vals[0] >= vals[1] >= vals[2]

    def test_rejects_bad_parameters(self):
        with pytest.raises(UnsupportedParameterError):
            moment_upper(PRIME_CEILING, 2)
        with pytest.raises(InvalidParameterError):
            moment_upper(1, 2)
        with pytest.raises(InvalidParameterError):
            moment_upper(31, 0)


class TestBuildTable:
    def test_r1_routes_to_exact(self, table_y31_r200):
        assert table_y31_r200.values[1] == moment_r1_exact(31)

    def test_all_values_at_least_one(self, table_y31_r200):
        for r in range(1, 201):
            assert table_y31_r200.values[r] >= 1.0

    def test_roots_certified_by_down_powering(self, table_y31_r200):
        t = table_y31_r200
        for r in range(2, 201):
            v = t.values[r]
            if math.isfinite(v):
                assert pow_dn(t.roots[r], r) >= v

    def test_vector_build_matches_scalar(self, table_y31_r200):
        for r in (2, 3, 17, 200):
            scalar = moment_upper(31, r)
            vec = table_y31_r200.values[r]
            assert vec == pytest.approx(scalar, rel=1e-10)

    def test_roots_track_high_precision_oracle(self, table_y31_r200):
        # the high-precision oracle shows the true root sequence at y=31 is
        # strictly increasing in r (the order-1 closed form is the tightest),
        # so no monotone-decreasing assertion applies; check domination and
        # tightness at sampled orders instead
        for r in (2, 5, 10, 20):
            acc = mp.mpf(1)
            for p in primes_upto(65535).tolist():
                if p <= 31:
                    continue
                t1 = ((1 + mp.mpf(1) / p) ** r - 1) / p
                t2 = mp.mpf(r) / ((p**4 - p**2) * (1 - mp.mpf(1) / p) ** (r - 1))
                acc *= 1 + t1 + t2
            acc *= mp.exp(mp.mpf("1.6623114e-6") * r)
            true_root = acc ** (mp.mpf(1) / r)
            got = table_y31_r200.roots[r]
            assert got >= true_root
            assert got <= float(true_root) * (1 + 1e-9)

    def test_roots_are_computed_on_first_access(self):
        t = build_moment_table(31, 50)
        assert "roots" not in vars(t)
        roots = t.roots
        assert vars(t)["roots"] is roots and t.roots is roots

    def test_paper_scale_table_shape(self):
        t = build_moment_table(157, 2000)
        assert t.r_max == 2000
        assert len(t.values) == 2001
        for r in (1, 2, 100, 1000, 2000):
            assert t.values[r] >= 1.0
        assert math.isfinite(t.values[2000])

    def test_saturated_orders_marked_unusable(self):
        # y=2 pushes the p=3 factor to overflow well before r=3000
        t = build_moment_table(2, 3000)
        assert not math.isfinite(t.values[3000])
        assert t.roots[3000] == math.inf

    def test_tail_factors_match_the_scalar_form(self):
        # r = 37,599 is the first order whose exponent passes 1/16, so the
        # orders above it take exp_up's halve-and-square path
        rate = ratio_up(16623114, 10**13)
        assert up_mul(rate, 37598.0) <= 0.0625 < up_mul(rate, 37599.0)
        got = moments._tail_factors(40_000)[1:]
        want = np.array([tail_factor(r) for r in range(1, 40_001)])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_empty_product_is_the_tail_factor(self):
        t = build_moment_table(65521, 30)
        assert [t.values[r] for r in range(2, 31)] == [tail_factor(r) for r in range(2, 31)]

    def test_orders_above_the_ceiling_are_unsupported(self):
        # checked before any order is tabulated, so a huge r_max fails at once
        for r_max in (MAX_ORDER + 1, 10**30):
            with pytest.raises(UnsupportedParameterError, match=str(MAX_ORDER)):
                build_moment_table(31, r_max)
        assert build_moment_table(2, MAX_ORDER).r_max == MAX_ORDER
