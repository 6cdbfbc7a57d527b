import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from oracles import exact_fold, fold_laws, fold_nearest, moment_upper, tail_factor
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
        assert table_y31_r200.orders[0] == 1
        assert table_y31_r200.values[0] == moment_r1_exact(31)

    def test_all_values_at_least_one(self, table_y31_r200):
        assert len(table_y31_r200.values) == 70
        assert all(v >= 1.0 for v in table_y31_r200.values)

    def test_roots_certified_by_down_powering(self, table_y31_r200):
        t = table_y31_r200
        for r, v, root in zip(t.orders[1:], t.values[1:], t.roots[1:]):
            if math.isfinite(v):
                assert pow_dn(root, r) >= v

    def test_vector_build_matches_scalar(self, table_y31_r200):
        values = dict(zip(table_y31_r200.orders, table_y31_r200.values))
        for r in (2, 3, 17, 200):
            scalar = moment_upper(31, r)
            assert values[r] == pytest.approx(scalar, rel=1e-10)

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
            got = table_y31_r200.roots[r - 1]  # every order up to 32
            assert got >= true_root
            assert got <= float(true_root) * (1 + 1e-9)

    def test_roots_are_computed_on_first_access(self):
        t = build_moment_table(31, 50)
        assert "roots" not in vars(t)
        roots = t.roots
        assert vars(t)["roots"] is roots and t.roots is roots

    def test_paper_scale_table_shape(self):
        t = build_moment_table(157, 2000)
        assert t.r_max == 2000 and t.orders == moments.moment_orders(2000)
        assert len(t.values) == len(t.roots) == 117
        assert all(v >= 1.0 for v in t.values)
        assert math.isfinite(t.values[-1])
        t = build_moment_table(157, 2000, every_order=True)
        assert t.orders == tuple(range(1, 2001)) and len(t.values) == 2000

    def test_saturated_orders_marked_unusable(self):
        # y=2 pushes the p=3 factor to overflow well before r=3000
        for every_order in (False, True):
            t = build_moment_table(2, 3000, every_order)
            assert not math.isfinite(t.values[-1])
            assert t.roots[-1] == math.inf

    def test_tail_factors_match_the_scalar_form(self):
        # r = 37,599 is the first order whose exponent passes 1/16, so the
        # orders above it take exp_up's halve-and-square path
        rate = ratio_up(16623114, 10**13)
        assert up_mul(rate, 37598.0) <= 0.0625 < up_mul(rate, 37599.0)
        got = moments._tail_factors(range(1, 40_001))
        want = np.array([tail_factor(r) for r in range(1, 40_001)])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_empty_product_is_the_tail_factor(self):
        t = build_moment_table(65521, 300)
        assert list(t.values[1:]) == [tail_factor(r) for r in t.orders[1:]]

    def test_orders_above_the_ceiling_are_unsupported(self):
        # checked before any order is tabulated, so a huge r_max fails at once
        for r_max in (MAX_ORDER + 1, 10**30):
            with pytest.raises(UnsupportedParameterError, match=str(MAX_ORDER)):
                build_moment_table(31, r_max)
        assert build_moment_table(2, MAX_ORDER).r_max == MAX_ORDER

    def test_tables_need_increasing_orders_from_one(self):
        for orders, values in (((1, 3, 3), (1.0, 2.0, 3.0)), ((2, 3), (1.0, 2.0)),
                               ((1, 2), (1.0,)), ((), ())):
            with pytest.raises(InvalidParameterError):
                moments.MomentTable(y=3, orders=orders, values=values)


class TestOrders:
    """The sparse orders of the table run_bounds builds (moments.moment_orders)
    and the step of each factor by the power of the gap."""

    def test_every_order_to_32_then_a_ratio_of_21_20(self):
        for r_max, count in ((200, 70), (500, 89), (2000, 117), (4000, 131)):
            orders = moments.moment_orders(r_max)
            assert len(orders) == count and orders[:32] == tuple(range(1, 33))
            assert orders[-1] == r_max
            assert orders[32:-1] == tuple(math.ceil(32 * Fraction(21, 20)**k)
                                          for k in range(1, len(orders) - 32))
            assert all(a < b for a, b in zip(orders, orders[1:]))
        for r_max in (1, 20, 32):
            assert moments.moment_orders(r_max) == tuple(range(1, r_max + 1))
        assert moments.moment_orders(33) == (*range(1, 33), 33)

    @pytest.mark.parametrize("y", [2, 31, 353, 1009])
    def test_values_never_fall_along_the_orders(self, y):
        # bound_curves stops carrying q^r past a cap crossing only if M(r)
        # does not fall from one order to the next
        t = build_moment_table(y, 4000)
        live = [v for v in t.values if math.isfinite(v)]
        assert len(live) > 32
        assert all(a <= b for a, b in zip(live, live[1:]))

    def test_values_match_the_scalar_oracle_up_to_4000(self):
        # every order of the sparse set at r_max = 4000, over every 32nd
        # mid prime past 1009, then the whole product at three orders
        mids = moments._mid_primes(1009)[::32]
        orders = moments.moment_orders(4000)
        got = moments._bulk_values(orders, mids)
        for r, v in zip(orders[1:], got[1:]):
            assert v == pytest.approx(moment_upper(1009, r, mids), rel=1e-10), r
        t = build_moment_table(1009, 4000)
        values = dict(zip(t.orders, t.values))
        for r in (34, 447, 4000):
            assert values[r] == pytest.approx(moment_upper(1009, r), rel=1e-10), r

    def test_values_bound_the_exact_product(self):
        # with 12 mid primes, the exact factors in mpmath: each order's
        # value, built by directed gap powers, is at least the exact product
        # times the tail factor
        mids = moments._mid_primes(31)[:12]
        orders = (1, 2, 5, 12, 40, 41, 100, 227, 1000, 2047)
        got = moments._bulk_values(orders, mids)
        for r, v in zip(orders[1:], got[1:]):
            acc = mp.mpf(1)
            for p in mids:
                t1 = ((1 + mp.mpf(1) / p) ** r - 1) / p
                t2 = mp.mpf(r) / ((p**4 - p**2) * (1 - mp.mpf(1) / p) ** (r - 1))
                acc *= 1 + t1 + t2
            acc *= mp.exp(mp.mpf(16623114) / 10**13 * r)
            assert v >= acc, r
            assert v <= acc * (1 + mp.mpf(10) ** -10), r


class TestFold:
    """moments.fold_curve and its parts: the log grid bounds, the law of
    one prime and the fold of the laws into a curve (the fold lemma in the
    moments docstring)."""

    def test_pow2_bounds_bracket_every_grid_point(self):
        mp.mp.dps = 40
        bits = moments._LOG_BITS
        n = 2 << bits
        lo, hi = moments._pow2_bounds(bits, n)
        assert lo.size == hi.size == 2 * n + 1
        assert np.all(np.diff(lo) > 0) and np.all(np.diff(hi) > 0)
        assert hi[0] == 0.25 and hi[n] == 1.0 and hi[-1] == 4.0
        for i in range(-n, n + 1, 7):
            exact = mp.power(2, mp.mpf(i) / 2**bits)
            assert lo[i + n] <= exact <= hi[i + n], i
            # exp_up's halvings and squarings leave a relative slack of
            # about 1e-14
            assert hi[i + n] - lo[i + n] <= 1e-13 * hi[i + n]

    def test_law_is_the_exact_law_moved_to_safe_offsets(self):
        # as a law over the offsets, each prime's term puts at least the
        # exact mass at or below every offset (so a non-increasing curve
        # reads it no lower), and no more than rounding adds: every atom the
        # law keeps sits at its exact offset, and the rest of each side
        # where the atoms past the last kept one sit once they converge
        mp.mp.dps = 60
        bits = moments._LOG_BITS
        n = 2 << bits
        lo, hi = (b[n:] for b in moments._pow2_bounds(bits, n))
        for p in primes_upto(1009).tolist()[1:]:
            law = moments._law(p, lo, hi, moments._FOLD_CUTOFF)
            exact = {0: Fraction(p - 2, p)}
            pk = p
            while Fraction(p - 1, pk * p) > Fraction(1, 2**80):
                h = mp.mpf(pk * p - 1) / (pk * (p - 1))
                fl = int(mp.floor(mp.log(h, 2) * 2**bits))
                for off in (-fl - 1, fl):
                    exact[off] = exact.get(off, 0) + Fraction(p - 1, pk * p)
                pk *= p
            got, want = Fraction(0), Fraction(0)
            for off in sorted(set(exact) | {off for off, _ in law}):
                got += sum(Fraction(m) for o, m in law if o == off)
                want += exact.get(off, 0)
                assert want - Fraction(1, 2**70) <= got <= want + Fraction(1, 2**48), (p, off)

    # The box oracle: the curve 1 / (1 + (i/16)^2) on a log grid of step
    # 2^-6, folded with the primes in (2, 13]. The cutoff 1/81 keeps three
    # atoms of 3 on each side, two of 5 and 7 and one of 11 and 13, and
    # leaves a rest of mass 1/81 of 3 on each side.
    BOX_BITS = 6
    BOX_CUTOFF = Fraction(1, 81)
    BOX_PRIMES = (3, 5, 7, 11, 13)

    def box_curves(self):
        n = 2 << self.BOX_BITS
        lo, hi = (b[n:] for b in moments._pow2_bounds(self.BOX_BITS, n))
        f = [1.0] * (n + 1) + [1.0 / (1.0 + (i / 16) ** 2) for i in range(1, n + 1)]
        laws = [moments._law(p, lo, hi, self.BOX_CUTOFF) for p in self.BOX_PRIMES]
        return f, moments._fold(np.array(f), laws)

    def test_fold_lies_above_the_exact_box_fold(self):
        f, got = self.box_curves()
        low = exact_fold(f, self.BOX_PRIMES, self.BOX_BITS, self.BOX_CUTOFF, tight=False)
        assert all(Fraction(g) >= w for g, w in zip(got.tolist(), low))
        # and by more than rounding somewhere: the rest of 3 is read at
        # other offsets than the exact lower fold reads it
        assert max(float(Fraction(g) - w) for g, w in zip(got.tolist(), low)) > 1e-5

    def test_fold_is_the_box_fold_up_to_rounding(self):
        f, got = self.box_curves()
        high = exact_fold(f, self.BOX_PRIMES, self.BOX_BITS, self.BOX_CUTOFF, tight=True)
        assert all(abs(Fraction(g) - w) <= Fraction(1, 10**13) for g, w in zip(got.tolist(), high))

    def test_fold_is_at_least_the_exact_fold_where_sums_round_down(self):
        # dyadic masses make every product exact, so only the adds round
        # 1. Ties: point i of the curve is c_i 2^-53 with c_i + c_(i+1) = 1
        #    mod 4, so each sum (c_i + c_(i+1)) 2^-54 of the law (1/2, 1/2)
        #    is a tie, which rounds to the even c below it, at every point
        #    but the last (which reads its own value twice).
        # 2. Eight laws on a seeded non-increasing curve: their rounding
        #    falls more than one ULP below the exact fold at some point, so
        #    one step UP without the slack does not cover it either.
        def exact_and_nearest(f, laws):
            exact = fold_laws(f.tolist(), laws)
            got = moments._fold(f, laws)
            assert all(Fraction(g) >= e for g, e in zip(got.tolist(), exact))
            return exact, fold_nearest(f, laws).tolist()

        c = [2**53 - 1 - 4 * (i // 2) - i % 2 for i in range(257)]
        exact, nearest = exact_and_nearest(np.array(c) * 2.0**-53, [((0, 0.5), (1, 0.5))])
        assert sum(Fraction(v) < e for v, e in zip(nearest, exact)) == 256
        f = np.sort(np.random.default_rng(1).uniform(0.5, 1.0, 257))[::-1].copy()
        laws = ([((0, 0.375), (1, 0.25), (2, 0.25), (3, 0.125))] * 4
                + [((-1, 0.125), (0, 0.5), (2, 0.375))] * 4)
        exact, nearest = exact_and_nearest(f, laws)
        assert any(Fraction(math.nextafter(v, 2.0)) < e for v, e in zip(nearest, exact))

    def test_fold_refuses_products_below_the_normal_doubles(self):
        # 2^-1000 * 2^-30 would be subnormal, where the rounding bound fails
        with pytest.raises(AssertionError, match="bug"):
            moments._fold(np.full(8, 2.0**-1000), [((0, 2.0**-30), (1, 1.0))])

    def test_fold_curve_is_a_non_increasing_bound_at_most_one(self, table_y1009_r200):
        hi, s = moments.fold_curve(table_y1009_r200, 31)
        n = moments._LOG_HALF
        assert hi.size == s.size == 2 * n + 1 == (1 << (moments._LOG_BITS + 2)) + 1
        assert np.all(np.diff(s) <= 0) and s[0] == 1.0 and 0.0 < s[-1] < 1e-9
        # a table at y folds nothing, but fold_curve still reads its moment
        # curve on the log grid, at most 1/2 past 1 and 1 up to 1
        hi, s = moments.fold_curve(build_moment_table(1009, 200), 1009)
        assert np.all(s[:n + 1] == 1.0) and np.all(s[n + 1:] <= 0.5)
