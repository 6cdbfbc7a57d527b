import numpy as np
import pytest

from sigbound.arith import abundancy, factorize, largest_smooth_divisor, sieve_primes, sigma
from sigbound.counting import (
    count_sigma_ge,
    moment_sum,
    naive_sigma_upto,
    sigma_block,
    smooth_part_block,
)
from sigbound.errors import InvalidParameterError
from sigbound.moments import moment_r1_exact


class TestSigmaBlock:
    def test_matches_naive_sums_to_1e5(self):
        oracle = naive_sigma_upto(10**5)
        got = sigma_block(1, 10**5 + 1)
        assert [int(v) for v in got] == oracle[1:]

    def test_segmented_equals_whole(self):
        whole = sigma_block(1, 20001)
        pieces = np.concatenate([sigma_block(1, 7001), sigma_block(7001, 13000), sigma_block(13000, 20001)])
        assert np.array_equal(whole, pieces)

    def test_bad_range(self):
        with pytest.raises(InvalidParameterError):
            sigma_block(5, 5)
        with pytest.raises(InvalidParameterError):
            sigma_block(0, 10)


class TestSmoothPartBlock:
    @pytest.mark.parametrize("y", [2, 3, 7])
    def test_matches_scalar_oracle(self, y):
        got = smooth_part_block(1, 5001, y)
        for n in range(1, 5001):
            assert int(got[n - 1]) == largest_smooth_divisor(n, y)


class TestCountSigmaGe:
    def test_table_values(self):
        assert count_sigma_ge(10**3) == (60, 0.06)
        assert count_sigma_ge(10**4)[0] == 551
        # computed by this artifact; the published table misprints this row
        assert count_sigma_ge(10**5)[0] == 5490

    def test_block_size_invariance(self):
        counts = {count_sigma_ge(10**6, block_size=bs)[0] for bs in (10**4, 10**5, 10**6)}
        assert counts == {54603}

    def test_tiny(self):
        # n=1: sigma(3)=4 >= sigma(2)=3
        assert count_sigma_ge(1) == (1, 1.0)
        assert count_sigma_ge(2)[0] == 1  # n=2: sigma(5)=6 < sigma(4)=7

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            count_sigma_ge(0)


class TestAbundancyGe:
    def test_small_cases(self):
        # h(2n+1) < h(2n) at n=1 (4*2 < 3*3) and n=3 (8*6 < 12*7)
        assert abundancy(factorize(3)) < abundancy(factorize(2))
        assert abundancy(factorize(7)) < abundancy(factorize(6))

    def test_prime_odd_side_fails(self):
        # when 2n+1 is prime, sigma(2n) >= 3n+3 beats 2n+2 for n >= 2
        for n in (2, 3, 5, 6, 8, 9, 14, 20, 23):
            if (2 * n + 1) in set(sieve_primes(100).primes):
                assert abundancy(factorize(2 * n + 1)) < abundancy(factorize(2 * n))
                assert sigma(factorize(2 * n + 1)) < sigma(factorize(2 * n))


class TestPartitionOfIntegers:
    def test_every_n_lands_in_exactly_one_valid_cell(self):
        # classify n <= 1e5 by largest 3-smooth divisors of (2n+1, 2n)
        x = 10**5
        part = smooth_part_block(2, 2 * x + 2, 3)
        a_vals = part[1::2][: x]  # 2n+1 for n = 1..x
        b_vals = part[0::2][: x]  # 2n
        assert a_vals.shape == (x,) and b_vals.shape == (x,)
        assert np.all(a_vals % 2 == 1)
        assert np.all(b_vals % 2 == 0)
        g = np.gcd(a_vals, b_vals)
        assert np.all(g == 1)


class TestMomentSum:
    def test_r0_counts_cell_members(self):
        s1, s2 = moment_sum(1, 2, 3, 0, 10**6)
        assert s1 == s2
        # S(1,2) at y=3 is the class n = 5 mod 6
        exact = len(range(5, 10**6 + 1, 6))
        assert s1 == exact

    def test_r1_ratio_approaches_mean_constant(self):
        s1, _ = moment_sum(1, 2, 3, 1, 10**6)
        lam = moment_r1_exact(sieve_primes(3)).value
        norm = s1 / (10**6 * (1 / 6))
        assert norm == pytest.approx(lam, rel=0.02)

    def test_odd_even_ratio_matches_abundancy_ratio(self):
        s1, s2 = moment_sum(3, 2, 3, 1, 10**6)
        assert s1 / s2 == pytest.approx((4 / 3) / (3 / 2), rel=0.02)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            moment_sum(2, 2, 3, 1, 100)
        with pytest.raises(InvalidParameterError):
            moment_sum(1, 3, 3, 1, 100)
        with pytest.raises(InvalidParameterError):
            moment_sum(3, 6, 3, 1, 100)
        with pytest.raises(InvalidParameterError):
            moment_sum(1, 2, 3, -1, 100)
