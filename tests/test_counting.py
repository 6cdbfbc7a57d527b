import random

import numpy as np
import pytest
import sympy

from oracles import abundancy, factorize, naive_sigma_upto, sigma
from sigbound import counting
from sigbound.arith import sieve_primes, split_smooth
from sigbound.counting import (
    MAX_BLOCK,
    count_sigma_ge,
    moment_sum,
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

    def test_short_windows_match_naive_sums(self):
        # windows shorter than p and p^2 for the small primes, and windows
        # that end before the first multiple of p^k ((-lo) % p^k >= n)
        oracle = naive_sigma_upto(700)
        for lo in range(2, 600):
            for n in (1, 2, 3, 4, 5, 8, 9, 26, 50):
                got = sigma_block(lo, lo + n)
                assert got.dtype == np.int64
                assert [int(v) for v in got] == oracle[lo : lo + n], (lo, n)

    def test_offset_windows_match_naive_sums(self):
        oracle = naive_sigma_upto(3 * 10**4)
        rng = random.Random(11)
        for _ in range(40):
            lo = rng.randrange(2, 2 * 10**4)
            hi = lo + rng.randrange(1, 10**4)
            assert [int(v) for v in sigma_block(lo, hi)] == oracle[lo:hi], (lo, hi)

    def test_matches_factored_sigma_below_the_sieve_limit(self):
        # sieving by every prime up to sqrt(4e17) is too big for a test; the
        # primes that divide no integer of the window change nothing, so the
        # window is sieved by the small prime factors of its own integers
        hi = 4 * 10**17
        lo = hi - 300
        factors = [sympy.factorint(m) for m in range(lo, hi)]
        primes = tuple(sorted({p for f in factors for p in f if p * p < hi}))
        got = sigma_block(lo, hi, primes)
        assert [int(v) for v in got] == [sigma(tuple(f.items())) for f in factors]

    def test_bad_range(self):
        with pytest.raises(InvalidParameterError):
            sigma_block(5, 5)
        with pytest.raises(InvalidParameterError):
            sigma_block(0, 10)
        with pytest.raises(InvalidParameterError):
            sigma_block(4 * 10**17 - 10, 4 * 10**17 + 1, (2, 3))


class TestSmoothPartBlock:
    @pytest.mark.parametrize("y", [2, 3, 7])
    def test_matches_scalar_oracle(self, y):
        got = smooth_part_block(1, 5001, y)
        primes = sieve_primes(y)
        for n in range(1, 5001):
            assert int(got[n - 1]) == split_smooth(n, primes)[0].value

    @pytest.mark.parametrize("y", [2, 3, 5, 31, 353])
    def test_matches_split_smooth_on_random_windows(self, y):
        primes = sieve_primes(y)
        rng = random.Random(y)
        for _ in range(20):
            lo = rng.randrange(1, 10 ** rng.randrange(2, 16))
            hi = lo + rng.randrange(1, 2000)
            got = smooth_part_block(lo, hi, y)
            assert [int(v) for v in got] == [split_smooth(m, primes)[0].value for m in range(lo, hi)]


class TestCountSigmaGe:
    def test_table_values(self):
        assert count_sigma_ge(10**3) == (60, 0.06)
        assert count_sigma_ge(10**4)[0] == 551
        # computed by this artifact; the published table misprints this row
        assert count_sigma_ge(10**5)[0] == 5490

    def test_block_size_invariance(self, monkeypatch):
        def count_with_block(x, size):
            with monkeypatch.context() as m:
                if size is not None:
                    m.setattr(counting, "_block_for", lambda primes: size)
                return count_sigma_ge(x)[0]

        counts = {count_with_block(10**6, bs) for bs in (None, 10**4, 10**4 + 1, 10**5, 10**6)}
        assert counts == {54603}
        # one sieve call per n or two: 10^6 of them would take a minute
        assert {count_with_block(10**4, bs) for bs in (2, 3)} == {551}
        assert count_with_block(10**3, MAX_BLOCK) == 60

    def test_derived_block_size(self):
        def derived(x):
            return counting._block_for(counting._sieving_primes(x))

        assert derived(10**7) == 2**18 == 262_144
        assert derived(10**3) == 2**18
        # 256 integers per sieving prime, up to isqrt(2e9 + 1) = 44721
        assert derived(10**9) == 256 * len(sieve_primes(44721).primes)
        assert derived(10**12) == MAX_BLOCK == 2**24

    def test_tiny(self):
        # n=1: sigma(3)=4 >= sigma(2)=3
        assert count_sigma_ge(1) == (1, 1.0)
        assert count_sigma_ge(2)[0] == 1  # n=2: sigma(5)=6 < sigma(4)=7

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            count_sigma_ge(0)
        # rejected before the primes up to sqrt(2x) are sieved
        with pytest.raises(InvalidParameterError, match="int64-safe"):
            count_sigma_ge(10**20)
        with pytest.raises(InvalidParameterError, match="int64-safe"):
            moment_sum(1, 2, 3, 1, 10**20)


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
