import random
from math import isqrt

import numpy as np
import pytest
import sympy

from oracles import abundancy, factorize, naive_sigma_upto, sigma, split_smooth
from sigbound import arith, counting
from sigbound.arith import primes_upto
from sigbound.counting import (
    MAX_BLOCK,
    count_sigma_ge,
    moment_sum,
    sigma_block,
    smooth_part_block,
)
from sigbound.errors import InvalidCellError, InvalidParameterError, UnsupportedParameterError
from sigbound.moments import MAX_ORDER, PRIME_CEILING, moment_r1_exact


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


def _sympy_sigmas(values):
    return [sigma(tuple(sympy.factorint(m).items())) for m in values]


def _window_primes(lo, hi):
    """The primes p with p * p < hi that divide an integer of [lo, hi): the
    primes that do not change nothing, so they sieve the window exactly."""
    return tuple(sorted({p for m in range(lo, hi) for p in sympy.factorint(m) if p * p < hi}))


class TestSigmaBlockKernel:
    """The three parts of a block: the 2-part from m & -m, one strided pass
    per prime power up to the cutoff, and the scattered batches above it."""

    @pytest.mark.parametrize("n", [2**14, 2**16, 2**18])
    def test_cube_of_the_first_scattered_prime(self, n):
        # its cube is the smallest integer a sieve that assumed no cubes above
        # the cutoff would get wrong
        q = sympy.nextprime(n // counting._STRIDED_MULTIPLES)
        lo = q**3 - n // 2
        got = sigma_block(lo, lo + n)
        rng = random.Random(n)
        checked = set(range(q**3 - 3, q**3 + 4)) | set(range(lo + (-lo) % q, lo + n, q))
        checked |= {rng.randrange(lo, lo + n) for _ in range(200)}
        checked = sorted(checked)
        assert [int(got[m - lo]) for m in checked] == _sympy_sigmas(checked)

    def test_cube_of_271(self):
        # 271 is scattered in a 2^16 block and strided in a 2^18 block
        for n in (2**16, 2**18):
            lo = 19_902_511 - n // 3
            got = sigma_block(lo, lo + n)
            multiples = range(lo + (-lo) % 271, lo + n, 271)
            assert [int(got[m - lo]) for m in multiples] == _sympy_sigmas(multiples)
            assert int(got[19_902_511 - lo]) == 1 + 271 + 271**2 + 271**3

    def test_square_and_product_of_two_scattered_primes(self):
        n = 2**18
        q = sympy.nextprime(n // counting._STRIDED_MULTIPLES)
        r = sympy.nextprime(q)
        lo = q * q - 1000
        got = sigma_block(lo, lo + n)
        both = [m for m in range(lo, lo + n) if m % q == 0 and m % r == 0]
        assert q * r in both
        squares = range(q * q, lo + n, q * q)
        checked = sorted(set(both) | set(squares) | set(range(lo, lo + n, 997)))
        assert [int(got[m - lo]) for m in checked] == _sympy_sigmas(checked)

    def test_high_powers_of_two_below_the_sieve_limit(self):
        for center in (2**58, 5 * 2**56, 3 * 2**56, 2**58 + 2**40):
            lo, hi = center - 40, center + 40
            got = sigma_block(lo, hi, _window_primes(lo, hi))
            assert [int(v) for v in got] == _sympy_sigmas(range(lo, hi)), center
        assert int(sigma_block(2**58, 2**58 + 1, ())[0]) == 2**59 - 1

    def test_short_windows_at_large_lo(self):
        # odd and even lo, one to three integers, where every prime but 2 is
        # scattered (the cutoff of a block this short is 0)
        for center in (19_902_511, 521**3, 2**58, 4 * 10**17 - 4):
            for lo in range(center - 3, center + 1):
                for n in (1, 2, 3):
                    got = sigma_block(lo, lo + n, _window_primes(lo, lo + n))
                    assert [int(v) for v in got] == _sympy_sigmas(range(lo, lo + n)), (lo, n)

    def test_high_powers_of_small_primes(self):
        # every level p^k < hi of a strided pass (2^13 integers stride 3..13)
        # and of a scattered batch (the shorter windows)
        powers = [3**16, 5**11, 7**9, 11**7, 13**7, 9 * 25 * 49 * 121 * 169, 3**4 * 13**3 * 17**2]
        for center in powers:
            for n in (1, 2, 3, 80, 2**13):
                lo = center - n // 2
                got = sigma_block(lo, lo + n)
                checked = range(max(lo, center - 40), min(lo + n, center + 41))
                assert [int(got[m - lo]) for m in checked] == _sympy_sigmas(checked), (center, n)

    def test_windows_across_chunks(self):
        chunk = counting._CHUNK
        oracle = naive_sigma_upto(4 * chunk + 10)
        for lo in (chunk - 1, chunk, chunk + 1, 2 * chunk - 7, 3 * chunk):
            for n in (1, 2, 3, 15, chunk, chunk + 1, 2 * chunk + 3):
                hi = min(lo + n, len(oracle))
                assert [int(v) for v in sigma_block(lo, hi)] == oracle[lo:hi], (lo, n)

    @pytest.mark.parametrize("multiples, batch", [(1, 2**12), (10**9, 2**12), (10**9, 1), (8, 1)])
    def test_any_cutoff_and_batch_gives_the_same_sums(self, monkeypatch, multiples, batch):
        # all primes strided, all scattered, scattered one prime per batch,
        # and a mix with small batches
        monkeypatch.setattr(counting, "_STRIDED_MULTIPLES", multiples)
        monkeypatch.setattr(counting, "_MIN_BATCH", batch)
        oracle = naive_sigma_upto(3 * 10**4)
        rng = random.Random(multiples + batch)
        for _ in range(30):
            lo = rng.randrange(1, 2 * 10**4)
            hi = lo + rng.randrange(1, 10**4)
            assert [int(v) for v in sigma_block(lo, hi)] == oracle[lo:hi], (lo, hi)

    def test_reused_buffers_match_fresh_blocks(self):
        primes = counting._sieving_primes(10**5)
        for dtype in (np.int64, np.uint32):
            work = counting._Work(5000, dtype)
            for lo, hi in ((2, 5002), (5002, 6000), (6000, 6001), (123457, 128000)):
                got = sigma_block(lo, hi, primes, work=work)
                assert np.shares_memory(got, work.sig) and got.dtype == dtype
                assert np.array_equal(got, sigma_block(lo, hi, primes))

    def test_uint32_window_at_the_top_of_its_range(self):
        # the largest hi with 7 * hi < 2**32; the window's largest sigma is
        # above 2**31, so a signed 32-bit word would not hold it
        hi = (2**32 - 1) // 7
        lo = hi - 5000
        primes = primes_upto(isqrt(hi - 1))
        got = sigma_block(lo, hi, primes, work=counting._Work(hi - lo, np.uint32))
        want = sigma_block(lo, hi, primes)
        assert got.dtype == np.uint32 and want.dtype == np.int64
        assert np.array_equal(got, want)
        assert int(want.max()) == 2_539_373_760 > 2**31

    def test_narrow_buffers_cannot_overflow_silently(self):
        hi = (2**32 - 1) // 7
        primes = primes_upto(isqrt(hi))
        work = counting._Work(100, np.uint32)
        sigma_block(hi - 100, hi, primes, work=work)  # 7 * hi < 2**32
        with pytest.raises(InvalidParameterError, match="overflows the uint32"):
            sigma_block(hi - 99, hi + 1, primes, work=work)
        with pytest.raises(InvalidParameterError, match="overflows the uint32"):
            sigma_block(10**12, 10**12 + 100, primes, work=work)


class TestSievingPrimes:
    def test_int64_primes_equal_the_prime_table(self):
        got = counting._sieving_primes(10**7)
        assert got.dtype == np.int64
        assert got.tolist() == list(sympy.primerange(2, isqrt(2 * 10**7 + 1) + 1))

    @pytest.mark.parametrize("segment", [1, 2, 7, 64])
    def test_segments_join_exactly(self, monkeypatch, segment):
        monkeypatch.setattr(arith, "_PRIME_SEGMENT", segment)
        for bound in (1, 2, 3, 4, 9, 25, 26, 127, 128, 1000, 4099):
            expected = list(sympy.primerange(2, bound + 1))
            assert primes_upto(bound).tolist() == expected, bound


class TestSmoothPartBlock:
    @pytest.mark.parametrize("y", [2, 3, 7])
    def test_matches_scalar_oracle(self, y):
        got = smooth_part_block(1, 5001, y)
        primes = primes_upto(y).tolist()
        for n in range(1, 5001):
            assert int(got[n - 1]) == split_smooth(n, primes)[0]

    @pytest.mark.parametrize("y", [2, 3, 5, 31, 353])
    def test_matches_split_smooth_on_random_windows(self, y):
        primes = primes_upto(y).tolist()
        rng = random.Random(y)
        for _ in range(20):
            lo = rng.randrange(1, 10 ** rng.randrange(2, 16))
            hi = lo + rng.randrange(1, 2000)
            got = smooth_part_block(lo, hi, y)
            assert [int(v) for v in got] == [split_smooth(m, primes)[0] for m in range(lo, hi)]

    def test_y_beyond_the_block_is_not_sieved(self):
        # no m < hi has a prime factor above hi - 1, so a huge y sieves only
        # up to hi - 1 and gives the result of y = hi - 1
        assert np.array_equal(smooth_part_block(10, 20, 10**18), smooth_part_block(10, 20, 19))

    def test_bad_range(self):
        with pytest.raises(InvalidParameterError):
            smooth_part_block(0, 10, 3)
        with pytest.raises(InvalidParameterError):
            smooth_part_block(5, 5, 3)

    def test_two_part_near_2_to_58(self):
        lo, hi = 2**58 - 5, 2**58 + 6
        assert [int(v) for v in smooth_part_block(lo, hi, 2)] == [m & -m for m in range(lo, hi)]


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
        assert derived(10**9) == 256 * len(primes_upto(44721))
        assert derived(10**12) == MAX_BLOCK == 2**24

    def test_benchmark_reference(self):
        assert count_sigma_ge(10**7)[0] == 546_879

    def test_word_width_follows_x(self):
        # uint32 up to the largest x with 7 * (2x + 2) < 2**32, int64 above
        x = (2**32 - 1) // 14 - 1
        assert 7 * (2 * x + 2) < 2**32 <= 7 * (2 * x + 4)
        for xs, dtype in ((x, np.uint32), (x + 1, np.int64)):
            work = counting._work_for(xs, 16)
            assert {a.dtype for a in (work.sig, work.part, work.iota, work.scratch)} == {np.dtype(dtype)}

    def test_uint32_blocks_equal_int64_blocks(self, monkeypatch):
        blocks = []

        def checked(lo, hi, primes, *, work):
            got = sieve(lo, hi, primes, work=work)
            assert got.dtype == np.uint32
            assert np.array_equal(got, sieve(lo, hi, primes)), (lo, hi)
            blocks.append(lo)
            return got

        sieve = counting.sigma_block
        monkeypatch.setattr(counting, "sigma_block", checked)
        assert count_sigma_ge(10**6)[0] == 54603
        assert len(blocks) == 8

    def test_one_sigma_block_call_per_block(self, monkeypatch):
        # the benchmark's per-layer spans wrap the module-level name
        calls = []

        def counted(lo, hi, *args, **kwargs):
            calls.append((lo, hi))
            return sieve(lo, hi, *args, **kwargs)

        sieve = counting.sigma_block
        monkeypatch.setattr(counting, "sigma_block", counted)
        assert count_sigma_ge(10**6)[0] == 54603
        half = counting._block_for(counting._sieving_primes(10**6)) // 2
        assert len(calls) == -(-(10**6) // half) == 8
        assert calls[0][0] == 2 and calls[-1][1] == 2 * 10**6 + 2

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
            if sympy.isprime(2 * n + 1):
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
        lam = moment_r1_exact(3)
        norm = s1 / (10**6 * (1 / 6))
        assert norm == pytest.approx(lam, rel=0.02)

    def test_odd_even_ratio_matches_abundancy_ratio(self):
        s1, s2 = moment_sum(3, 2, 3, 1, 10**6)
        assert s1 / s2 == pytest.approx((4 / 3) / (3 / 2), rel=0.02)

    @pytest.mark.parametrize("a,b,r", [(1, 2, 0), (1, 2, 1), (3, 2, 1)])
    def test_uint32_sums_equal_int64_sums(self, monkeypatch, a, b, r):
        got = moment_sum(a, b, 3, r, 10**6)
        monkeypatch.setattr(counting, "_work_for", lambda x, n: counting._Work(n))
        assert got == moment_sum(a, b, 3, r, 10**6)

    def test_y_beyond_the_blocks_is_not_sieved(self):
        # every n <= 100 has 2n and 2n + 1 below 202, so the largest
        # supported y gives the sums of y = 201 without sieving the primes
        # up to y
        for a, b, r in ((1, 2, 1), (3, 2, 2), (1, 2, 0)):
            assert moment_sum(a, b, PRIME_CEILING - 1, r, 100) == moment_sum(a, b, 201, r, 100)

    def test_orders_above_the_ceiling_are_unsupported(self):
        assert moment_sum(1, 2, 3, MAX_ORDER, 10)[0] > 0
        for r in (MAX_ORDER + 1, 10**400):
            with pytest.raises(UnsupportedParameterError, match=str(MAX_ORDER)):
                moment_sum(1, 2, 3, r, 10)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            moment_sum(2, 2, 3, 1, 100)
        with pytest.raises(InvalidParameterError):
            moment_sum(1, 3, 3, 1, 100)
        with pytest.raises(InvalidParameterError):
            moment_sum(3, 6, 3, 1, 100)
        with pytest.raises(InvalidParameterError):
            moment_sum(1, 2, 3, -1, 100)

    def test_cells_checked_as_cell_density_checks_them(self):
        # a cell that cannot exist, or a y outside the supported range, is
        # rejected instead of summing to (0.0, 0.0)
        with pytest.raises(InvalidCellError, match="a=5 is not 3-smooth"):
            moment_sum(5, 2, 3, 1, 10**4)
        for y in (PRIME_CEILING, 70000, 10**18):
            with pytest.raises(UnsupportedParameterError, match="65536"):
                moment_sum(1, 2, y, 0, 10**3)
