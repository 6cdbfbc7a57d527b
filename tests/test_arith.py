import random
from fractions import Fraction
from math import gcd

import pytest

import numpy as np

from oracles import abundancy, factorize, iter_smooth, naive_sigma_upto, sigma, split_smooth
from sigbound.arith import primes_upto
from sigbound.counting import smooth_part_block
from sigbound.errors import InvalidParameterError


def brute_sigma(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


class TestSievePrimes:
    def test_small(self):
        got = primes_upto(10)
        assert got.dtype == np.int64 and got.tolist() == [2, 3, 5, 7]

    def test_smallest_bound(self):
        assert primes_upto(2).tolist() == [2]

    def test_count_to_65536_against_independent_test(self):
        import sympy

        primes = primes_upto(65536).tolist()
        assert len(primes) == 6542
        # spot-verify membership both ways with an independent primality test
        rng = random.Random(1)
        for p in rng.sample(primes, 200):
            assert sympy.isprime(p)
        prime_set = set(primes)
        for n in rng.sample(range(2, 65537), 500):
            assert (n in prime_set) == sympy.isprime(n)

    def test_strictly_increasing(self):
        primes = primes_upto(1000).tolist()
        assert all(a < b for a, b in zip(primes, primes[1:]))

    def test_no_primes_below_two(self):
        for bound in (1, 0, -5):
            got = primes_upto(bound)
            assert got.dtype == np.int64 and got.size == 0


class TestSigma:
    def test_one(self):
        assert sigma(()) == 1
        assert sigma(factorize(1)) == 1

    def test_twelve(self):
        assert sigma([(2, 2), (3, 1)]) == 28 == brute_sigma(12)

    def test_nine(self):
        assert sigma([(3, 2)]) == 13 == brute_sigma(9)

    def test_matches_brute_force_up_to_1e4(self):
        for n in range(1, 300):
            assert sigma(factorize(n)) == brute_sigma(n)
        # the rest against an independent divisor-sum sieve
        table = naive_sigma_upto(10**4)
        for n in range(1, 10**4 + 1):
            assert sigma(factorize(n)) == table[n]

    def test_multiplicative_on_random_coprime_pairs(self):
        rng = random.Random(7)
        done = 0
        while done < 200:
            m = rng.randrange(1, 10**4)
            n = rng.randrange(1, 10**4)
            if gcd(m, n) != 1:
                continue
            assert sigma(factorize(m * n)) == sigma(factorize(m)) * sigma(factorize(n))
            done += 1


class TestAbundancy:
    def test_examples(self):
        assert abundancy(()) == Fraction(1)
        assert abundancy([(2, 1)]) == Fraction(3, 2)
        assert abundancy(factorize(15)) == Fraction(8, 5)

    def test_exceeds_one_above_one(self):
        for n in range(2, 500):
            assert abundancy(factorize(n)) > 1


class TestIterSmooth:
    def test_two_three_up_to_100(self):
        values = sorted(iter_smooth([2, 3], 100))
        assert values == [1, 2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 27, 32, 36, 48, 54, 64, 72, 81, 96]

    def test_empty_prime_set(self):
        assert list(iter_smooth([], 10)) == [1]

    def test_three_five_up_to_15(self):
        assert sorted(iter_smooth([3, 5], 15)) == [1, 3, 5, 9, 15]

    def test_factorizations_are_sound(self):
        for v in iter_smooth([2, 5, 7], 10**4):
            assert 1 <= v <= 10**4
            assert {p for p, _ in factorize(v)} <= {2, 5, 7}

    @pytest.mark.parametrize("y", [2, 3, 5, 7])
    def test_matches_largest_smooth_divisor_scan(self, y):
        limit = 10**4
        primes = primes_upto(y).tolist()
        expected = {n for n in range(1, limit + 1) if all(p <= y for p, _ in factorize(n))}
        seen = list(iter_smooth(primes, limit))
        assert len(seen) == len(set(seen)), "a value was visited twice"
        assert set(seen) == expected

    def test_invalid_limit(self):
        with pytest.raises(InvalidParameterError):
            list(iter_smooth([2], 0))


class TestLargestSmoothDivisor:
    """The largest y-smooth divisor of n, from the library's block sieve and
    from the scalar oracle split_smooth over the primes <= y."""

    def test_examples(self):
        for n, y, part, rest in ((12, 2, 4, 3), (12, 3, 12, 1), (35, 5, 5, 7), (1, 7, 1, 1)):
            assert split_smooth(n, primes_upto(y).tolist()) == (part, rest)
            assert smooth_part_block(n, n + 1, y).tolist() == [part]
