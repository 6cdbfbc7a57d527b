import math
import os
import sys
import time
from fractions import Fraction
from math import gcd

import mpmath as mp
import numpy as np
import pytest

from oracles import (
    abundancy,
    enumerate_cells,
    factorize,
    local_cell_density,
    lower_tail_group,
    lower_tail_groups,
    pair_bounds,
    solve_progression,
    tail_group,
    tail_groups,
)
from sigbound import counting, engine
from sigbound.arith import primes_upto
from sigbound.counting import smooth_part_block
from sigbound.dirround import ratio_dn, ulp_dn, ulp_up
from sigbound.engine import (
    _b_table,
    _cell_tables,
    _chunk_sums,
    _engine_consts,
    _pooled,
    _slot,
    cell_density,
    run_bounds,
)
from sigbound.errors import InvalidCellError, InvalidParameterError, UnsupportedParameterError
from sigbound.moments import build_moment_table

mp.mp.dps = 40


def usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def all_cells(y, z):
    return [(a, b, cell_density(a, b, y)) for a, b in enumerate_cells(y, z)]


class TestCellDensity:
    def test_basic_examples(self):
        assert cell_density(1, 2, 3) == Fraction(1, 6)
        assert cell_density(3, 2, 3) == Fraction(1, 9)
        assert cell_density(15, 2, 5) == Fraction(4, 225)

    @pytest.mark.parametrize("y", [2, 3, 5, 7, 11, 13])
    def test_exact_values_against_local_densities(self, y):
        cells = list(enumerate_cells(y, 300))
        assert len(cells) >= 8
        for a, b in cells:
            assert cell_density(a, b, y) == local_cell_density(a, b, y), (a, b)

    def test_rejects_invalid_cells(self):
        for a, b, y, error, message in (
            (0, 2, 3, InvalidParameterError, "cannot factor 0"),
            (-3, 2, 3, InvalidParameterError, "cannot factor -3"),
            (1, 0, 3, InvalidParameterError, "cannot factor 0"),
            (2, 3, 3, InvalidCellError, "a must be odd, got 2"),
            (3, 3, 3, InvalidCellError, "b must be even, got 3"),
            (3, 6, 3, InvalidCellError, "a and b must be coprime, got 3, 6"),
            (5, 2, 3, InvalidCellError, "a=5 is not 3-smooth"),
            (3, 10, 3, InvalidCellError, "b=10 is not 3-smooth"),
            (1, 2, 1, InvalidParameterError, "smoothness bound must be >= 2, got 1"),
            (1, 2, 65536, UnsupportedParameterError,
             "smoothness bound must stay below 65536, got 65536"),
        ):
            with pytest.raises(error) as info:
                cell_density(a, b, y)
            assert str(info.value) == message, (a, b, y)

    def test_rejects_a_large_prime_factor_at_once(self):
        # 10^18 + 3 is never trial-divided past the primes <= y
        t0 = time.perf_counter()
        with pytest.raises(InvalidCellError, match="is not 7-smooth"):
            cell_density(3, 2 * (10**18 + 3), 7)
        assert time.perf_counter() - t0 < 1.0

    def test_density_cap(self):
        for a, b, dens in all_cells(5, 200):
            assert 0 < dens <= Fraction(2, a * b)


class TestSolveProgression:
    def test_solvable_example(self):
        pc = solve_progression(1, 2, 5, 5, 6)
        assert pc.solvable
        assert pc.step == 6
        assert pc.first_n == 5  # matches a direct scan: n = 5, 11, 17, ...

    def test_first_n_by_direct_scan(self):
        pc = solve_progression(1, 2, 5, 5, 6)
        hits = [
            n
            for n in range(1, 101)
            if (2 * n + 1) % 1 == 0
            and ((2 * n + 1) - 5) % 6 == 0
            and (2 * n) % 2 == 0
            and (n - 5) % 6 == 0
        ]
        assert hits == list(range(pc.first_n, 101, pc.step))

    def test_divisibility_gate(self):
        assert not solve_progression(1, 2, 1, 1, 6).solvable
        assert not solve_progression(3, 2, 1, 5, 6).solvable

    def test_totative_pair_count_example(self):
        tot = [t for t in range(1, 7) if gcd(t, 6) == 1]
        count = sum(
            solve_progression(3, 2, t1, t2, 6).solvable for t1 in tot for t2 in tot
        )
        assert count == 2  # prod_{p | ab} (p-1) = 1*2, no (p-2) factors

    def test_rejects_non_totatives(self):
        with pytest.raises(InvalidParameterError):
            solve_progression(1, 2, 5, 2, 6)  # gcd(t2, 6) = 2
        with pytest.raises(InvalidParameterError):
            solve_progression(1, 2, 3, 5, 6)
        with pytest.raises(InvalidParameterError):
            solve_progression(2, 3, 1, 1, 6)  # a even / b odd

    def test_progression_members_satisfy_conditions(self):
        pc = solve_progression(3, 2, 1, 1, 6)
        assert pc.solvable
        for k in range(5):
            n = pc.first_n + k * pc.step
            assert (2 * n + 1) % 3 == 0
            assert ((2 * n + 1) // 3) % 6 == 1
            assert ((2 * n) // 2) % 6 == 1


class TestOracleEquivalence:
    def test_density_equals_progression_count_y3(self):
        # dens = (#solvable totative pairs) * 2/(a*b*P) for every small cell
        P = 6
        tot = [t for t in range(1, P + 1) if gcd(t, P) == 1]
        for a, b, dens in all_cells(3, 100):
            count = sum(
                solve_progression(a, b, t1, t2, P).solvable
                for t1 in tot
                for t2 in tot
            )
            assert dens == Fraction(2 * count, a * b * P)

    def test_totative_count_formula_y5(self):
        P = 30
        tot = [t for t in range(1, P + 1) if gcd(t, P) == 1]
        for a, b, _ in all_cells(5, 60):
            count = sum(
                solve_progression(a, b, t1, t2, P).solvable
                for t1 in tot
                for t2 in tot
            )
            expected = 1
            for p in (2, 3, 5):
                expected *= p - 1 if (a * b) % p == 0 else p - 2
            assert count == expected


class TestPairBounds:
    def test_upper_example_r1(self):
        # at r = 1 the candidate is dens * (M(1)-1)/(q-1) with q = 3/2
        table = build_moment_table(3, 1)
        pb = pair_bounds(cell_density(1, 2, 3), table, Fraction(1), Fraction(3, 2))
        lam = mp.zeta(2) * 2 / 3
        reference = (lam - 1) / mp.mpf("0.5") * mp.mpf(1) / 6
        assert pb.r_upper == 1
        assert pb.upper.value >= reference
        assert pb.upper.value == pytest.approx(float(reference), rel=1e-9)
        assert pb.lower.value == 0.0 and pb.r_lower == 0

    def test_lower_example_r1(self):
        # w = h(45)/h(2) = 52/45, where the r = 1 candidate 0.339 beats the
        # symmetry cap 1/2
        table = build_moment_table(5, 1)
        dens = cell_density(45, 2, 5)
        pb = pair_bounds(dens, table, Fraction(26, 15), Fraction(3, 2))
        lam = mp.zeta(2) * 2 / 3 * Fraction(24, 25)
        w = mp.mpf(52) / 45
        reference = (w - lam) / (w - 1) * mp.mpf(dens.numerator) / dens.denominator
        assert pb.r_lower == 1
        assert pb.lower.value <= reference
        assert pb.lower.value == pytest.approx(float(reference), rel=1e-9)
        assert pb.upper.value >= float(dens)

    def test_lower_reads_the_cap(self):
        # w = h(15)/h(2) = 16/15: the r = 1 candidate 0.79 leaves the lower
        # bound 0.21 dens, and the cap lifts it to dens/2, stepped down
        table = build_moment_table(5, 1)
        dens = cell_density(15, 2, 5)
        pb = pair_bounds(dens, table, Fraction(8, 5), Fraction(3, 2))
        assert pb.r_lower == 0
        assert Fraction(pb.lower.value) <= dens / 2
        assert pb.lower.value == pytest.approx(float(dens) / 2, rel=1e-15)
        assert pb.upper.value >= float(dens)

    def test_trivial_fallback(self, table_y3_r50):
        # q = h(2)/h(9) = 27/26 ~ 1.038 stays below every tabulated root for
        # y=3 (the smallest is ~1.0966), so no moment order bounds the upper
        # side and only the symmetry cap does: dens/2, stepped up
        dens = cell_density(9, 2, 3)
        assert all(root > 27 / 26 for root in table_y3_r50.roots)
        pb = pair_bounds(dens, table_y3_r50, Fraction(13, 9), Fraction(3, 2))
        assert pb.r_lower == 0 and pb.lower.value == 0.0
        assert pb.r_upper == 0
        assert Fraction(pb.upper.value) >= dens / 2
        assert pb.upper.value == pytest.approx(float(dens) / 2, rel=1e-15)

    def test_sandwich_on_enumerated_cells(self):
        table = build_moment_table(5, 30)
        for a, b, dens in all_cells(5, 300):
            pb = pair_bounds(dens, table, abundancy(factorize(a)), abundancy(factorize(b)))
            assert 0.0 <= pb.lower.value <= pb.upper.value
            assert Fraction(pb.lower.value) <= dens
            # the upper certificate may sit one nudge above the exact density
            assert pb.upper.value <= float(dens) * (1 + 1e-12) + 1e-300


@pytest.fixture(scope="class")
def audit_cells():
    """Every n <= 1e6 grouped by its cell at y = 31: per cell, the exact
    ratio h(b)/h(a), the member count, the hits, the members with
    sigma(2n+1) >= sigma(2n), and the cell (a, b)."""
    x = 10**6
    keys, hit = [], []
    for lo, hi, sieve in counting._blocks(x):
        sig = sieve()
        hit.append(sig[1::2] >= sig[0::2])
        part = smooth_part_block(lo, hi, 31)
        keys.append(part[1::2] * (2 * x + 2) + part[0::2])  # a, b as one key
    cells, cell_of, members = np.unique(np.concatenate(keys), return_inverse=True,
                                        return_counts=True)
    hits = np.bincount(cell_of, weights=np.concatenate(hit))
    cells = list(zip(*(v.tolist() for v in np.divmod(cells, 2 * x + 2))))
    ratios = [abundancy(factorize(b)) / abundancy(factorize(a)) for a, b in cells]
    return ratios, members, hits, cells


def curve_reads(table, ratios):
    """(U, L) per cell, read off the engine's curve as _chunk_sums reads
    them, at q <= h(b)/h(a) and w <= h(a)/h(b) rounded DOWN from the exact
    ratios."""
    q = np.array([ratio_dn(r.numerator, r.denominator) for r in ratios])
    w = np.array([ratio_dn(r.denominator, r.numerator) for r in ratios])
    ru_at = _engine_consts(table, 31).ru_at
    return ru_at[_slot(q)], ulp_dn(1.0 - ru_at[_slot(w)])


class TestCellAudit:
    def test_cell_bounds_hold_on_exact_counts(self, audit_cells, table_y31_r200):
        # each cell with at least min_members members holds hits <= U *
        # members + slack and hits >= L * members - slack. n = 1 is the one
        # hit of the cell (3, 2), 20,678 members against U = 2.6e-7, so the
        # slack is one member; every other cell keeps within its bounds
        # without it. This catches a wrong side of the curve or of its read,
        # not small slack. At x = 1e6, 8 of the 1,156 audited cells read the
        # cap U = 1/2 (their shares run from 0.155 to 0.260), and all 71 on
        # the a side read L >= 1/2 stepped down (shares 0.696 to 0.766).
        ratios, members, hits, _ = audit_cells
        min_members, slack = 100, 1
        big = np.flatnonzero(members >= min_members)
        upper, lower = curve_reads(table_y31_r200, [ratios[i] for i in big])
        a_side = np.array([ratios[i] < 1 for i in big])
        assert big.size > 1000 and (upper < 0.5).any() and (lower > 0.5).any()
        assert np.count_nonzero(upper == 0.5) >= 8
        assert np.count_nonzero(a_side) >= 71
        assert np.all(lower[a_side] >= math.nextafter(0.5, 0.0))
        assert np.all(hits[big] <= upper * members[big] + slack)
        assert np.all(hits[big] >= lower * members[big] - slack)

    def test_pooled_band_shares(self, audit_cells, table_y31_r200):
        # the symmetry lemma on exact counts, pooled over every cell of a
        # band whatever its size: 1,202 of 4,973 members (0.242) with
        # h(b)/h(a) in (1, 1.01] and 1,728 of 2,400 (0.720) in [0.99, 1)
        ratios, members, hits, _ = audit_cells
        r = np.array(ratios, dtype=object)

        def pooled(sel):
            return hits[sel].sum(), members[sel].sum()

        got, of = pooled((r > 1) & (r <= Fraction(101, 100)))
        assert of > 4000 and got <= of / 2
        got, of = pooled((r >= Fraction(99, 100)) & (r < 1))
        assert of > 2000 and got >= of / 2

        # and the hits of each narrower band stay inside the summed curve
        # bounds. The cap binds on every cell of these bands; (hits, sum L,
        # sum U) read (249, 0, 360.5), (444, 0, 889), (509, 0, 1238),
        # (265, 209.5, 419), (557, 384.5, 769) and (906, 606, 1212). A cap
        # at 0.3 would put sum U at 215.7 in the first band and sum L at
        # 293.3 in the fourth; capping the sentinel slot too, sum U at 209.5
        # in the fourth.
        upper, lower = curve_reads(table_y31_r200, ratios)
        bands = [(1, Fraction(1002, 1000)), (Fraction(1002, 1000), Fraction(1005, 1000)),
                 (Fraction(1005, 1000), Fraction(101, 100)),
                 (Fraction(998, 1000), 1), (Fraction(995, 1000), Fraction(998, 1000)),
                 (Fraction(99, 100), Fraction(995, 1000))]
        for lo, hi in bands:
            sel = (r > lo) & (r <= hi) if lo >= 1 else (r >= lo) & (r < hi)
            got, of = pooled(sel)
            assert of > 400
            assert (lower[sel] * members[sel]).sum() <= got <= (upper[sel] * members[sel]).sum()


    def test_folded_cell_bounds_hold_on_exact_counts(self, audit_cells, table_y31_r200,
                                                      table_y1009_r200):
        # the curve that folds the primes in (31, 1009], read two-sided: U
        # at q for every cell and L at 1/q for every cell. It sits close to
        # the shares, so the check allows a binomial slack of five standard
        # deviations plus one member. At x = 1e6 the 1,156 cells with at
        # least 100 members, net of that one member, reach z = 3.23 above
        # U (928 members, U = 0.195) and 3.64 below L (2,084 members, L =
        # 0.0184); 55 a-side cells read U < 1 and 105 b-side cells L >
        # 1e-12 (eight more read L in (0, 1e-12], a few times the fold's
        # rounding slack of 2.5e-13), and every cell of the audit reads
        # bounds inside those of the capped curve that folds nothing.
        ratios, members, hits, _ = audit_cells
        big = np.flatnonzero(members >= 100)
        sub = [ratios[i] for i in big]
        upper, lower = curve_reads(table_y1009_r200, sub)
        capped_upper, capped_lower = curve_reads(table_y31_r200, sub)
        m, h = members[big], hits[big]
        q = np.array([float(r) for r in sub])
        assert np.count_nonzero((q < 1) & (upper < 1)) >= 55
        assert np.count_nonzero((q > 1) & (lower > 1e-12)) >= 105
        assert np.all(upper <= capped_upper) and np.all(lower >= capped_lower)
        assert np.all(h <= upper * m + 5 * np.sqrt(m * upper * (1 - upper)) + 1)
        assert np.all(h >= lower * m - 5 * np.sqrt(m * lower * (1 - lower)) - 1)

    def test_folded_band_shares(self, audit_cells, table_y1009_r200):
        # the hits of each band, pooled over every cell of the band, stay
        # within three standard deviations of the summed folded bounds: at
        # x = 1e6 the largest excess is 1.35 above sum U, in (1.01, 1.02],
        # and 2.31 below sum L, in [0.99, 0.995)
        ratios, members, hits, _ = audit_cells
        r = np.array(ratios, dtype=object)
        upper, lower = curve_reads(table_y1009_r200, ratios)
        edges = [Fraction(v, 1000) for v in (950, 980, 990, 995, 998, 1000, 1002, 1005, 1010,
                                             1020, 1050)]
        for lo, hi in zip(edges, edges[1:]):
            sel = (r > lo) & (r <= hi) if lo >= 1 else (r >= lo) & (r < hi)
            m, got = members[sel], hits[sel].sum()
            assert m.sum() > 400
            u, lw = upper[sel], lower[sel]
            assert got <= (u * m).sum() + 3 * np.sqrt((m * u * (1 - u)).sum())
            assert got >= (lw * m).sum() - 3 * np.sqrt((m * lw * (1 - lw)).sum())

    def test_tail_groups_hold_on_exact_counts(self, audit_cells, table_y1009_r200):
        # the tail lemma of moments on exact counts: the cells with ab > z
        # of each group (a, k, C) (oracles.tail_group), pooled, hold
        # hits <= c * members plus a binomial slack of five standard
        # deviations and one member, c the folded curve read at the group's
        # ratio over h(a), rounded DOWN, as _group_read reads it. At x = 1e6
        # and z = 1000, 710 groups of 150 a have at least 100 members and
        # 635 of them read c < 1/2; nine pass c * members, none by more than
        # 2.39 standard deviations. Grouped by k alone, 485 groups had 100
        # members, and six passed, by at most 1.72.
        _, members, hits, cells = audit_cells
        z = 1000
        ru_at = _engine_consts(table_y1009_r200, 31).ru_at
        pooled = {}
        for (a, b), m, h in zip(cells, members.tolist(), hits.tolist()):
            if a * b > z:
                key = a, tail_group(31, b)
                got, of = pooled.get(key, (0, 0))
                pooled[key] = got + h, of + m
        keys = [key for key, (_, of) in pooled.items() if of >= 100]
        q = [tail_groups(31, a)[group][0] / abundancy(factorize(a)) for a, group in keys]
        c = ru_at[_slot(np.array([ratio_dn(r.numerator, r.denominator) for r in q]))]
        got, of = (np.array([pooled[key][i] for key in keys]) for i in (0, 1))
        assert len(keys) >= 710 and np.count_nonzero(c < 0.5) >= 635
        assert np.all(got <= c * of + 5 * np.sqrt(of * c * (1 - c)) + 1)

    def test_lower_tail_groups_hold_on_exact_counts(self, audit_cells, table_y1009_r200):
        # the lower tail lemma of moments on exact counts: the cells with
        # ab > z of each group (a, k, C, R) (oracles.lower_tail_group),
        # pooled, hold hits >= l * members less a binomial slack of five
        # standard deviations and one member, l the folded lower curve read
        # at h(a) over the group's bound, rounded DOWN, as _lower_read
        # reads it. At x = 1e6 and z = 1000, 758 groups of 110 a have at
        # least 100 members and 57 of them read l > 0, holding 4,244 hits
        # against 2,731.6 members times l; 24 fall short of l * members,
        # none by more than 1.09 standard deviations net of the one member.
        _, members, hits, cells = audit_cells
        z = 1000
        ru_at = _engine_consts(table_y1009_r200, 31).ru_at
        pooled = {}
        for (a, b), m, h in zip(cells, members.tolist(), hits.tolist()):
            if a * b > z:
                key = a, lower_tail_group(31, b)
                got, of = pooled.get(key, (0, 0))
                pooled[key] = got + h, of + m
        keys = [key for key, (_, of) in pooled.items() if of >= 100]
        groups = {a: lower_tail_groups(31, a) for a, _ in keys}
        w = [abundancy(factorize(a)) / groups[a][group][0] for a, group in keys]
        lw = ulp_dn(1.0 - ru_at[_slot(np.array([ratio_dn(r.numerator, r.denominator) for r in w]))])
        got, of = (np.array([pooled[key][i] for key in keys]) for i in (0, 1))
        assert len(keys) >= 758 and np.count_nonzero(lw > 0) >= 57
        assert np.all(got >= lw * of - 5 * np.sqrt(of * lw * (1 - lw)) - 1)


class TestRunBounds:
    def test_single_cell_run(self):
        r = run_bounds(2, 2, 10, threads=1)
        assert r.pair_count == 1
        assert r.covered_mass == pytest.approx(0.5, abs=1e-12)
        assert 0.0 <= r.lower_total.value <= r.upper_total.value
        assert r.upper_total.value <= 0.7400  # C+(1,2) + tail of 1/2

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            run_bounds(31, 1, 10)
        with pytest.raises(InvalidParameterError):
            run_bounds(31, 100, 0)
        with pytest.raises(InvalidParameterError):
            run_bounds(31, 100, 10, threads=0)
        # a table of other orders than r_max would move the curves
        with pytest.raises(InvalidParameterError):
            run_bounds(31, 100, 10, table=build_moment_table(31, 20))
        with pytest.raises(InvalidParameterError):
            run_bounds(31, 100, 10, table=build_moment_table(3, 10))

    def test_default_table_folds_up_to_y_911(self):
        # with no table, a run at y <= 911 folds the primes in (y, 1009]
        for y, level in ((911, 1009), (919, 919)):
            table = build_moment_table(level, 20)
            got, want = run_bounds(y, 10**4, 20), run_bounds(y, 10**4, 20, table=table)
            assert (got.lower_total, got.upper_total) == (want.lower_total, want.upper_total)

    def test_pair_count_matches_oracle_enumeration(self, table_y31_r200):
        oracle = sum(1 for _ in enumerate_cells(31, 10**4))
        r = run_bounds(31, 10**4, 200, threads=1, table=table_y31_r200)
        assert r.pair_count == oracle

    def test_monotone_refinement_small(self, table_y31_r200):
        prev_lo, prev_up = -1.0, 2.0
        for z in (10**4, 10**5, 10**6):
            r = run_bounds(31, z, 200, threads=1, table=table_y31_r200)
            assert r.lower_total.value >= prev_lo
            assert r.upper_total.value <= prev_up
            prev_lo, prev_up = r.lower_total.value, r.upper_total.value

    def test_partition_mass_approaches_one(self):
        # covered mass for y in {2,3,5} at z=1e4, then extended until the
        # increment drops below 1e-6, climbs toward full mass
        for y in (2, 3, 5):
            prev = None
            z = 10**4
            while True:
                r = run_bounds(y, z, 5, threads=1)
                assert r.covered_mass <= 1.0 + 1e-12
                if prev is not None and r.covered_mass - prev < 1e-6:
                    break
                prev = r.covered_mass
                z *= 10
            assert r.covered_mass > 0.999

    def test_covered_mass_matches_brute_force_membership(self, table_y31_r200):
        # covered mass of the y=3 cells with ab <= 1e6 against the fraction of
        # n <= 1e7 that actually lands in one of them
        from sigbound.counting import smooth_part_block

        x = 10**7
        hits = 0
        n0 = 1
        while n0 <= x:
            n1 = min(x + 1, n0 + 5 * 10**6)
            part = smooth_part_block(2 * n0, 2 * n1, 3)
            hits += int(np.count_nonzero(part[1::2] * part[0::2] <= 10**6))
            n0 = n1
        empirical = hits / x
        r = run_bounds(3, 10**6, 5, threads=1)
        assert r.covered_mass >= 0.999 * empirical
        assert abs(r.covered_mass - empirical) <= 1e-3

    def test_bracket_contains_empirical_proxy(self, table_y31_r200):
        # B(1e7)/1e7 = 0.0546879 proxies the true density for any parameters
        proxy = 0.0546879
        for y, z, rmax, table in (
            (2, 10**6, 50, None),
            (3, 10**6, 200, None),
            (31, 10**6, 200, table_y31_r200),
        ):
            r = run_bounds(y, z, rmax, threads=1, table=table)
            assert r.lower_total.value <= proxy + 0.002
            assert r.upper_total.value >= proxy - 0.002

    def test_parallel_matches_serial_closely(self, table_y31_r200, monkeypatch):
        if usable_cores() < 2:
            pytest.skip("needs 2 usable cores to enter the pool")
        # the pool is threads sharing the read-only tables: a run that asked
        # multiprocessing for a context would raise here
        import multiprocessing

        def no_processes(*args, **kwargs):
            raise ValueError("the pool runs threads, not processes")

        r1 = run_bounds(31, 10**5, 200, threads=1, table=table_y31_r200)
        monkeypatch.setattr(multiprocessing, "get_context", no_processes)
        r2 = run_bounds(31, 10**5, 200, threads=2, table=table_y31_r200)
        assert r2.threads == 2
        assert r1.pair_count == r2.pair_count
        # the chunk sums are exact integers, so any thread count and any
        # merge order give the same bits
        assert r2.lower_total == r1.lower_total
        assert r2.upper_total == r1.upper_total
        assert r2.covered_lo == r1.covered_lo
        assert r2.lower_total.value <= r2.upper_total.value

    @pytest.mark.parametrize("y,z,cut", [
        (31, 10**6, 1 << 6),
        (31, 10**6, 1 << 16),
        (2, 10**15, 1 << 2),  # one class, a zero mask word
    ], ids=["cut0", "cut1", "y2"])
    def test_totals_do_not_depend_on_the_chunk_cut(self, monkeypatch, y, z, cut):
        table = build_moment_table(y, 200)

        def totals(threads):
            r = run_bounds(y, z, 200, threads=threads, table=table)
            return r.pair_count, r.lower_total, r.upper_total, r.covered_lo

        default = totals(1)
        monkeypatch.setattr(engine, "_CHUNK", cut)
        assert totals(1) == default
        assert totals(2) == default

    def test_shared_tables_are_read_only(self, table_y31_r200):
        # the pool's threads share these arrays: an in-place step must raise
        consts = _engine_consts(table_y31_r200, 31)
        b = _b_table(consts.odd, 10**5)
        chunks = _cell_tables(consts, b, 10**5)
        for arr in (consts.ru_at, *b, *next(chunks).rows):
            with pytest.raises(ValueError):
                ulp_up(arr)
        with pytest.raises(ValueError):
            b.mask[0, 0] = 1

    def test_pool_under_contention_matches_inline(self, table_y31_r200):
        # more threads than cores and a short switch interval: every chunk's
        # sums still come back whole and in chunk order
        consts = _engine_consts(table_y31_r200, 31)
        b = _b_table(consts.odd, 10**5)
        chunks = _cell_tables(consts, b, 10**5)
        chunks = list(chunks)
        inline = [_chunk_sums(consts, b, ch) for ch in chunks]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = list(_pooled(consts, b, iter(chunks), 2 * usable_cores() + 2))
        finally:
            sys.setswitchinterval(interval)
        assert pooled == inline

    def test_threads_capped_at_usable_cores(self, table_y31_r200):
        try:
            cores = len(os.sched_getaffinity(0))
        except AttributeError:
            cores = os.cpu_count() or 1
        serial = run_bounds(31, 10**3, 200, threads=1, table=table_y31_r200)
        r = run_bounds(31, 10**3, 200, threads=cores + 3, table=table_y31_r200)
        assert r.threads <= cores
        assert r.pair_count == serial.pair_count

    def test_progress_events(self, table_y31_r200):
        events = []
        run_bounds(
            31, 10**5, 200, threads=1, table=table_y31_r200,
            progress=lambda part, flush: events.append((part, flush)), flush_every=10000,
        )
        assert events, "flush events expected"
        assert all(flush for part, flush in events if part.pair_count % 10000 == 0)
        for part, _ in events:
            assert 0.0 <= part.lower_total.value <= part.upper_total.value <= 1.0

    def test_progress_is_one_stream_for_any_thread_count(self, table_y31_r200):
        # flush_every=1 makes every chunk a flush, so no 1 s tick interleaves
        streams = []
        for threads in (1, 2):
            events = []
            run_bounds(31, 10**6, 200, threads=threads, table=table_y31_r200,
                       progress=lambda part, flush: events.append((part, flush)),
                       flush_every=1)
            streams.append([(part.pair_count, part.lower_total, part.upper_total,
                             part.covered_lo, flush) for part, flush in events])
        assert streams[0] == streams[1]
        assert len(streams[0]) > 1
        assert all(ev[4] for ev in streams[0])
        assert [ev[0] for ev in streams[0]] == sorted(ev[0] for ev in streams[0])

    @pytest.mark.parametrize("threads", [1, 2])
    def test_progress_brackets_nest(self, threads):
        # every progress report is a bracket around the final one: the
        # lower charges and the cells' excesses over their groups' reads
        # only add to the lower total, and after the block's charge the
        # savings only take from the upper one
        events = []
        final = run_bounds(31, 10**6, 200, threads=threads,
                           progress=lambda part, flush: events.append(part), flush_every=10000)
        assert len(events) >= 10
        for part in events:
            assert part.lower_total.value <= final.lower_total.value
            assert part.upper_total.value >= final.upper_total.value

    def test_grid_path_close_to_reference_scan(self, table_y31_r200):
        # the upper side as the tail lemma of moments charges it: per odd a
        # <= z // 2 and group (k, C) (oracles.tail_groups), the mass M(a)
        # times the group's share at the scan's bound c at the group's
        # ratio over h(a), less each cell's max(0, dens c - its own bound),
        # plus the mass of the larger a at 1; the lower side as the lower
        # tail lemma charges it: per a and group (k, C, R)
        # (oracles.lower_tail_groups), M(a) times the group's share at the
        # scan's lower bound l at h(a) over the group's bound, plus each
        # cell's max(0, its own lower bound - dens l)
        lo_ref = up_ref = 0.0
        odd = primes_upto(31).tolist()[1:]
        base = math.prod(Fraction(p - 1, p) for p in odd)
        groups, lows = {}, {}
        for a, b in enumerate_cells(31, 10**4):
            dens = cell_density(a, b, 31)
            ha = abundancy(factorize(a))
            pb = pair_bounds(dens, table_y31_r200, ha, abundancy(factorize(b)))
            if a not in groups:
                groups[a] = {key: (share, pair_bounds(Fraction(1), table_y31_r200, ha,
                                                      ratio).upper.value)
                             for key, (ratio, share) in tail_groups(31, a).items()}
                lows[a] = {key: (share, pair_bounds(Fraction(1), table_y31_r200, ha,
                                                    bound).lower.value)
                           for key, (bound, share) in lower_tail_groups(31, a).items()}
            c = groups[a][tail_group(31, b)][1]
            l = lows[a][lower_tail_group(31, b)][1]
            lo_ref += max(0.0, pb.lower.value - float(dens) * l)
            up_ref -= max(0.0, float(dens) * c - pb.upper.value)
        for a, reads in groups.items():
            up_ref += float(base / a) * (sum(float(share) * c for share, c in reads.values()) - 1)
            lo_ref += float(base / a) * sum(float(share) * l for share, l in lows[a].values())
        up_ref += 1.0
        r = run_bounds(31, 10**4, 200, threads=1, table=table_y31_r200)
        assert r.lower_total.value == pytest.approx(lo_ref, rel=2e-3)
        assert r.upper_total.value == pytest.approx(up_ref, rel=2e-3)
