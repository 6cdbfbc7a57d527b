"""The chunked cell kernel of `engine.run_bounds`: the exact audit of its
bracket, its bound curves, the (a, t) split and the directed factors of its
smooth-number tables."""
import math
import tracemalloc
from bisect import bisect_right
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import abundancy, enumerate_cells, factorize, ratio_grids_per_r, symmetry_capped
from sigbound import engine
from sigbound.arith import primes_upto
from sigbound.dirround import ratio_dn, ratio_up, ulp_dn
from sigbound.engine import cell_density, run_bounds
from sigbound.errors import InvalidParameterError
from sigbound.moments import MomentTable, bound_curves, build_moment_table, fold_curve


def grid_curves(table, y=None):
    """The engine's grid and its curves (g, ru, rl) for the cells at level
    y (table.y by default), as run_bounds reads them: rl = ulp_dn(1 - ru),
    formed at lookup."""
    ru = engine._engine_consts(table, table.y if y is None else y).ru_at[1:]
    return engine._grid(), ru, ulp_dn(1.0 - ru)


def exact_slot(g, q: Fraction) -> int:
    """Number of grid points <= q, by exact comparison."""
    i = bisect_right(g, float(q))  # a guess: float(q) may round past a point
    while i > 0 and Fraction(g[i - 1]) > q:
        i -= 1
    while i < len(g) and Fraction(g[i]) <= q:
        i += 1
    return i


def exact_sums(y, z, table):
    """The bracket of the grid method in exact arithmetic: Fraction
    densities, exact q = sigma(b) a / (sigma(a) b), exact grid slots, each
    cell reading its upper bound at q and its lower bound at 1/q."""
    g, ru, rl = grid_curves(table, y)
    g = g.tolist()
    lower = upper = covered = Fraction(0)
    pairs = 0
    for a, b in enumerate_cells(y, z):
        dens = cell_density(a, b, y)
        q = abundancy(factorize(b)) / abundancy(factorize(a))
        covered += dens
        pairs += 1
        s = exact_slot(g, q)
        upper += dens * (Fraction(ru[s - 1]) if s else 1)
        s = exact_slot(g, 1 / q)
        if s:
            lower += dens * Fraction(rl[s - 1])
    return lower, upper + 1 - covered, covered, pairs


@settings(max_examples=30, deadline=None)
@given(
    y=st.sampled_from([2, 3, 5, 7, 11, 13]),
    z=st.integers(2, 3000),
    r_max=st.integers(1, 30),
    budget=st.sampled_from([8, engine._ROW_BUDGET]),
    level=st.sampled_from([0, 13, 61]),
)
def test_bracket_is_on_the_safe_side_of_exact_sums(y, z, r_max, budget, level):
    # level 0 folds nothing; 13 and 61 fold the primes in (y, level]
    table = build_moment_table(max(y, level), r_max)
    lower, upper, covered, pairs = exact_sums(y, z, table)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_ROW_BUDGET", budget)  # 8 moves primes to the a side
        r = run_bounds(y, z, r_max, threads=1, table=table)
    assert r.pair_count == pairs
    assert Fraction(r.lower_total.value) <= lower
    assert Fraction(r.upper_total.value) >= upper
    assert Fraction(r.covered_lo.value) <= covered


@pytest.mark.parametrize("y,r_max", [(31, 200), (353, 500)])
def test_ratio_curves_are_monotone(y, r_max):
    table = build_moment_table(y, r_max)
    g, ru, rl = grid_curves(table)
    assert np.all(np.diff(g) > 0)
    assert np.all(np.diff(ru) <= 0)
    assert np.all(np.diff(rl) >= 0)
    # the cap binds on a head of the points above 1 only, the curve is 1 at
    # and below 1, and the sentinel stays 1
    above = g > 1.0
    assert 0 < np.count_nonzero(ru < 0.5) < np.count_nonzero(above)
    assert np.all(ru[~above] == 1.0)
    assert engine._engine_consts(table, y).ru_at[0] == 1.0


@pytest.mark.parametrize("y,r_max", [(2, 5), (3, 20), (5, 30), (31, 200), (353, 60)])
def test_ratio_grids_match_the_per_r_loop_bit_for_bit(y, r_max):
    table = build_moment_table(y, r_max)
    g, ru, rl = grid_curves(table)
    want_g, want_ru, want_rl = ratio_grids_per_r(table)
    want_ru, want_rl = symmetry_capped(want_g, want_ru, want_rl)
    for got, want in ((g, want_g), (ru, want_ru), (rl, want_rl)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def short_ratios(seed):
    """2048 non-decreasing ratios above 1: 512 geometric points over the
    engine's grid range above 1 with both neighbours of each, and 512 seeded
    random ones from just above 1 to 1e4 (where q^r overflows early), 64 of
    them repeated."""
    grid = engine._grid(engine._ONE_SLOT + 1)
    g = np.geomspace(grid[0], grid[-1], 512)
    rng = np.random.default_rng(seed)
    r = np.exp(rng.uniform(math.log1p(2.0**-30), math.log(1e4), 448))
    return np.sort(np.concatenate([g, np.nextafter(g, 0.0), np.nextafter(g, np.inf),
                                   r, rng.choice(r, 64)]))


def assert_curves_match_the_oracle(table, q):
    ru = bound_curves(table, q)
    rl = ulp_dn(1.0 - ru)
    _, want_ru, want_rl = ratio_grids_per_r(table, q)
    assert np.array_equal(ru.view(np.int64), want_ru.view(np.int64))
    assert np.array_equal(rl.view(np.int64), want_rl.view(np.int64))


# each table saturates below r_max (at r = 554, 1137, 2113 and 8159), after
# orders whose 1e9 M(r) passes 1e300, which caps them at 1e300, or overflows
@pytest.mark.parametrize("y,r_max", [(2, 3000), (7, 3000), (31, 10_000), (353, 10_000)])
def test_bound_curves_match_the_oracle_on_short_arrays(y, r_max):
    assert_curves_match_the_oracle(build_moment_table(y, r_max), short_ratios(y))


def test_bound_curves_carry_the_prefix_a_later_order_reads():
    # (1e9 M(r))^(1/r) is 2.9 at r = 20 and 10.7 at r = 21: orders 3 to 20
    # shrink the prefix at their cap crossings (none has a later capped
    # scalar below its own), and past the last one order 21 is still below
    # its cap, with candidates no smaller than order 20's scalar
    vals = [1.5] * 20 + [4.0**r for r in range(21, 31)]
    table = MomentTable(y=3, r_max=30, values=(math.nan, *vals))
    assert_curves_match_the_oracle(table, short_ratios(0))


def test_bound_curves_keep_the_prefix_when_a_later_cap_is_lower():
    # M(r) falls from 2.0 at r = 5 to 1.5 at r = 6, and both orders reach
    # their caps at q = 100: the capped scalar 1/(2e9 - 1) = 5e-10 of order
    # 5 is above order 6's 0.5/(1.5e9 - 1) = 3.3e-10, so order 5's crossing
    # must not shrink the prefix before order 6 reads it
    vals = [1.2, 1.2, 1.2, 1.2, 2.0, 1.5]
    table = MomentTable(y=3, r_max=6, values=(math.nan, *vals))
    assert_curves_match_the_oracle(table, np.array([1.5, 2.0, 100.0]))


def test_bound_curves_hold_an_overflowing_candidate_at_inf():
    # M(r) near 1e305 over q^r - 1 near 1e-9 overflows (M(r)-1)/(q^r-1) to
    # +inf; its step up must keep +inf (a bare int64 step gives a NaN)
    vals = [1e305, 1.5, 3e305, 2.0, 1e305]
    table = MomentTable(y=3, r_max=5, values=(math.nan, *vals))
    q = np.concatenate([1.0 + 2.0**-30 * np.arange(1, 21), [1.5, 2.0, 40.0]])
    with np.errstate(over="ignore"):
        assert (vals[0] - 1.0) / (q[0] - 1.0) == math.inf
    assert_curves_match_the_oracle(table, q)


def test_grid_is_increasing_with_relative_spacing_at_most_2_to_the_minus_16():
    g = engine._grid()
    assert g.dtype == np.float64 and g.size == 3 * 2**16 + 1
    assert np.all(np.diff(g) > 0)
    assert g[0] == 0.5 and g[engine._ONE_SLOT] == 1.0 and g[-1] == 4.0
    assert np.array_equal(engine._grid(1000), g[1000:])
    step = Fraction(2**16 + 1, 2**16)
    q = [Fraction(v) for v in g.tolist()]
    assert all(b <= a * step for a, b in zip(q, q[1:]))


def test_grid_slot_is_searchsorted_right():
    g = engine._grid()
    rng = np.random.default_rng(5)
    x = np.concatenate([
        np.exp(rng.uniform(-2.0, 4.0, 20000)),
        g[::97], np.nextafter(g[::97], 0.0), np.nextafter(g[::97], np.inf),
        [0.0, 5e-324, 1e-300, 1.0, 4.0, 4.0 + 2.0**-50, 6.9, 1e300, np.inf],
    ])
    assert np.array_equal(engine._slot(x), np.searchsorted(g, x, "right"))


def test_folded_curve_is_read_at_the_last_log_point_below_each_grid_point(table_y1009_r200):
    # the engine's grid point g reads the folded curve at the largest log
    # point i with 2^(i 2^-12) <= g, capped at 1/2 past 1; the lower read
    # starts at the first point below 1
    mpmath.mp.dps = 40
    hi, s = fold_curve(table_y1009_r200, 31)
    consts = engine._engine_consts(table_y1009_r200, 31)
    ru, g = consts.ru_at[1:], engine._grid()
    n = s.size // 2
    for m in list(range(0, g.size, 61)) + [engine._ONE_SLOT, engine._ONE_SLOT + 1, g.size - 1]:
        i = int(mpmath.floor(mpmath.log(mpmath.mpf(float(g[m])), 2) * 4096))
        want = min(s[i + n], 0.5) if g[m] > 1.0 else s[i + n]
        assert ru[m] == want, m
    first = int(np.argmax(ru < 1.0))
    assert 0 < first < engine._ONE_SLOT and ru[first - 1] == 1.0
    assert 1 <= Fraction(consts.q_lower) * Fraction(float(g[first])) <= 1 + Fraction(1, 2**50)


def test_small_row_budget_moves_primes_to_the_a_side(table_y31_r200, monkeypatch):
    full = run_bounds(31, 10**5, 200, threads=1, table=table_y31_r200)
    monkeypatch.setattr(engine, "_ROW_BUDGET", 512)
    b, _ = engine._cell_tables(engine._engine_consts(table_y31_r200, 31), 10**5)
    # 3 and 5 stay on the b side, the primes 7..31 move to the a side
    assert b.value.size <= 512 and b.mask.shape[0] == 1
    assert int(np.bitwise_or.reduce(b.mask[0])) == 0b11
    split = run_bounds(31, 10**5, 200, threads=1, table=table_y31_r200)
    assert split.pair_count == full.pair_count
    lo, up = split.lower_total.value, split.upper_total.value
    assert 0.0 < lo <= up < 1.0
    # the same cell bounds, summed in other chunks
    assert lo == pytest.approx(full.lower_total.value, rel=1e-12)
    assert up == pytest.approx(full.upper_total.value, rel=1e-12)


@pytest.mark.parametrize("y,z,r_max,budget,used", [
    (31, 10**6, 200, engine._ROW_BUDGET, 10),
    (353, 10**5, 500, engine._ROW_BUDGET, 70),  # two mask words
    (31, 10**6, 200, 512, 2),  # fewer odd primes than the class primes
    (31, 20, 200, 8, 1),  # one class prime
    (31, 10**6, 200, 8, 0),  # no odd prime in the b table
])
def test_class_split_moves_no_bit(y, z, r_max, budget, used, monkeypatch):
    """Pairing each a-side row only with the b classes disjoint from its own
    drops only pairs the mask filter drops too: with no class primes, the
    pair count and the three totals keep every bit."""
    table = build_moment_table(y, r_max)
    monkeypatch.setattr(engine, "_ROW_BUDGET", budget)
    odd = tuple(primes_upto(y).tolist()[1:])
    assert engine._smooth_rows(odd, z, True, 1.0, 1.0, budget)[1] == used

    def totals():
        r = run_bounds(y, z, r_max, threads=1, table=table)
        return r.pair_count, tuple(getattr(r, t).value.hex() for t in
                                   ("lower_total", "upper_total", "covered_lo"))

    split = totals()
    monkeypatch.setattr(engine, "_CLASS_PRIMES", 0)
    assert totals() == split


# The traced peak of run_bounds(31, 1e7, 200) was 6.85 MB before the b
# classes and the extraction sum, 5.90 MB with them, and 5.28 MB once the
# lower curve was formed at lookup and the UP-rounded covered mass no longer
# summed; the bound is the last plus a margin of 0.1 MB. That peak was the
# curve build's, with the cell walk's at 4.68 MB. The folded curve's build
# peaks at 4.94 MB, and its grid from 1/2 to 4 adds 2^16 + 1 doubles
# (0.52 MB) to the curve the walk holds: the walk's peak, 5.24 MB, is the
# run's. Building the candidate ranges of a whole a-side block at once,
# not 2048 rows at a time, read 7.05 MB.
_PEAK_BOUND = 5_385_000


def test_cell_walk_peak_memory():
    tracemalloc.start()
    try:
        run_bounds(31, 10**7, 200, threads=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= _PEAK_BOUND, peak


def exact_factors(v, f0):
    """(f0 * F(v)/v, sigma(v)/v) as Fractions."""
    fac = factorize(v)
    f = f0
    for p, _ in fac:
        if p > 2:
            f *= Fraction(p - 1, p - 2)
    return f / v, abundancy(fac)


def test_table_factors_are_directed_past_2_53():
    # about 10**4 even rows up to 2**62; the odd side starts from the
    # directed base (1/3)(3/5) = 1/5, which is not a double
    odd, limit = (3, 5), 2**62
    for even, f0 in ((True, Fraction(1)), (False, Fraction(1, 5))):
        f0_dirs = ratio_dn(f0.numerator, f0.denominator), ratio_up(f0.numerator, f0.denominator)
        rows, used = engine._smooth_rows(odd, limit, even, *f0_dirs)
        assert used == 2
        values = rows.value.tolist()
        assert max(values) > 2**53
        for v, d_dn, d_up, h_dn, h_up in zip(values, *(col.tolist() for col in rows[2:])):
            d, h = exact_factors(v, f0)
            assert Fraction(d_dn) <= d <= Fraction(d_up), v
            assert Fraction(h_dn) <= h <= Fraction(h_up), v


def test_z_beyond_int64_is_rejected():
    for z in (2**63, 10**19):
        with pytest.raises(InvalidParameterError):
            run_bounds(3, z, 5, threads=1)
