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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    abundancy,
    enumerate_cells,
    factorize,
    group_primes,
    iter_smooth,
    lower_tail_group,
    lower_tail_groups,
    ratio_grids_per_r,
    symmetry_capped,
    tail_group,
    tail_groups,
)
from sigbound import engine, moments
from sigbound.arith import primes_upto
from sigbound.cli import main
from sigbound.dirround import FIXED_BITS, ratio_dn, ratio_up, ulp_dn
from sigbound.engine import cell_density, run_bounds
from sigbound.errors import InvalidParameterError, UnsupportedParameterError
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
    densities, exact q = sigma(b) a / (sigma(a) b) and exact grid slots,
    each cell reading its upper bound ru at q and its lower bound at 1/q.

    The upper side is charged by groups (the tail lemma of moments): the
    cells of an odd a hold the closed-form mass
    M(a) = (1/a) prod_{odd p <= y} (1 - 1/p), and each group (k, C) of a
    (oracles.tail_groups: k = min(v2(b), 3), C the group primes dividing b)
    holds its share of M(a) and reads c at the exact slot of its ratio over
    h(a). Every a <= z // 2 has the cell (a, 2), so the a charged are those
    of the cells; upper is the sum of M share c over the groups of every a,
    cells or none, plus 1 less the mass of the a, less each cell's
    dens * max(0, c - ru), c its group's read. The lower side is charged by
    groups too (the lower tail lemma): each group (k, C, R) of a
    (oracles.lower_tail_groups) holds its share of M(a) and reads l, the
    lower curve at the exact slot of h(a) over its bound; lower is the sum
    of M share l over the groups of every a plus each cell's
    dens * max(0, rl - l), rl its own lower read and l its group's. No part
    of it depends on how the engine splits the primes between its b table
    and its a side.
    """
    g, ru, rl = grid_curves(table, y)
    g = g.tolist()
    base = Fraction(1)
    for p in primes_upto(y).tolist()[1:]:
        base *= Fraction(p - 1, p)

    def read(q):
        s = exact_slot(g, q)
        return Fraction(ru[s - 1]) if s else Fraction(1)

    def read_lower(w):
        s = exact_slot(g, w)
        return Fraction(rl[s - 1]) if s else Fraction(0)

    lower = saving = covered = Fraction(0)
    pairs = 0
    # a -> (M(a), {group: (share, read)}, the mass of its cells summed,
    # {lower group: (share, lower read)})
    rows = {}
    for a, b in enumerate_cells(y, z):
        dens = cell_density(a, b, y)
        q = abundancy(factorize(b)) / abundancy(factorize(a))
        covered += dens
        pairs += 1
        if a not in rows:
            h_a = abundancy(factorize(a))
            groups = {key: (share, read(ratio / h_a))
                      for key, (ratio, share) in tail_groups(y, a).items()}
            lows = {key: (share, read_lower(h_a / bound))
                    for key, (bound, share) in lower_tail_groups(y, a).items()}
            rows[a] = [base / a, groups, Fraction(0), lows]
        row = rows[a]
        row[2] += dens
        c = row[1][tail_group(y, b)][1]
        saving += dens * max(Fraction(0), c - read(q))
        l = row[3][lower_tail_group(y, b)][1]
        lower += dens * max(Fraction(0), read_lower(1 / q) - l)
    charge = mass = Fraction(0)
    for m, groups, summed, lows in rows.values():
        assert summed <= m
        assert sum(share for share, _ in groups.values()) == 1
        assert sum(share for share, _ in lows.values()) == 1
        charge += m * sum(share * c for share, c in groups.values())
        lower += m * sum(share * l for share, l in lows.values())
        mass += m
    return lower, charge + 1 - mass - saving, covered, pairs


@settings(max_examples=30, deadline=None)
@given(
    y=st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19]),
    z=st.integers(2, 3000),
    r_max=st.integers(1, 30),
    level=st.sampled_from([0, 13, 61]),
)
# a lower group read above 0; and 17, the first prime past the five group
# primes, which puts cells in the lower groups with R = 1
@example(y=3, z=6, r_max=1, level=61)
@example(y=13, z=3000, r_max=30, level=61)
@example(y=17, z=3000, r_max=30, level=61)
# past r_max = 32 the orders have gaps above 1 (see moment_orders)
@example(y=13, z=3000, r_max=60, level=61)
@example(y=3, z=2000, r_max=200, level=13)
def test_bracket_is_on_the_safe_side_of_exact_sums(y, z, r_max, level):
    # level 0 folds nothing; 13 and 61 fold the primes in (y, level]
    table = build_moment_table(max(y, level), r_max)
    lower, upper, covered, pairs = exact_sums(y, z, table)
    r = run_bounds(y, z, r_max, threads=1, table=table)
    assert r.pair_count == pairs
    assert Fraction(r.lower_total.value) <= lower
    assert Fraction(r.upper_total.value) >= upper
    assert Fraction(r.covered_lo.value) <= covered


@pytest.mark.parametrize("y", [2, 3, 5, 7, 31])
def test_group_masses_partition_the_mass_of_a(y):
    """The groups (k, C) of the tail lemma of moments split M(a) exactly,
    for every set A of group primes dividing a: the exact shares
    (oracles.tail_groups) add to 1, each of the engine's UP weights is at
    least its share, and the groups where C meets A, or names a prime past
    the group primes, weigh 0. Each DOWN ratio is at most its group's."""
    consts = engine._engine_consts(build_moment_table(y, 2), y)
    gp = group_primes(y)
    assert gp == list(consts.odd[:engine._GROUP_PRIMES])
    n = 1 << engine._GROUP_PRIMES
    # the upper side weighs the groups (k, C, R = 0) alone
    assert consts.group_h.shape == (2 * engine._V2_CAP * n,)
    assert consts.group_w.shape == (n, 2 * engine._V2_CAP * n)
    assert not consts.group_w[:, group_ids(1)].any()
    for A in range(1 << len(gp)):
        a = math.prod(p for j, p in enumerate(gp) if A >> j & 1)
        groups = tail_groups(y, a)
        assert len(groups) == 3 << (len(gp) - A.bit_count())
        assert sum(share for _, share in groups.values()) == 1
        weighed = set()
        for g in group_ids(0).tolist():
            k, C = (g >> (engine._GROUP_PRIMES + 1)) + 1, g & (n - 1)
            assert consts.group_h[g] == consts.group_h[g | n]  # R moves no upper read
            if C & A or C >> len(gp):
                assert consts.group_w[A, g] == 0.0, (A, g)
                continue
            key = k, frozenset(p for j, p in enumerate(gp) if C >> j & 1)
            ratio, share = groups[key]
            assert Fraction(consts.group_w[A, g]) >= share, (A, g)
            assert Fraction(consts.group_h[g]) <= ratio, g
            weighed.add(key)
        assert weighed == set(groups)


def group_ids(R):
    """The engine's group indices with the bit R."""
    g = np.arange(2 * engine._V2_CAP << engine._GROUP_PRIMES)
    return g[(g >> engine._GROUP_PRIMES & 1) == R]


@pytest.mark.parametrize("y", [2, 3, 5, 7, 31])
def test_lower_groups_partition_the_mass_of_a(y):
    """The groups (k, C, R) of the lower tail lemma of moments split M(a)
    exactly, for every set A of group primes dividing a: the exact shares
    (oracles.lower_tail_groups) add to 1, and each of the engine's DOWN
    weights times rho(a), or 1 - rho(a) with R, is at most its share. Each
    engine bound, times the rest factor of a with R, is at least the exact
    bound, and at least h(b) for every b <= 2^20 of its group (the cells of
    a = 1); only b = 2 and 4 meet it, where hx = h(2^k) exactly."""
    consts = engine._engine_consts(build_moment_table(y, 2), y)
    gp = group_primes(y)
    n = 1 << engine._GROUP_PRIMES
    rest = [p for p in consts.odd if p not in gp]
    rho = math.prod(Fraction(p - 2, p - 1) for p in rest)
    spread = math.prod(Fraction(p, p - 1) for p in rest)
    for A in range(1 << len(gp)):
        a = math.prod(p for j, p in enumerate(gp) if A >> j & 1)
        groups = lower_tail_groups(y, a)
        assert len(groups) == (6 if rest else 3) << (len(gp) - A.bit_count())
        assert sum(share for _, share in groups.values()) == 1
        weighed = set()
        for g in range(2 * engine._V2_CAP * n):
            k, R = (g >> (engine._GROUP_PRIMES + 1)) + 1, g >> engine._GROUP_PRIMES & 1
            C = g & (n - 1)
            key = k, frozenset(p for j, p in enumerate(gp) if C >> j & 1), bool(R)
            if C & A or C >> len(gp):
                assert consts.group_wl[A, g] == 0.0, (A, g)
                continue
            assert Fraction(consts.group_hx[g]) >= Fraction(2 ** (k + 1) - 1, 2**k), g
            if key not in groups:  # R holds no cell: no prime outside the group primes
                assert R and not rest
                continue
            bound, share = groups[key]
            assert Fraction(consts.group_wl[A, g]) * (1 - rho if R else rho) <= share, (A, g)
            assert Fraction(consts.group_hx[g]) * (spread if R else 1) >= bound, g
            weighed.add(key)
        assert weighed == set(groups)
    tight = 0
    for m in iter_smooth(consts.odd, 2**19):
        h_m = abundancy(factorize(m))
        b = 2
        while b * m <= 2**20:
            k, C, R = lower_tail_group(y, b * m)
            g = ((k - 1) << (engine._GROUP_PRIMES + 1) | R << engine._GROUP_PRIMES
                 | sum(1 << j for j, p in enumerate(gp) if p in C))
            bound = Fraction(consts.group_hx[g]) * (spread if R else 1)
            h_b = Fraction(2 * b - 1, b) * h_m
            assert bound >= h_b, b * m
            tight += bound == h_b
            b *= 2
    assert tight == 2


@pytest.mark.parametrize("a", [1, 3, 35])
def test_group_shares_are_the_limits_of_cell_sums(a):
    """At y = 7 the cells (a, b) of each group with b <= 2^20 sum to at most
    M(a) times its share, and to within 2% of it: the share of a group
    prime p not dividing a is P(p | b) = 1/(p-1), not 1/p."""
    y, x = 7, 2**20
    mass = Fraction(1, a) * Fraction(2, 3) * Fraction(4, 5) * Fraction(6, 7)
    sums = {}
    for m in iter_smooth([p for p in (3, 5, 7) if a % p], x // 2):
        b = 2
        while b * m <= x:
            key = tail_group(y, b * m)
            sums[key] = sums.get(key, 0) + cell_density(a, b * m, y)
            b *= 2
    groups = tail_groups(y, a)
    assert set(sums) == set(groups)
    for key, (_, share) in groups.items():
        assert 0.98 * mass * share <= sums[key] <= mass * share, key


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


def assert_grids_match_the_per_r_loop(table):
    g, ru, rl = grid_curves(table)
    want_g, want_ru, want_rl = ratio_grids_per_r(table)
    want_ru, want_rl = symmetry_capped(want_g, want_ru, want_rl)
    for got, want in ((g, want_g), (ru, want_ru), (rl, want_rl)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("y,r_max", [(2, 5), (3, 20), (5, 30), (31, 200), (353, 60)])
def test_ratio_grids_match_the_per_r_loop_bit_for_bit(y, r_max):
    assert_grids_match_the_per_r_loop(build_moment_table(y, r_max))


@pytest.mark.parametrize("y,r_max", [(31, 200), (353, 60)])
def test_ratio_grids_of_every_order_tables_match_the_per_r_loop(y, r_max):
    assert_grids_match_the_per_r_loop(build_moment_table(y, r_max, every_order=True))


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


# each table saturates below r_max (the every-order tables at r = 554, 1137,
# 2113 and 8159), after orders whose 1e9 M(r) passes 1e300, which caps them
# at 1e300, or overflows
SATURATING = [(2, 3000), (7, 3000), (31, 10_000), (353, 10_000)]


@pytest.mark.parametrize("y,r_max", SATURATING)
def test_bound_curves_match_the_oracle_on_short_arrays(y, r_max):
    table = build_moment_table(y, r_max)
    assert not math.isfinite(table.values[-1])
    assert_curves_match_the_oracle(table, short_ratios(y))


@pytest.mark.parametrize("y,r_max", SATURATING)
def test_bound_curves_of_every_order_tables_match_the_oracle(y, r_max):
    table = build_moment_table(y, r_max, every_order=True)
    assert not math.isfinite(table.values[-1])
    assert_curves_match_the_oracle(table, short_ratios(y))


def test_bound_curves_carry_q_r_by_the_power_of_each_gap():
    # gaps of one to eleven bits, at orders a table of 12 mid primes holds;
    # at q up to 4, q^2047 and its square q^1024 overflow and step to the
    # largest finite double
    mids = moments._mid_primes(31)[:12]
    orders = (1, 2, 5, 12, 40, 41, 100, 227, 1000, 2047)
    values = moments._bulk_values(orders, mids)
    values[0] = moments.moment_r1_exact(31)
    table = MomentTable(y=31, orders=orders, values=tuple(values))
    assert_curves_match_the_oracle(table, short_ratios(1))
    assert_curves_match_the_oracle(table, engine._grid(engine._ONE_SLOT + 1))


def test_bound_curves_carry_the_prefix_a_later_order_reads():
    # (1e9 M(r))^(1/r) is 2.9 at r = 20 and 10.7 at r = 21: orders 3 to 20
    # shrink the prefix at their cap crossings (none has a later capped
    # scalar below its own), and past the last one order 21 is still below
    # its cap, with candidates no smaller than order 20's scalar
    vals = [1.5] * 20 + [4.0**r for r in range(21, 31)]
    table = MomentTable(y=3, orders=tuple(range(1, 31)), values=tuple(vals))
    assert_curves_match_the_oracle(table, short_ratios(0))


def test_bound_curves_keep_the_prefix_when_a_later_cap_is_lower():
    # M(r) falls from 2.0 at r = 5 to 1.5 at r = 6, and both orders reach
    # their caps at q = 100: the capped scalar 1/(2e9 - 1) = 5e-10 of order
    # 5 is above order 6's 0.5/(1.5e9 - 1) = 3.3e-10, so order 5's crossing
    # must not shrink the prefix before order 6 reads it
    vals = [1.2, 1.2, 1.2, 1.2, 2.0, 1.5]
    table = MomentTable(y=3, orders=tuple(range(1, 7)), values=tuple(vals))
    assert_curves_match_the_oracle(table, np.array([1.5, 2.0, 100.0]))


def test_bound_curves_hold_an_overflowing_candidate_at_inf():
    # M(r) near 1e305 over q^r - 1 near 1e-9 overflows (M(r)-1)/(q^r-1) to
    # +inf; its step up must keep +inf (a bare int64 step gives a NaN)
    vals = [1e305, 1.5, 3e305, 2.0, 1e305]
    table = MomentTable(y=3, orders=tuple(range(1, 6)), values=tuple(vals))
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


@pytest.mark.parametrize("y", [2, 13])
def test_a_one_reads_the_slot_of_the_exact_quotient(y):
    # a curve whose value is its slot shows the slot each read takes: at
    # a = 1, h(a) = 1.0, each group read and each cell's q are the exact
    # quotients, and at y = 2 these are the grid points h(2^k), k <= 16;
    # every other a reads at or below its exact quotient's slot
    consts = engine._engine_consts(build_moment_table(y, 2), y)
    consts = consts._replace(ru_at=np.arange(engine._GRID_SIZE + 1, dtype=np.float64))
    g = engine._grid().tolist()
    a, _ = engine._smooth_rows(consts.odd, 10**4, False, 1.0)
    assert a.value[0] == 1 and a.h_up[0] == 1.0
    h_a = a.h_up[:8]
    slots = engine._group_read(consts, consts.group_h[:, None], h_a)
    for i, h in enumerate(consts.group_h.tolist()):
        for j, d in enumerate(h_a.tolist()):
            want = exact_slot(g, Fraction(h) / Fraction(d))
            assert slots[i, j] == want if d == 1.0 else slots[i, j] <= want, (h, d)
    b, _ = engine._smooth_rows(consts.odd, 2**17, True, 1.0)
    q = engine._quotient_dn(b.h_dn, np.ones(b.h_dn.size)).view(np.float64)
    assert np.array_equal(q, b.h_dn)
    assert sum(map(g.__contains__, b.h_dn.tolist())) >= 16


def test_a_quotient_rounded_onto_a_grid_point_steps_below_it():
    # num / den rounds to nearest onto the grid point 1.5, though the exact
    # quotient lies below it: unless den is 1.0 the quotient steps down, and
    # reads the slot below
    num, den = float.fromhex("0x1.983bb254a19a7p+0"), float.fromhex("0x1.1027cc386bbc5p+0")
    assert num / den == 1.5 and Fraction(num) / Fraction(den) < Fraction(3, 2)
    q = engine._quotient_dn(np.array([num, 1.5]), np.array([den, 1.0])).view(np.float64)
    assert Fraction(q[0]) <= Fraction(num) / Fraction(den) and q[1] == 1.5
    assert np.array_equal(engine._slot(q) - engine._slot(np.array([1.5])), [-1, 0])


def test_folded_curve_is_read_at_the_last_log_point_below_each_grid_point(table_y1009_r200):
    # the engine's grid point g reads the folded curve at the largest log
    # point i with 2^(i 2^-bits) <= g, bits = moments._LOG_BITS, capped at
    # 1/2 past 1; the lower read starts at the first point below 1
    mpmath.mp.dps = 40
    hi, s = fold_curve(table_y1009_r200, 31)
    consts = engine._engine_consts(table_y1009_r200, 31)
    ru, g = consts.ru_at[1:], engine._grid()
    n = s.size // 2
    for m in list(range(0, g.size, 61)) + [engine._ONE_SLOT, engine._ONE_SLOT + 1, g.size - 1]:
        i = int(mpmath.floor(mpmath.log(mpmath.mpf(float(g[m])), 2) * 2**moments._LOG_BITS))
        want = min(s[i + n], 0.5) if g[m] > 1.0 else s[i + n]
        assert ru[m] == want, m
    first = int(np.argmax(ru < 1.0))
    assert 0 < first < engine._ONE_SLOT and ru[first - 1] == 1.0
    assert 1 <= Fraction(consts.q_lower) * Fraction(float(g[first])) <= 1 + Fraction(1, 2**50)


def test_a_y_past_the_row_budget_is_refused(table_y31_r200, capsys, monkeypatch):
    # at 512 rows the even smooth numbers <= 1e5 keep 3 and 5 alone: the run
    # is refused, naming the largest y that fits, and the CLI exits 3
    monkeypatch.setattr(engine, "_ROW_BUDGET", 512)
    with pytest.raises(UnsupportedParameterError, match=r"use y <= 5$"):
        run_bounds(31, 10**5, 200, threads=1, table=table_y31_r200)
    assert main(["bounds", "--y", "31", "--z", "1e5", "--rmax", "200"]) == 3
    assert capsys.readouterr().err.rstrip().endswith("use y <= 5")
    assert run_bounds(5, 10**5, 200, threads=1).pair_count > 0


def test_a_y_past_the_row_budget_is_refused_before_the_table_is_built(monkeypatch):
    # the b table needs only the odd primes <= y and z, so a refused run
    # builds no moment table
    def no_table(*args):
        raise AssertionError("moment table built for a refused run")

    monkeypatch.setattr(engine, "build_moment_table", no_table)
    with pytest.raises(UnsupportedParameterError, match=r"use y <= 53$"):
        run_bounds(157, 10**8, 200, threads=1)


@pytest.mark.parametrize("y,z,r_max,budget,used", [
    (31, 10**6, 200, engine._ROW_BUDGET, 10),
    (353, 10**5, 500, engine._ROW_BUDGET, 70),  # two mask words
    (5, 10**6, 200, engine._ROW_BUDGET, 2),  # fewer odd primes than the class primes
    (3, 20, 200, engine._ROW_BUDGET, 1),  # one class prime
    (2, 10**6, 200, engine._ROW_BUDGET, 0),  # no odd prime at all
])
def test_class_split_moves_no_bit(y, z, r_max, budget, used, monkeypatch):
    """Pairing each a-side row only with the b classes disjoint from its own
    drops only pairs the mask filter drops too: with no class primes, the
    pair count and the three totals keep every bit."""
    table = build_moment_table(y, r_max)
    odd = tuple(primes_upto(y).tolist()[1:])
    assert engine._smooth_rows(odd, z, True, 1.0, (), budget)[1] == used

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
# not 2048 rows at a time, read 7.05 MB. The fold's 2^-14 log step doubles
# its arrays, and the run read 6.76 MB, the curve build's, until the fold
# built the moment curve in its padded buffer, the lower log bounds at
# i >= 0 alone, and the engine's curve in one np.repeat after it: with the
# b table alive the curve build peaks at 4.13 MB (5.14 MB on the 2^-13
# step), fold_curve alone at 2.68 MB (1.88 MB), and the walk's peak, 5.23
# MB, is the run's again.
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
    # directed density base (1/3)(3/5) = 1/5 and mass base (2/3)(4/5) =
    # 8/15, neither a double, and its masses m0/v stay on their sides where
    # v itself is no double. 3 and 5 are group primes, so rho and rest are
    # 1: the odd side's M rho is its mass, and hl its abundancy
    odd, limit = (3, 5), 2**62
    m0 = Fraction(8, 15)
    for even, f0 in ((True, Fraction(1)), (False, Fraction(1, 5))):
        m0_dirs = () if even else (ratio_dn(m0.numerator, m0.denominator),
                                   ratio_up(m0.numerator, m0.denominator)) * 2 + (1.0,)
        rows, used = engine._smooth_rows(odd, limit, even,
                                         ratio_dn(f0.numerator, f0.denominator), m0_dirs)
        assert used == 2
        values = rows.value.tolist()
        assert max(values) > 2**53
        assert sum(float(v) != v for v in values) > 100
        cols = (rows.d_dn, rows.h_dn, rows.h_up)
        for v, d_dn, h_dn, h_up in zip(values, *(col.tolist() for col in cols)):
            d, h = exact_factors(v, f0)
            assert Fraction(d_dn) <= d, v
            assert Fraction(h_dn) <= h <= Fraction(h_up), v
        if even:
            assert all(col.size == 0 for col in rows[5:])
            continue
        for v, m_dn, m_up in zip(values, rows.m_dn.tolist(), rows.m_up.tolist()):
            assert Fraction(m_dn) <= m0 / v <= Fraction(m_up), v
        assert rows.mr_dn.tobytes() == rows.m_dn.tobytes()
        assert rows.mr_up.tobytes() == rows.m_up.tobytes()
        assert rows.hl_dn.tobytes() == rows.h_dn.tobytes()


def test_lower_columns_are_directed():
    # the odd side's mass of the b with no odd prime outside the group
    # primes, M(v) rho(v), and hl(v) = h(v) / rest(v), for v up to 2^40
    # built from 3 .. 17: those past the group primes lose their factors
    odd, limit = (3, 5, 7, 11, 13, 17), 2**40
    gp = odd[:engine._GROUP_PRIMES]
    rest = [p for p in odd if p not in gp]
    m0 = Fraction(1, 3)
    mr0 = m0 * math.prod(Fraction(p - 2, p - 1) for p in rest)
    hl0 = math.prod(Fraction(p - 1, p) for p in rest)
    heads = (ratio_dn(m0.numerator, m0.denominator), ratio_up(m0.numerator, m0.denominator),
             ratio_dn(mr0.numerator, mr0.denominator), ratio_up(mr0.numerator, mr0.denominator),
             ratio_dn(hl0.numerator, hl0.denominator))
    rows, used = engine._smooth_rows(odd, limit, False, 1.0, heads)
    assert used == len(odd) and rows.value.size > 10**4
    cols = (rows.mr_dn, rows.mr_up, rows.hl_dn)
    for v, mr_dn, mr_up, hl_dn in zip(rows.value.tolist(), *(col.tolist() for col in cols)):
        mr, hl = mr0 / v, hl0 * abundancy(factorize(v))
        for p in rest:
            if v % p == 0:
                mr *= Fraction(p - 1, p - 2)
                hl *= Fraction(p, p - 1)
        assert Fraction(mr_dn) <= mr <= Fraction(mr_up), v
        assert Fraction(hl_dn) <= hl, v


def test_sums_below_the_unit_round_to_their_sides(table_y1009_r200):
    """Terms below 2**-FIXED_BITS, the unit of the sums: the upper charge
    sums UP, so each of its terms counts a whole unit; the covered mass, the
    saving and the lower excess sum DOWN, so none of theirs counts. A sum
    taken to the other side moves the upper total down or the lower total up
    past the exact one."""
    consts = engine._engine_consts(table_y1009_r200, 31)
    one = 1 << FIXED_BITS
    # the upper charges of three a with no group prime (A = 0), at a mass
    # of 2**-120 each: at least the exact sum of M w c
    h_up, m_up = np.array([1.0, 1.5, 3.25]), np.full(3, 2.0**-120)
    total = engine._upper_charge(consts, 0, h_up, m_up)
    live = np.flatnonzero(consts.group_w[0])
    c = engine._group_read(consts, consts.group_h[live, None], h_up)
    exact = sum(Fraction(m) * Fraction(w) * Fraction(r)
                for w, row in zip(consts.group_w[0, live].tolist(), c.tolist())
                for m, r in zip(m_up.tolist(), row))
    assert exact > 0 and Fraction(total, one) >= exact
    # one chunk's cells, their densities scaled by 2**-110: the chunk adds
    # nothing to its block's charges and covers nothing
    b = engine._b_table(consts.odd, 10**4)
    chunks = engine._cell_tables(consts, b, 10**4)
    ch = next(chunks)
    _, upper, _, pairs = engine._chunk_sums(consts, b, ch)
    assert upper < ch.charge[1] and pairs > 100  # some cells save
    tiny = b._replace(d_dn=b.d_dn * 2.0**-110)
    assert engine._chunk_sums(consts, tiny, ch) == (*ch.charge, 0, pairs)


def test_group_codes_that_pass_uint8_are_rejected(monkeypatch):
    # at _V2_CAP = 3 the largest code is 2 << (G + 1) | (2 << G) - 1: 191 at
    # five group primes, 383 at six, which b_group would wrap
    table = build_moment_table(31, 2)
    monkeypatch.setattr(engine, "_GROUP_PRIMES", 5)
    assert engine._engine_consts(table, 31).group_h.size == 192
    monkeypatch.setattr(engine, "_GROUP_PRIMES", 6)
    with pytest.raises(UnsupportedParameterError):
        engine._engine_consts(table, 31)
    with pytest.raises(UnsupportedParameterError):
        run_bounds(31, 10**3, 2, threads=1, table=table)


def test_z_beyond_int64_is_rejected():
    for z in (2**63, 10**19):
        with pytest.raises(InvalidParameterError):
            run_bounds(3, z, 5, threads=1)
