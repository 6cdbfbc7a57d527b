"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavy desk-scale bounds
run happens once (module-scoped fixture) and is shared by the criteria that
consume it. TestCriterion2DeskBracket checks criterion 8, the published
bracket, at settings that take well under a second. The paper's own
parameter sets for it, y=353 z=1e13 and y=157 z=1e16, pass the engine's row
budget and are refused with exit code 3 (TestCriterion8PaperSettings).
"""
import json
import math
import time
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from oracles import enumerate_cells, primorial, solve_progression
from sigbound.cli import _outward, main
from sigbound.counting import count_sigma_ge, moment_sum, smooth_part_block
from sigbound.engine import cell_density, run_bounds
from sigbound.moments import build_moment_table, moment_r1_exact

# canonical desk-scale regression values (any thread count, y=31, z=1e8,
# r_max=200, the primes in (31, 1009] folded into the bound curve on a log
# grid of step 2^-13, the cells of each odd a charged by group off that
# curve on both sides, (k, C) above and (k, C, R) below, C of the first
# five odd primes, every total a directed sum in units of 2^-94, the
# moment table at the sparse orders of moment_orders(200));
# full-precision engine outputs:
#   lower   0.05430786461823624
#   upper   0.055021258764615354
#   covered 0.9975129594563145
DESK_PAIRS = 1608738
DESK_LOWER_10 = 0.05430786461  # outward (floor) 10 significant digits
DESK_UPPER_10 = 0.05502125877  # outward (ceiling) 10 significant digits
# The brackets of four group primes, of three group primes whose lower side
# charged no group, of
# the fold's 2^-12 log step, of the groups by k alone, of
# the folded curve that charged the unenumerated tail at 1, of the capped
# curve that folded nothing, of the uncapped bound curve that the symmetry
# cap tightened, of the geometric ratio grid that the bit grid replaced,
# and of the per-cell summation that the chunked sums replaced, each inside
# the next: a change may tighten the bracket but never leave any one.
FOUR_LOWER = 0.054286232433012546
FOUR_UPPER = 0.05504595026642775
NO_LOWER_LOWER = 0.0542058855882322
NO_LOWER_UPPER = 0.05507854787411567
LOG12_LOWER = 0.05416251716607616
LOG12_UPPER = 0.05512056931449539
KGROUP_LOWER = 0.05416251716607616
KGROUP_UPPER = 0.05529416243025519
FOLDED_LOWER = 0.05416251716607616
FOLDED_UPPER = 0.057224307061519514
CAPPED_LOWER = 0.04887130655566928
CAPPED_UPPER = 0.06310434631693457
UNCAPPED_LOWER = 0.047830123268461984
UNCAPPED_UPPER = 0.06492978977948966
GEOMETRIC_LOWER = 0.04782853319837742
GEOMETRIC_UPPER = 0.06493222320113845
EARLIER_LOWER = 0.04782853319777166
EARLIER_UPPER = 0.06493222337119742

EMPIRICAL_PROXY = 0.0546879  # exact proportion at x = 1e7


def report(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def run_cli_json(capsys, *argv):
    t0 = time.perf_counter()
    code = main(list(argv))
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0, f"CLI exited {code}"
    return json.loads(out), elapsed


@pytest.fixture(scope="module")
def desk_run():
    """The canonical desk-scale certified run, once per session."""
    t0 = time.perf_counter()
    r = run_bounds(31, 10**8, 200, threads=1)
    return r, time.perf_counter() - t0


class TestCriterion1EmpiricalTable:
    CASES = [
        (10**3, 60, "0.06", 1.0),
        (10**4, 551, "0.0551", 1.0),
        (10**6, 54603, "0.054603", 10.0),
        (10**7, 546879, "0.0546879", 120.0),
    ]

    @pytest.mark.parametrize("x,count,prop,budget", CASES)
    def test_table_rows(self, capsys, x, count, prop, budget):
        data, elapsed = run_cli_json(capsys, "empirical", "--x", str(x), "--format", "json")
        ok = data["count"] == count and data["proportion"] == float(prop) and elapsed <= budget
        report(
            ok,
            "criterion 1",
            f"x={x:.0e}: count={data['count']} (want {count}), "
            f"proportion={data['proportion']} (want {prop}), {elapsed:.1f}s <= {budget:.0f}s",
        )

    def test_1e5_row_uses_computed_value(self, capsys):
        # the published table's 1e5 row misprints the proportion; the artifact
        # checks its own exact count (5490, proportion 0.0549)
        data, elapsed = run_cli_json(capsys, "empirical", "--x", "1e5", "--format", "json")
        ok = data["count"] == 5490 and data["proportion"] == 0.0549 and elapsed <= 2.0
        report(ok, "criterion 1", f"x=1e5: count={data['count']} (computed fixture 5490)")


class TestCriterion2DeskBracket:
    def test_desk_scale_bracket(self, desk_run):
        r, elapsed = desk_run
        lower, upper = r.lower_total.value, r.upper_total.value
        ok_time = elapsed <= 600.0
        ok_proxy = lower <= EMPIRICAL_PROXY + 0.0001 and upper >= EMPIRICAL_PROXY - 0.0001
        ok_envelope = lower >= 0.01 and upper <= 0.25
        ok_regression = (
            r.pair_count == DESK_PAIRS
            and lower == pytest.approx(0.05430786461823624, rel=1e-9)
            and upper == pytest.approx(0.055021258764615354, rel=1e-9)
        )
        ok_printed = (_outward(lower, True) == DESK_LOWER_10
                      and _outward(upper, False) == DESK_UPPER_10)
        ok_inside = (lower >= FOUR_LOWER and upper <= FOUR_UPPER
                     and FOUR_LOWER >= NO_LOWER_LOWER and FOUR_UPPER <= NO_LOWER_UPPER
                     and NO_LOWER_LOWER >= LOG12_LOWER and NO_LOWER_UPPER <= LOG12_UPPER
                     and LOG12_LOWER >= KGROUP_LOWER and LOG12_UPPER <= KGROUP_UPPER
                     and KGROUP_LOWER >= FOLDED_LOWER and KGROUP_UPPER <= FOLDED_UPPER
                     and FOLDED_LOWER >= CAPPED_LOWER and FOLDED_UPPER <= CAPPED_UPPER
                     and CAPPED_LOWER >= UNCAPPED_LOWER and CAPPED_UPPER <= UNCAPPED_UPPER
                     and UNCAPPED_LOWER >= GEOMETRIC_LOWER and UNCAPPED_UPPER <= GEOMETRIC_UPPER
                     and GEOMETRIC_LOWER >= EARLIER_LOWER and GEOMETRIC_UPPER <= EARLIER_UPPER)
        ok = ok_time and ok_proxy and ok_envelope and ok_regression and ok_printed and ok_inside
        report(
            ok,
            "criterion 2",
            f"bounds y=31 z=1e8 rmax=200: [{lower:.9f}, {upper:.9f}] "
            f"pairs={r.pair_count} in {elapsed:.1f}s (budget 600s); "
            f"proxy {EMPIRICAL_PROXY} inside with 1e-4 slack: {ok_proxy}; "
            f"envelope [0.01, 0.25]: {ok_envelope}; regression fixtures: {ok_regression}; "
            f"printed [{DESK_LOWER_10}, {DESK_UPPER_10}]: {ok_printed}; "
            f"inside [{FOUR_LOWER}, {FOUR_UPPER}] inside "
            f"[{NO_LOWER_LOWER}, {NO_LOWER_UPPER}] inside "
            f"[{LOG12_LOWER}, {LOG12_UPPER}] inside "
            f"[{KGROUP_LOWER}, {KGROUP_UPPER}] inside "
            f"[{FOLDED_LOWER}, {FOLDED_UPPER}] inside "
            f"[{CAPPED_LOWER}, {CAPPED_UPPER}] inside "
            f"[{UNCAPPED_LOWER}, {UNCAPPED_UPPER}] inside "
            f"[{GEOMETRIC_LOWER}, {GEOMETRIC_UPPER}] inside "
            f"[{EARLIER_LOWER}, {EARLIER_UPPER}]: {ok_inside}",
        )

    def test_cli_surface_json(self, capsys, desk_run):
        # same parameters through the CLI schema at reduced z: schema contract
        data, _ = run_cli_json(
            capsys, "bounds", "--y", "31", "--z", "1e5", "--rmax", "200",
            "--threads", "1", "--format", "json",
        )
        ok = (
            set(data) == {"command", "params", "lower", "upper", "covered_mass",
                          "pair_count", "elapsed_seconds", "certified"}
            and data["certified"] is True
        )
        report(ok, "criterion 2", f"CLI JSON schema intact: {sorted(data)}")


    def test_cli_desk_lower_end_meets_the_criterion_8_target(self, capsys):
        # the lower target of criterion 8, reached at the desk setting
        data, _ = run_cli_json(capsys, "bounds", "--y", "31", "--z", "1e8", "--rmax", "200",
                               "--format", "json")
        report(data["lower"] >= 0.0539171, "criterion 8",
               f"bounds y=31 z=1e8 rmax=200: lower {data['lower']} >= 0.0539171")

    @pytest.mark.parametrize("y,z", [("13", "1e11"), ("2", "1e15")], ids=["13-1e11", "2-1e15"])
    def test_cli_certifies_the_published_bracket(self, capsys, y, z):
        # criterion 8 in full: both ends of the published bracket
        # [0.0539171, 0.0549446] at once, in well under a second; y = 2
        # folds every odd prime up to 1009, y = 13 enumerates those up to 13
        data, elapsed = run_cli_json(capsys, "bounds", "--y", y, "--z", z,
                                     "--rmax", "2000", "--format", "json")
        ok = data["certified"] is True and data["lower"] >= 0.0539171 and data["upper"] <= 0.0549446
        report(ok, "criterion 8",
               f"bounds y={y} z={z} rmax=2000: [{data['lower']}, {data['upper']}] inside "
               f"[0.0539171, 0.0549446] in {elapsed:.2f}s")


class TestCriterion3TheoremConsistency:
    def test_bracket_consistent_with_published_bounds(self, desk_run):
        r, _ = desk_run
        lower, upper = r.lower_total.value, r.upper_total.value
        ok = lower <= 0.0549445 and upper >= 0.0539171
        report(
            ok,
            "criterion 3",
            f"lower {lower:.7f} <= 0.0549445 and upper {upper:.7f} >= 0.0539171",
        )


class TestCriterion4MonotoneRefinement:
    def test_z_ladder(self, desk_run):
        r8, elapsed8 = desk_run
        table = build_moment_table(31, 200)
        t0 = time.perf_counter()
        results = []
        for z in (10**5, 10**6, 10**7):
            results.append(run_bounds(31, z, 200, threads=1, table=table))
        elapsed = time.perf_counter() - t0 + elapsed8
        lowers = [r.lower_total.value for r in results] + [r8.lower_total.value]
        uppers = [r.upper_total.value for r in results] + [r8.upper_total.value]
        ok_mono = all(a <= b for a, b in zip(lowers, lowers[1:])) and all(
            a >= b for a, b in zip(uppers, uppers[1:])
        )
        ok = ok_mono and elapsed <= 900.0
        report(
            ok,
            "criterion 4",
            f"z in 1e5..1e8: lowers {['%.6f' % v for v in lowers]} nondecreasing, "
            f"uppers {['%.6f' % v for v in uppers]} nonincreasing, {elapsed:.1f}s <= 900s",
        )


class TestCriterion5CellOracles:
    def test_cell_density_against_both_oracles(self):
        t0 = time.perf_counter()
        x = 10**6
        tol = 2.0 / math.sqrt(x)
        checked = 0
        for y in (3, 5):
            P = primorial(y)
            tot = [t for t in range(1, P + 1) if gcd(t, P) == 1]
            part = smooth_part_block(2, 2 * x + 2, y)
            a_vals = part[1::2][:x]
            b_vals = part[0::2][:x]
            for a, b in enumerate_cells(y, 60):
                dens = cell_density(a, b, y)
                # (a) totative-pair count formula via exhaustive scan
                count = sum(
                    solve_progression(a, b, t1, t2, P).solvable
                    for t1 in tot
                    for t2 in tot
                )
                assert dens == Fraction(2 * count, a * b * P), (
                    f"cell ({a},{b}) y={y}: progression oracle disagrees"
                )
                # (b) direct membership count of n <= 1e6
                members = int(np.count_nonzero((a_vals == a) & (b_vals == b)))
                assert abs(members / x - float(dens)) <= tol, (
                    f"cell ({a},{b}) y={y}: empirical {members/x} vs {float(dens)}"
                )
                checked += 1
        elapsed = time.perf_counter() - t0
        ok = elapsed <= 60.0 and checked >= 19
        report(
            ok,
            "criterion 5",
            f"{checked} cells (ab <= 60, y in {{3,5}}) match both oracles "
            f"within {tol}; {elapsed:.1f}s <= 60s",
        )


class TestCriterion6MomentOracle:
    def test_first_moment_matches_mean_constant(self):
        t0 = time.perf_counter()
        x = 10**7
        s_odd, _ = moment_sum(1, 2, 3, 1, x)
        dens = 1.0 / 6.0
        norm = s_odd / (x * dens)
        lam = moment_r1_exact(3)  # ~1.0966227
        elapsed = time.perf_counter() - t0
        ok = abs(norm - lam) / lam <= 0.02 and elapsed <= 120.0
        report(
            ok,
            "criterion 6",
            f"normalized first moment {norm:.6f} vs upper bound {lam:.6f} "
            f"({abs(norm - lam) / lam:.3%} off, tol 2%); {elapsed:.1f}s <= 120s",
        )


class TestCriterion7DirectedRounding:
    def test_expression_trees(self):
        from test_dirround import check_trees

        t0 = time.perf_counter()
        violations = check_trees(10**5, seed=90210)
        elapsed = time.perf_counter() - t0
        ok = violations == 0 and elapsed <= 60.0
        report(
            ok,
            "criterion 7",
            f"100000 randomized expression trees bracket exact rationals, "
            f"{violations} violations; {elapsed:.1f}s <= 60s",
        )


class TestCriterion8PaperSettings:
    @pytest.mark.parametrize("y,z", [("353", "1e13"), ("157", "1e16")])
    def test_paper_settings_are_refused(self, capsys, y, z):
        # the even y-smooth numbers <= z pass the row budget: the run is
        # refused before any cell, naming the largest y that fits
        code = main(["bounds", "--y", y, "--z", z, "--rmax", "2000"])
        err = capsys.readouterr().err
        report(code == 3 and "use y <= " in err, "criterion 8",
               f"bounds y={y} z={z} rmax=2000: exit {code}, {err.strip()}")
