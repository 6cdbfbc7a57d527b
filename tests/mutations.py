"""The mutation suite: each entry breaks one rounding direction or one bound
of the library, and the tests it names must fail on the broken code.

    python tests/mutations.py

It is opt-in: pytest does not collect it (no test_ prefix). It copies src/,
tests/ and pyproject.toml to a temporary directory, checks that the named
tests pass there, then applies one entry at a time and runs only its named
tests, each entry on a fresh copy of its file. An entry is killed when every
test it names fails. The script exits 1 if a mutant survives (a named test
passes) or a run does not end in failures alone, and 2, before it runs
anything, if an entry's old text does not occur exactly once in its file.
"""
from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutation(NamedTuple):
    file: str  # relative to the root of the checkout
    old: str  # must occur exactly once in file
    new: str
    tests: tuple[str, ...]  # pytest ids, each of which must fail


MUTATIONS = (
    # a quotient by a divisor other than 1.0 that rounds onto a grid point
    # must step below it
    Mutation("src/sigbound/engine.py", "inexact = den != 1.0", "inexact = den < 1.0",
             ("tests/test_kernel.py::test_a_quotient_rounded_onto_a_grid_point_steps_below_it",)),
    # the upper group charges are summed UP
    Mutation("src/sigbound/engine.py", "total += fixed_sum(mc.ravel(), UP)",
             "total += fixed_sum(mc.ravel(), DOWN)",
             ("tests/test_kernel.py::test_sums_below_the_unit_round_to_their_sides",)),
    # the saving, which the upper side takes off, is summed DOWN
    Mutation("src/sigbound/engine.py",
             "saving = fixed_sum(ulp_dn(np.multiply(dens_dn, gap, out=gap)), DOWN)",
             "saving = fixed_sum(ulp_dn(np.multiply(dens_dn, gap, out=gap)), UP)",
             ("tests/test_kernel.py::test_sums_below_the_unit_round_to_their_sides",)),
    # the squares that carry q^r across a gap step DOWN
    Mutation("src/sigbound/moments.py", "        sq_b -= 1\n", "        sq_b += 1\n",
             ("tests/test_kernel.py::test_bound_curves_carry_q_r_by_the_power_of_each_gap",)),
    # the fold's rounding needs its slack
    Mutation("src/sigbound/moments.py",
             "slack = 1.0 + 4.0 * sum(map(len, laws)) * 2.0**-53", "slack = 1.0",
             ("tests/test_moments.py::TestFold::test_fold_is_at_least_the_exact_fold_where_sums_round_down",)),
    # rho(a), the share of the groups whose b has no prime past the group
    # primes, is the product of (p - 2)/(p - 1)
    Mutation("src/sigbound/engine.py", "rho, rho_den = rho * (p - 2), rho_den * (p - 1)",
             "rho, rho_den = rho * (p - 1), rho_den * p",
             ("tests/test_kernel.py::test_bracket_is_on_the_safe_side_of_exact_sums",)),
    # a cell of a lower group with R = 1 reads the group at hl(a); h(a)
    # moves bits to the safe side, which only the pinned totals see
    Mutation("src/sigbound/engine.py", "base = np.where(r, rows.hl_dn.take(ai), h)",
             "base = np.where(r, h, h)",
             ("tests/test_golden.py::test_totals_y31",)),
)


def stale(mutations, root: Path = ROOT) -> list[str]:
    """One message per entry whose old text does not occur exactly once."""
    out = []
    for m in mutations:
        n = (root / m.file).read_text().count(m.old)
        if n != 1:
            out.append(f"{m.file}: old text occurs {n} times, not once: {m.old!r}")
    return out


def _pytest(copy: Path, tests) -> tuple[int, str]:
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=dict(os.environ, PYTHONPATH=str(copy / "src")),
        capture_output=True, text=True)
    return run.returncode, run.stdout + run.stderr


def _failed(output: str, test: str) -> bool:
    return re.search(rf"^FAILED {re.escape(test)}(\[| |$)", output, re.M) is not None


def run(mutations, root: Path = ROOT) -> int:
    """Apply each mutation to a copy of the checkout and run its tests;
    returns the exit status described in the module docstring."""
    bad = stale(mutations, root)
    if bad:
        print("\n".join(bad))
        return 2
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.egg-info")
        for part in ("src", "tests"):
            shutil.copytree(root / part, copy / part, ignore=skip)
        shutil.copy(root / "pyproject.toml", copy)
        named = sorted({t for m in mutations for t in m.tests})
        code, output = _pytest(copy, named)
        if code != 0:
            print(output)
            print("the named tests do not pass on the unmutated copy")
            return 1
        for m in mutations:
            path = copy / m.file
            text = path.read_text()
            path.write_text(text.replace(m.old, m.new))
            try:
                code, output = _pytest(copy, m.tests)
            finally:
                path.write_text(text)
            alive = [t for t in m.tests if not _failed(output, t)]
            if code != 1 or alive:
                status = 1
                print(output)
                print(f"SURVIVED {m.file}: {m.old!r} -> {m.new!r}"
                      + (f" (passed: {', '.join(alive)})" if alive else f" (pytest exit {code})"))
            else:
                print(f"killed   {m.file}: {m.old!r} -> {m.new!r}")
    return status


if __name__ == "__main__":
    sys.exit(run(MUTATIONS))
