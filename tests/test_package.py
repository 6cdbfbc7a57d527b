"""The package's public surface."""
import ast
import dataclasses
import importlib
import pathlib

import sigbound

_MODULES = ("arith", "cli", "counting", "dirround", "engine", "errors", "moments")

_ALL = {
    "BoundReport", "DOWN", "DirScalar", "Direction",
    "InvalidCellError", "InvalidParameterError",
    "MomentTable", "UP",
    "UnsupportedParameterError", "build_moment_table", "cell_density",
    "count_sigma_ge", "moment_sum", "run_bounds",
}

# The DirScalar operand algebra, the errors only it raised, the sieve's scaled
# comparison and the divisor-sum oracle: removed because no production path
# ran them. DEFAULT_BLOCK, default_block_size: the sieve's block size is
# derived from x, with no override. The reference implementations (cells one
# at a time, progressions, per-cell r search, scalar moment bound, exact
# divisor sums, smooth enumeration) live in tests/oracles.py; ext_gcd,
# largest_smooth_divisor, the ConstantBounds/zeta2_bounds/rational_to_dir
# bracket and dir_exp_upper duplicated other helpers; dn_div, pow_up and
# flt_dn have no caller left in the package; _default_threads
# (SIGBOUND_THREADS) duplicated run_bounds' own default. _WORKER_STATE,
# _worker_init, _worker_run: the fork pool's per-process state, gone with it;
# the thread pool shares the tables. PrimeTable, FactoredSmooth, CellDensity,
# split_smooth, sieve_primes, _validate_factored, _cell_arg: cell_density takes
# (a, b, y) as ints and returns the Fraction, and arith.primes_upto is the one
# prime sieve (it was counting._primes_upto); _check_y is moments.check_y, and
# _check_sieve is part of counting's block driver.
# exp_up_wide, _exp_up_core, _tail_factor: dirround.exp_up is the one
# directed exp, over arrays, and the scalar form is an oracle;
# _bound_curves is moments.bound_curves. _merge, _upper_with_tail, next_dn:
# the cell totals add as exact integers (fixed_sum) and each reported number
# is rounded once from them, so no directed merge or chunk step is left.
# _float_dir, _F63: each table density factor is its parent's times one
# exact ratio, so no integer value is rounded to a float. _grid_slot,
# _GRID_LO, _GRID_HI: the ratio grid is a run of doubles, and a cell's slot
# is read off the bits of its ratio with no log guess. up_sub: only the
# references in tests/oracles.py subtract rounding up. _upper_curve:
# moments.bound_curves returns the one curve ru, and the engine forms the
# lower curve from it at lookup. ProgressEvent, _directed: a progress
# callback gets a BoundReport of the cells summed so far, built by the one
# report builder in run_bounds. _CHUNK_MIN: every chunk holds _CHUNK
# candidate rows; the ramp of small first chunks only fed the pool.
# exact_sum, _SUM_MAX_TERMS, _SUM_BOUND_BITS: the totals are directed sums
# in units of 2**-94 (fixed_sum, one split of each term), not exact ones in
# units of 2**-1074 by rounds of extraction. _a_blocks, _a_block, _Own: a
# (y, z) whose b table passes the row budget is refused, so the a side is
# one table of the odd a, charged whole, and no walk splits a as c*m.
_REMOVED = (
    "dir_add", "dir_sub", "dir_mul", "dir_div", "dir_pow",
    "_operand_value", "_sum_exact", "_mul_exact", "_div_exact",
    "DirectionError", "SignUncertainError",
    "abundancy_ge", "RunConfig", "config_from_args", "coprime",
    "naive_sigma_upto", "DEFAULT_BLOCK", "default_block_size",
    "pair_bounds", "_scan_best_ratio", "PairBound",
    "solve_progression", "ProgressionCell", "enumerate_cells",
    "moment_upper", "factorize", "iter_smooth", "sigma", "abundancy",
    "largest_smooth_divisor", "ext_gcd",
    "ConstantBounds", "zeta2_bounds", "rational_to_dir", "dir_exp_upper",
    "_ZETA2_LO", "_ZETA2_HI", "_LN2_LO", "_LN2_HI", "_default_threads",
    "dn_div", "pow_up", "flt_dn",
    "_WORKER_STATE", "_worker_init", "_worker_run",
    "PrimeTable", "FactoredSmooth", "CellDensity", "split_smooth", "sieve_primes",
    "_validate_factored", "_cell_arg", "_primes_upto", "_check_y", "_check_sieve",
    "exp_up_wide", "_exp_up_core", "_tail_factor", "_bound_curves",
    "_merge", "_upper_with_tail", "next_dn", "_float_dir", "_F63",
    "_grid_slot", "_GRID_LO", "_GRID_HI", "up_sub", "_upper_curve",
    "_extract", "_SCALE", "ProgressEvent", "_directed", "_CHUNK_MIN",
    "_group_reads",
    "exact_sum", "_SUM_MAX_TERMS", "_SUM_BOUND_BITS",
    "_a_blocks", "_a_block", "_Own",
)

# Methods dropped along with the code that called them. The table holds
# floats, so value_floats() has nothing left to unwrap. A chunk holds its
# whole a-side block and the row index of each range, so _Rows.take() has
# no caller.
_REMOVED_METHODS = (
    ("moments", "MomentTable", "root_floats"),
    ("moments", "MomentTable", "usable"),
    ("moments", "MomentTable", "value_floats"),
    ("engine", "_Rows", "take"),
)

# Fields of typed engine state, dropped with the work that filled them. The
# lower curve is ulp_dn(1 - ru), formed for the cells that read it, so
# _Consts carries no rl_at; no caller read the UP-rounded covered mass, so
# the engine no longer sums it for BoundReport.covered_hi. A cell forms its
# group's read from h(a) and a 24-entry table, so a chunk carries no table
# of reads per a-side row. The a side is one table of the odd a, so a chunk
# carries no per-row bounds on h(a) or group bits of a cofactor t.
_REMOVED_FIELDS = (
    ("engine", "_Consts", "rl_at"),
    ("engine", "BoundReport", "covered_hi"),
    ("engine", "_Chunk", "groups"),
    ("engine", "_Chunk", "h_a"),
    ("engine", "_Chunk", "hd_a"),
    ("engine", "_Chunk", "hl_a"),
    ("engine", "_Chunk", "t_grp"),
)


def test_star_import_resolves_every_exported_name():
    ns = {}
    exec("from sigbound import *", ns)
    assert len(set(sigbound.__all__)) == len(sigbound.__all__)
    assert [name for name in sigbound.__all__ if name not in ns] == []


def test_removed_names_stay_removed():
    for mod in _MODULES:
        module = importlib.import_module(f"sigbound.{mod}")
        assert [name for name in _REMOVED if hasattr(module, name)] == [], mod
    assert set(_REMOVED).isdisjoint(sigbound.__all__)
    for mod, cls, meth in _REMOVED_METHODS:
        assert not hasattr(getattr(importlib.import_module(f"sigbound.{mod}"), cls), meth)


def test_removed_fields_stay_removed():
    for mod, cls, field in _REMOVED_FIELDS:
        cls = getattr(importlib.import_module(f"sigbound.{mod}"), cls)
        names = ([f.name for f in dataclasses.fields(cls)]
                 if dataclasses.is_dataclass(cls) else cls._fields)
        assert field not in names, (cls.__name__, field)


def test_public_names_are_pinned():
    assert set(sigbound.__all__) == _ALL
    assert len(sigbound.__all__) == 14


def test_no_private_names_cross_modules():
    """No module of the package imports an underscore name from a sibling:
    what one module needs of another is public there."""
    found = []
    for path in sorted(pathlib.Path(sigbound.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("sigbound"):
                continue
            found += [f"{path.name}:{node.lineno} {alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_no_unused_imports():
    """Every name a module of the package imports is used in that module
    (__init__.py, which imports to re-export, aside)."""
    found = []
    for path in sorted(pathlib.Path(sigbound.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used]
    assert found == []


# np.nextafter steps one element at a time and math.fsum needs a Python list;
# the array kernels of dirround (ulp_up, ulp_dn) give the same bits, and
# fixed_sum gives the directed sum as an integer, which a total rounds once.
_SLOW_PRIMITIVES = {("numpy", "nextafter"), ("np", "nextafter"), ("math", "fsum")}


def test_one_directed_rounding_path():
    """No module but dirround uses np.nextafter or math.fsum."""
    found = []
    for path in sorted(pathlib.Path(sigbound.__file__).parent.glob("*.py")):
        if path.name == "dirround.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                pair = (node.value.id, node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module in ("math", "numpy"):
                pair = next(((node.module, a.name) for a in node.names
                             if (node.module, a.name) in _SLOW_PRIMITIVES), None)
            else:
                continue
            if pair in _SLOW_PRIMITIVES:
                found.append(f"{path.name}:{node.lineno} {pair[0]}.{pair[1]}")
    assert found == []


# Transcendental functions of numpy and math. IEEE 754 leaves their rounding
# to the library, so no directed step after one is a certificate, and the
# package calls none.
_TRANSCENDENTAL = {"log", "log1p", "log2", "log10", "exp", "expm1", "exp2", "pow", "power"}


def _transcendental_uses(tree):
    """The nodes of tree that name a transcendental of numpy or math, as an
    attribute of the module or as a name imported from it."""
    imported = {alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module in ("math", "numpy")
                for alias in node.names if alias.name in _TRANSCENDENTAL}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in ("np", "numpy", "math") and node.attr in _TRANSCENDENTAL:
                yield node
        elif isinstance(node, ast.Name) and node.id in imported:
            yield node


def test_package_calls_no_transcendental():
    """No module of the package uses log, exp or pow of numpy or math."""
    found = []
    for path in sorted(pathlib.Path(sigbound.__file__).parent.glob("*.py")):
        found += [f"{path.name}:{node.lineno} {ast.unparse(node)}"
                  for node in _transcendental_uses(ast.parse(path.read_text()))]
    assert found == []
