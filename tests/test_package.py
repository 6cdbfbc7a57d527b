"""The package's public surface."""
import ast
import importlib
import pathlib

import sigbound

_MODULES = ("arith", "cli", "counting", "dirround", "engine", "errors", "moments")

_ALL = {
    "BoundReport", "CellDensity", "DOWN", "DirScalar", "Direction",
    "FactoredSmooth", "InvalidCellError", "InvalidParameterError",
    "MomentTable", "PrimeTable", "ProgressEvent", "UP",
    "UnsupportedParameterError", "build_moment_table", "cell_density",
    "count_sigma_ge", "moment_sum", "run_bounds", "sieve_primes", "split_smooth",
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
# the thread pool shares the tables.
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
)

# Methods dropped along with the code that called them.
_REMOVED_METHODS = (
    ("arith", "PrimeTable", "primorial"),
    ("arith", "FactoredSmooth", "one"),
    ("moments", "MomentTable", "root_floats"),
    ("moments", "MomentTable", "usable"),
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


def test_public_names_are_pinned():
    assert set(sigbound.__all__) == _ALL
    assert len(sigbound.__all__) == 20


# np.nextafter steps one element at a time and math.fsum needs a Python list;
# the array kernels of dirround (ulp_up, ulp_dn, exact_sum) give the same bits.
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
