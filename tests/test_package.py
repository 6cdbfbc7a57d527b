"""The package's public surface."""
import importlib

import sigbound

_MODULES = ("arith", "cli", "counting", "dirround", "engine", "errors", "moments")

# The DirScalar operand algebra, the errors only it raised, the sieve's scaled
# comparison and the divisor-sum oracle: removed because no production path
# ran them (the oracle lives in tests/oracles.py). DEFAULT_BLOCK: the sieve's
# block size is derived from x now.
_REMOVED = (
    "dir_add", "dir_sub", "dir_mul", "dir_div", "dir_pow",
    "_operand_value", "_sum_exact", "_mul_exact", "_div_exact",
    "DirectionError", "SignUncertainError",
    "abundancy_ge", "RunConfig", "config_from_args", "coprime",
    "naive_sigma_upto", "DEFAULT_BLOCK",
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
