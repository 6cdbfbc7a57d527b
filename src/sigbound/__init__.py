"""Certified bounds on the density of n with sigma(2n+1) >= sigma(2n)."""

from .arith import (
    FactoredSmooth,
    PrimeTable,
    abundancy,
    factorize,
    iter_smooth,
    largest_smooth_divisor,
    sieve_primes,
    sigma,
)
from .counting import count_sigma_ge, moment_sum, sigma_block
from .dirround import (
    DOWN,
    UP,
    ConstantBounds,
    Direction,
    DirScalar,
    dir_exp_upper,
    rational_to_dir,
    zeta2_bounds,
)
from .engine import (
    BoundReport,
    CellDensity,
    PairBound,
    ProgressEvent,
    ProgressionCell,
    cell_density,
    enumerate_cells,
    pair_bounds,
    run_bounds,
    solve_progression,
)
from .errors import (
    InvalidCellError,
    InvalidParameterError,
    UnsupportedParameterError,
)
from .moments import MomentTable, build_moment_table, moment_r1_exact, moment_upper

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CellDensity",
    "ConstantBounds",
    "DirScalar",
    "Direction",
    "DOWN",
    "FactoredSmooth",
    "InvalidCellError",
    "InvalidParameterError",
    "MomentTable",
    "PairBound",
    "PrimeTable",
    "ProgressEvent",
    "ProgressionCell",
    "UP",
    "UnsupportedParameterError",
    "abundancy",
    "build_moment_table",
    "cell_density",
    "count_sigma_ge",
    "dir_exp_upper",
    "enumerate_cells",
    "factorize",
    "iter_smooth",
    "largest_smooth_divisor",
    "moment_r1_exact",
    "moment_sum",
    "moment_upper",
    "pair_bounds",
    "rational_to_dir",
    "run_bounds",
    "sieve_primes",
    "sigma",
    "sigma_block",
    "solve_progression",
    "zeta2_bounds",
]
