"""Certified bounds on the density of n with sigma(2n+1) >= sigma(2n)."""

from .counting import count_sigma_ge, moment_sum
from .dirround import DOWN, UP, Direction, DirScalar
from .engine import BoundReport, cell_density, run_bounds
from .errors import (
    InvalidCellError,
    InvalidParameterError,
    UnsupportedParameterError,
)
from .moments import MomentTable, build_moment_table

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "DOWN",
    "DirScalar",
    "Direction",
    "InvalidCellError",
    "InvalidParameterError",
    "MomentTable",
    "UP",
    "UnsupportedParameterError",
    "build_moment_table",
    "cell_density",
    "count_sigma_ge",
    "moment_sum",
    "run_bounds",
]
