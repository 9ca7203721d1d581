"""Solvers and certificates for quasilinear subdiffusion equations.

The package discretizes

    d_t^alpha (u - u0) - div(a(u) grad u) = f

with the L1 scheme in time (uniform or graded meshes) and a divergence-form
finite-difference operator in space, and ships the diagnostic machinery used
to certify the qualitative theory numerically: discrete fractional convexity,
comparison against relaxation supersolutions, sup-norm boundedness, and
Mittag-Leffler decay envelopes for the squared L2 norm.
"""

from .kernels import (
    CompressedHistory,
    DirectHistory,
    L1Weights,
    TimeGrid,
    check_discrete_convexity,
    compress_history,
)
from .mittag_leffler import mittag_leffler
from .relaxation import comparison_check, relaxation_solution, solve_relaxation_l1
from .spatial import build_grid, constant_law, porous_law
from .solver import ProblemSpec, SolverOptions, StepFailure, Trajectory, run_trajectory
from .diagnostics import boundedness_report, convexity_report, decay_report, norm_series, weakform_residual
from .presets import build_preset, eigenmode_exact
from .config import ConfigError, parse_config

__version__ = "0.1.0"

__all__ = [
    "CompressedHistory",
    "ConfigError",
    "DirectHistory",
    "L1Weights",
    "ProblemSpec",
    "SolverOptions",
    "StepFailure",
    "TimeGrid",
    "Trajectory",
    "boundedness_report",
    "build_grid",
    "build_preset",
    "check_discrete_convexity",
    "comparison_check",
    "compress_history",
    "constant_law",
    "convexity_report",
    "decay_report",
    "eigenmode_exact",
    "mittag_leffler",
    "norm_series",
    "parse_config",
    "porous_law",
    "relaxation_solution",
    "run_trajectory",
    "solve_relaxation_l1",
    "weakform_residual",
    "__version__",
]
