"""Ready-made problems shared by the CLI and the test suite.

:func:`preset_grids` merges a preset's defaults with the given overrides once
and builds the run's two grids; :func:`build_preset` builds the problem on
them, and the config check builds them to test a configuration.
"""

from __future__ import annotations

import numpy as np

from .kernels import TimeGrid, default_grading
from .mittag_leffler import mittag_leffler
from .solver import ProblemSpec, check_scales
from .spatial import SpatialGrid, build_grid, constant_law, first_eigenvalue, porous_law

__all__ = ["PRESETS", "preset_grids", "build_preset", "eigenmode_exact"]


def _product_sine(grid: SpatialGrid) -> np.ndarray:
    """First Dirichlet eigenfunction of the box, nodal values."""
    pts = grid.points()
    vals = np.ones(grid.n_nodes)
    for d in range(grid.dim):
        a, b = grid.extents[d]
        vals *= np.sin(np.pi * (pts[:, d] - a) / (b - a))
    return vals


def _zeros(grid: SpatialGrid) -> np.ndarray:
    return np.zeros(grid.n_nodes)


# Every preset has zero forcing and zero Dirichlet data on a box, [0, pi] per
# axis unless ``extents`` says otherwise.  Each entry is (diffusion law,
# initial datum, default sizes):
#
# * eigenmode: constant-coefficient decay of the first box eigenfunction.  The
#   exact solution is separable (see :func:`eigenmode_exact`), so this is the
#   workhorse accuracy benchmark.
# * porous: the same initial datum with the porous-type law
#   a(u) = 1 + u^2 / (2 (1 + u^2)) (nu = 1); exercises the solution-dependent
#   coefficient path and the long-horizon decay certificates.
# * zero: all-zero data; the trajectory must stay identically zero.
PRESETS = {
    "eigenmode": (constant_law, _product_sine, dict(resolution=128, horizon=1.0, steps=256)),
    "porous": (porous_law, _product_sine, dict(resolution=65, horizon=50.0, steps=512)),
    "zero": (porous_law, _zeros, dict(resolution=33, horizon=1.0, steps=64)),
}
_COMMON = dict(alpha=0.5, dimension=1, extents=(0.0, float(np.pi)), grading=None)


def preset_grids(preset: str, **overrides) -> tuple[SpatialGrid, TimeGrid]:
    """The spatial and the time grid of a preset, applying only the overrides that are not None.

    Overrides are ``alpha``, ``dimension``, ``extents``, ``resolution``,
    ``horizon``, ``steps`` and ``grading`` (None keeps the graded default for
    ``alpha``).  Raises ``ValueError`` when a grid cannot be built: a box
    that :func:`~subdiff.spatial.build_grid` refuses, or time nodes that are
    not strictly increasing, as when a strong grading underflows the first
    steps to zero; or when the grids give the preset's law scales near the
    float maximum (:func:`~subdiff.solver.check_scales`).
    """
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    unknown = set(overrides) - set(_COMMON) - set(PRESETS[preset][2])
    if unknown:
        raise TypeError(f"unknown preset arguments {sorted(unknown)}")
    p = {**_COMMON, **PRESETS[preset][2], **{k: v for k, v in overrides.items() if v is not None}}
    r = default_grading(p["alpha"]) if p["grading"] is None else float(p["grading"])
    grid = build_grid(p["dimension"], p["extents"], p["resolution"])
    time_grid = TimeGrid.graded(p["horizon"], p["steps"], r)
    check_scales(p["alpha"], grid, time_grid, PRESETS[preset][0]())
    return grid, time_grid


def build_preset(preset: str, **overrides) -> ProblemSpec:
    """Build a preset on the grids of :func:`preset_grids`, which takes the same overrides."""
    grid, time_grid = preset_grids(preset, **overrides)
    law, initial, _ = PRESETS[preset]
    alpha = overrides.get("alpha")  # no preset sets its own
    return ProblemSpec(
        alpha=_COMMON["alpha"] if alpha is None else alpha,
        time_grid=time_grid,
        grid=grid,
        law=law(),
        u0=initial(grid),
        label=preset,
    )


def eigenmode_exact(spec: ProblemSpec):
    """Exact solution ``t -> field`` for a constant-law eigenmode problem.

    Requires the law to be constant (nu == lam); the rate is the eigenvalue
    of the box scaled by the conductivity.
    """
    if spec.law.nu != spec.law.lam:
        raise ValueError("the eigenmode reference needs a constant diffusion law")
    rate = spec.law.nu * first_eigenvalue(spec.grid)
    u0 = _product_sine(spec.grid)
    alpha = spec.alpha

    def exact(t: float) -> np.ndarray:
        if t == 0.0:
            return u0.copy()
        return mittag_leffler(alpha, -rate * t**alpha).value * u0

    return exact
