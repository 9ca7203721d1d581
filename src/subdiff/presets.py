"""Ready-made problem builders shared by the CLI and the test suite."""

from __future__ import annotations

import numpy as np

from .kernels import TimeGrid, default_grading
from .mittag_leffler import mittag_leffler
from .solver import ProblemSpec
from .spatial import SpatialGrid, build_grid, constant_law, first_eigenvalue, porous_law

__all__ = ["PRESETS", "build_preset", "eigenmode_exact"]


def _box(dimension: int, extents, resolution: int) -> SpatialGrid:
    if extents is None:
        extents = tuple((0.0, float(np.pi)) for _ in range(dimension))
    else:
        flat = np.asarray(extents, dtype=float).ravel()
        if flat.size == 2:
            extents = tuple((flat[0], flat[1]) for _ in range(dimension))
        elif flat.size == 2 * dimension:
            extents = tuple((flat[2 * d], flat[2 * d + 1]) for d in range(dimension))
        else:
            raise ValueError(
                f"extents needs 2 or {2 * dimension} numbers for dimension {dimension}, got {flat.size}"
            )
    return build_grid(dimension, extents, resolution)


def _product_sine(grid: SpatialGrid) -> np.ndarray:
    """First Dirichlet eigenfunction of the box, nodal values."""
    pts = grid.points()
    vals = np.ones(grid.n_nodes)
    for d in range(grid.dim):
        a, b = grid.extents[d]
        vals *= np.sin(np.pi * (pts[:, d] - a) / (b - a))
    return vals


def _time_grid(alpha: float, horizon: float, steps: int, grading) -> TimeGrid:
    r = default_grading(alpha) if grading is None else float(grading)
    return TimeGrid.graded(horizon, steps, r)


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
_COMMON = dict(alpha=0.5, dimension=1, extents=None, grading=None)


def build_preset(name: str, **overrides) -> ProblemSpec:
    """Build a preset, applying only the overrides that are not None.

    Overrides are ``alpha``, ``dimension``, ``extents``, ``resolution``,
    ``horizon``, ``steps`` and ``grading`` (None keeps the graded default).
    """
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    law, initial, sizes = PRESETS[name]
    unknown = set(overrides) - set(_COMMON) - set(sizes)
    if unknown:
        raise TypeError(f"unknown preset arguments {sorted(unknown)}")
    p = {**_COMMON, **sizes, **{k: v for k, v in overrides.items() if v is not None}}
    grid = _box(p["dimension"], p["extents"], p["resolution"])
    return ProblemSpec(
        alpha=p["alpha"],
        time_grid=_time_grid(p["alpha"], p["horizon"], p["steps"], p["grading"]),
        grid=grid,
        law=law(),
        u0=initial(grid),
        label=name,
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
