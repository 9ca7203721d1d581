"""Constant-law runs against their exact discrete solution, mode by mode.

For a constant law ``a(u) = nu`` with zero forcing and zero Dirichlet data the
discrete Laplacian is diagonal in the interior sine basis, with the
eigenvalues ``grid.dirichlet_eigenvalues``.  So the L1 trajectory is exactly
``sum_k y_k(t_n) phi_k``, where ``y_k`` solves the scalar L1 relaxation at
``mu_k = nu lambda_k`` from the sine coefficient of ``u_0``.  The reference
marches every mode with :func:`~subdiff.relaxation.solve_relaxation_l1`; the
run assembles, solves and sums its history on the grid instead, so the two
agree to roundoff on a direct run and to the compression's accuracy on a
compressed one.  The reference shares the L1 weights and the exact memory
provider with the run, so it does not audit them (``test_kernels.py`` does);
it audits the assembly, the linear solves, the step loop and the compressed
memory.  The mode march itself is held to a plain row-by-row march, whose
memory sums are one dot of a weight row per step.
"""

import dataclasses

import numpy as np
import pytest

from subdiff.kernels import L1Weights
from subdiff.presets import build_preset
from subdiff.relaxation import solve_relaxation_l1
from subdiff.solver import SolverOptions, _sine_matrix, run_trajectory
from subdiff.spatial import constant_law

EPS = np.finfo(float).eps


def discrete_reference(spec) -> np.ndarray:
    """The exact L1 trajectory of a constant-law spec with zero forcing and zero boundary data, (M + 1, nodes)."""
    assert spec.law.nu == spec.law.lam and spec.has_zero_data()
    grid = spec.grid
    lam = grid.dirichlet_eigenvalues  # one axis per grid axis, over the interior nodes
    sines = [_sine_matrix(n) for n in lam.shape]
    interior = (slice(1, -1),) * grid.dim
    # the sine transform of the interior values: S @ S = (n + 1) / 2 I on each axis
    coef = spec.u0.reshape(grid.shape)[interior]
    for axis, S in enumerate(sines):
        coef = np.moveaxis(np.tensordot(S, coef, axes=(1, axis)), 0, axis) * (2.0 / (S.shape[0] + 1))
    modes = solve_relaxation_l1(spec.alpha, spec.law.nu * lam.ravel(), coef.ravel(), spec.time_grid)
    values = modes.T.reshape((-1,) + lam.shape)  # a time axis, then the mode axes
    for axis, S in enumerate(sines):
        values = np.moveaxis(np.tensordot(S, values, axes=(1, axis + 1)), 0, axis + 1)
    fields = np.zeros((spec.time_grid.steps + 1,) + grid.shape)
    fields[(slice(None),) + interior] = values
    return fields.reshape(fields.shape[0], -1)


def _spec(dim, resolution, steps, grading, nu):
    """A constant law on [0, pi]^dim from ``x (pi - x) (1 + sin 3x)`` per axis, a datum with many sine modes."""
    spec = build_preset("eigenmode", dimension=dim, resolution=resolution, steps=steps, grading=grading, alpha=0.6)
    x = spec.grid.points()
    u0 = np.prod(x * (np.pi - x) * (1.0 + np.sin(3.0 * x)), axis=1)
    return dataclasses.replace(spec, law=constant_law(nu), u0=u0)


@pytest.mark.parametrize("history", ["direct", "compressed"])
@pytest.mark.parametrize("grading", [1.0, None], ids=["uniform", "graded"])
@pytest.mark.parametrize(
    "dim, mode, resolution, steps, nu",
    [(1, "picard", 65, 256, 1.0), (1, "newton", 33, 300, 0.7), (2, "picard", 17, 128, 2.0)],
    ids=["1d-picard", "1d-newton", "2d-picard"],
)
def test_constant_law_run_is_its_exact_discrete_solution(dim, mode, resolution, steps, nu, grading, history):
    spec = _spec(dim, resolution, steps, grading, nu)
    options = SolverOptions(mode=mode, history=history)
    traj = run_trajectory(spec, options)
    scale = float(np.max(np.abs(spec.u0)))
    deviation = float(np.max(np.abs(traj.fields - discrete_reference(spec)))) / scale
    # a linear step converges in one exact correction, so a direct run differs from the reference by rounding
    # alone (about 1e-15 here, most of it the reference's sine transforms); a compressed one also by its
    # weights' deviation from the exact ones, each at most eps_compress / 100 relative, which moved these
    # fields by 3e-13 to 8e-13 (and by 1e-11 to 1.7e-11 with the memory term scaled by 1 + 1e-10)
    tol = steps * EPS if history == "direct" else 5e-4 * options.eps_compress
    assert deviation <= tol, deviation


def test_the_reference_is_the_eigenmode_for_one_mode():
    # the preset's datum is the first sine mode alone, so the reference is that mode times its relaxation
    spec = build_preset("eigenmode", resolution=33, steps=96)
    lam = spec.grid.dirichlet_eigenvalues[0]
    y = solve_relaxation_l1(spec.alpha, spec.law.nu * lam, 1.0, spec.time_grid)
    np.testing.assert_allclose(discrete_reference(spec), np.outer(y, spec.u0), rtol=0, atol=1e-15)


@pytest.mark.parametrize("grading", [1.0, None], ids=["uniform", "graded"])
def test_the_mode_march_is_the_row_by_row_march(grading):
    # the reference's memory sums come from the blocked direct history; here each is one row's dot
    spec = _spec(1, 65, 256, grading, 1.0)
    mu = spec.grid.dirichlet_eigenvalues
    v0 = np.linspace(1.0, -0.5, mu.size)
    weights = L1Weights(alpha=spec.alpha, grid=spec.time_grid)
    rows = np.empty((mu.size, spec.time_grid.steps + 1))
    rows[:, 0] = v0
    for n in range(1, spec.time_grid.steps + 1):
        w = weights.block(n, n + 1)[0]
        memory = np.diff(rows[:, :n], axis=1) @ w[:-1]
        rows[:, n] = (w[-1] * rows[:, n - 1] - memory) / (w[-1] + mu)
    marched = solve_relaxation_l1(spec.alpha, mu, v0, spec.time_grid)
    assert float(np.max(np.abs(marched - rows))) <= spec.time_grid.steps * EPS
