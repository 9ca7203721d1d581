"""Implicit L1 time-marcher: accuracy, iteration modes, history compression."""

import dataclasses
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import dstn, idstn

from subdiff import solver
from subdiff.kernels import DirectHistory, L1Weights, TimeGrid, default_grading
from subdiff.presets import build_preset, eigenmode_exact
from subdiff.relaxation import comparison_check
from subdiff.solver import ProblemSpec, SolverOptions, StepFailure, run_trajectory
from subdiff.spatial import (
    DiffusionLaw,
    LineOperator,
    SpatialGrid,
    assemble_quasilinear_operator,
    build_grid,
    constant_law,
    first_eigenvalue,
    newton_jacobian,
    porous_law,
)


def _jacobian(grid, law, u, shift=0.0):
    """The Newton Jacobian at ``u``, extending the step matrix frozen there as the solver builds it."""
    return newton_jacobian(law, u, assemble_quasilinear_operator(grid, law, u, shift))


def _grid(dim, extents, res):
    """``build_grid`` on one interval and one node count, else ``SpatialGrid`` on paired extents and per-axis counts."""
    return build_grid(dim, extents, res) if np.isscalar(res) else SpatialGrid(extents, res)


def _sine_problem(alpha=0.5, resolution=65, steps=64, horizon=1.0, law=None, grading=None):
    grid = build_grid(1, (0.0, math.pi), resolution)
    r = default_grading(alpha) if grading is None else grading
    tg = TimeGrid.graded(horizon, steps, r)
    u0 = np.sin(grid.points()[:, 0])
    return ProblemSpec(
        alpha=alpha,
        time_grid=tg,
        grid=grid,
        law=law or constant_law(1.0),
        u0=u0,
        label="sine",
    )


def _stiff_problem(dim):
    """a(y) = 1 + 50 sin^2(3y) (nu = 1, lam = 51), on which undamped Picard overshoots on step 1."""
    law = DiffusionLaw(
        a=lambda y: 1.0 + 50.0 * np.sin(3.0 * np.asarray(y)) ** 2,
        deriv=lambda y: 150.0 * np.sin(6.0 * np.asarray(y)),
        nu=1.0,
        lam=51.0,
        tag="stiff",
    )
    grid = build_grid(dim, (0.0, math.pi), 33)
    return ProblemSpec(
        alpha=0.5, time_grid=TimeGrid.uniform(10.0, 4), grid=grid, law=law, u0=np.prod(np.sin(grid.points()), axis=1)
    )


def _dense(op):
    """The operator's matrix, column by column through its product."""
    return (op @ np.eye(op.grid.n_nodes)).T


class TestEigenmodeAccuracy:
    def test_linear_problem_tracks_separated_solution(self):
        # constant coefficient, sine initial data: u = E_a(-t^a) sin(x)
        spec = build_preset("eigenmode", resolution=65, steps=128)
        traj = run_trajectory(spec)
        exact = eigenmode_exact(spec)
        q = spec.grid.quadrature_weights()
        for n in (1, 32, 128):
            diff = traj.fields[n] - exact(traj.times[n])
            rel = math.sqrt(q @ diff**2) / math.sqrt(q @ exact(traj.times[n]) ** 2)
            assert rel < 1e-3, f"step {n}: relative L2 error {rel:.2e}"

    def test_first_eigenvalue_helper(self):
        g1 = build_grid(1, (0.0, math.pi), 9)
        np.testing.assert_allclose(first_eigenvalue(g1), 1.0, rtol=1e-14)
        g2 = SpatialGrid(((0.0, math.pi), (0.0, 2.0 * math.pi)), (9, 9))
        np.testing.assert_allclose(first_eigenvalue(g2), 1.25, rtol=1e-14)


class TestIterationBehavior:
    def test_constant_law_needs_one_solve_per_step(self):
        spec = _sine_problem(law=constant_law(2.0), steps=16)
        traj = run_trajectory(spec, SolverOptions(mode="picard"))
        np.testing.assert_array_equal(traj.iterations[1:], 1)
        assert traj.iterations[0] == 0

    def test_quasilinear_needs_few_iterations(self):
        spec = _sine_problem(law=porous_law(), steps=32)
        traj = run_trajectory(spec, SolverOptions(mode="picard", tol=1e-11))
        assert traj.iterations.max() <= 8
        assert np.all(traj.residuals[1:] <= 1e-11)

    def test_newton_matches_picard(self):
        spec = _sine_problem(law=porous_law(), steps=32)
        a = run_trajectory(spec, SolverOptions(mode="picard", tol=1e-12))
        b = run_trajectory(spec, SolverOptions(mode="newton", tol=1e-12))
        dev = np.max(np.abs(a.fields - b.fields))
        assert dev < 1e-10
        # Newton on a mildly nonlinear problem converges at least as fast
        assert b.iterations.max() <= a.iterations.max()

    def test_deterministic_rerun_is_bitwise_identical(self):
        spec = _sine_problem(law=porous_law(), steps=24)
        a = run_trajectory(spec, SolverOptions())
        b = run_trajectory(spec, SolverOptions())
        assert np.array_equal(a.fields, b.fields)

    def test_step_failure_carries_diagnostics(self):
        spec = _sine_problem(law=porous_law(), steps=8)
        with pytest.raises(StepFailure) as exc:
            run_trajectory(spec, SolverOptions(mode="picard", tol=1e-16, max_iter=1))
        err = exc.value
        assert err.step >= 1
        assert err.t > 0.0
        assert err.iterations == 1
        assert err.last_iterate.shape == (spec.grid.n_nodes,)
        assert "tol" in str(err) or "iterations" in str(err)


    @pytest.mark.parametrize("dim", [1, 2])
    def test_stiff_law_records_damping_halvings(self, dim):
        # in 2D step 1 takes 85 corrections, beyond the default max_iter
        spec = _stiff_problem(dim)
        options = SolverOptions(mode="picard", max_iter=100)
        traj = run_trajectory(spec, options)
        assert traj.halvings.shape == (5,)
        assert traj.halvings[0] == 0
        assert traj.halvings[1] >= 1
        assert traj.residuals.max() <= options.tol


class TestAgainstRelaxationOracle:
    def test_flat_mode_follows_scalar_relaxation(self):
        # spatially flat data with zero Dirichlet values is not flat, but the
        # lowest mode dominates; instead solve with the mode itself and
        # compare peak amplitude against the scalar relaxation marcher
        alpha = 0.4
        spec = _sine_problem(alpha=alpha, resolution=129, steps=256, horizon=2.0)
        traj = run_trajectory(spec)
        lam_h = 4.0 / spec.grid.spacing[0] ** 2 * math.sin(spec.grid.spacing[0] / 2.0) ** 2
        envelope = comparison_check(np.zeros(spec.time_grid.steps + 1), spec.time_grid, alpha, lam_h, 1.0).envelope
        mid = spec.grid.n_nodes // 2
        peak = traj.fields[:, mid] / math.sin(spec.grid.axes[0][mid])
        np.testing.assert_allclose(peak, envelope, atol=2e-3)


class TestHistoryCompression:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: _sine_problem(law=porous_law(), steps=512, grading=1.0),
            lambda: build_preset("porous", resolution=17, steps=64),  # the default graded grid
            lambda: build_preset("porous", dimension=2, resolution=17, steps=64),
        ],
        ids=["uniform", "graded-1d", "graded-2d"],
    )
    def test_compressed_matches_direct(self, make):
        spec = make()
        direct = run_trajectory(spec, SolverOptions(history="direct"))
        comp = run_trajectory(spec, SolverOptions(history="compressed", eps_compress=1e-8))
        scale = np.max(np.abs(direct.fields))
        dev = np.max(np.abs(direct.fields - comp.fields)) / scale
        assert dev < 1e-8
        assert comp.timings["compression_modes"] > 0
        np.testing.assert_array_equal(comp.iterations, direct.iterations)


class TestSpecValidation:
    def test_alpha_range(self):
        grid = build_grid(1, (0.0, 1.0), 9)
        tg = TimeGrid.uniform(1.0, 4)
        with pytest.raises(ValueError):
            ProblemSpec(alpha=1.0, time_grid=tg, grid=grid, law=constant_law(), u0=np.zeros(9))

    def test_u0_size(self):
        grid = build_grid(1, (0.0, 1.0), 9)
        tg = TimeGrid.uniform(1.0, 4)
        with pytest.raises(ValueError):
            ProblemSpec(alpha=0.5, time_grid=tg, grid=grid, law=constant_law(), u0=np.zeros(8))

    def test_u0_must_be_finite(self):
        grid = build_grid(1, (0.0, 1.0), 9)
        tg = TimeGrid.uniform(1.0, 4)
        u0 = np.zeros(9)
        u0[3] = np.nan
        with pytest.raises(ValueError):
            ProblemSpec(alpha=0.5, time_grid=tg, grid=grid, law=constant_law(), u0=u0)

    def test_boundary_initial_mismatch(self):
        base = dict(alpha=0.5, time_grid=TimeGrid.uniform(1.0, 4), grid=build_grid(1, (0.0, 1.0), 9), law=constant_law())
        with pytest.raises(ValueError, match="disagree on the boundary .* the compatibility condition fails"):
            ProblemSpec(u0=np.ones(9), boundary=0.0, **base)
        with pytest.raises(ValueError, match="boundary data has 3 values for 2 boundary nodes"):
            ProblemSpec(u0=np.zeros(9), boundary=np.zeros(3), **base)

    def test_law_outside_its_bounds_is_refused_at_construction(self):
        # a(y) = 1 + y^2 declared within [1, 2]: data in [0, 1] pad the sampled range to [-1.5, 2.5]
        law = DiffusionLaw(a=lambda y: 1.0 + np.asarray(y) ** 2, deriv=lambda y: 2.0 * np.asarray(y), nu=1.0, lam=2.0)
        grid = build_grid(1, (0.0, 1.0), 9)
        u0 = np.sin(np.pi * grid.points()[:, 0])
        base = dict(alpha=0.5, time_grid=TimeGrid.uniform(1.0, 4), grid=grid, u0=u0)
        with pytest.raises(ValueError, match=r"diffusion law 'custom' leaves its declared bounds \[1.0, 2.0\] on "
                           r"\[-1.5, 2.5\]: observed \[1, 7.25\]"):
            ProblemSpec(law=law, **base)
        assert ProblemSpec(law=porous_law(), **base).law.tag == "porous"  # a(y) in [1, 1.5) for every y

    def test_scales_near_the_float_limit_are_refused_at_construction(self):
        # the step matrix's largest diagonal, w_nn + 2 lam / h^2, and the decay rate 2 nu lambda_1 max(1, T)^alpha
        # stay 2^10 below the float maximum: a box near the spacing rule's limit overflowed or went NaN mid-run
        base = dict(alpha=0.5, u0=np.zeros(9))
        tg, small = TimeGrid.uniform(1.0, 4), build_grid(1, (0.0, 4e-152), 9)  # 2 / h^2 = 8e304
        assert ProblemSpec(time_grid=tg, grid=small, law=constant_law(1.0), **base).law.lam == 1.0
        with pytest.raises(ValueError, match=r"on \(9,\) nodes, with time steps from 0.25, gives a step matrix's largest "
                           r"diagonal of 3.2e\+305, above 1.756e\+305, 2\^10 below the float maximum"):
            ProblemSpec(time_grid=tg, grid=small, law=constant_law(4.0), **base)
        # the diagonal weight of the shortest step, (1e-322)^-0.95 / Gamma(1.05), counts too
        with pytest.raises(ValueError, match=r"step matrix's largest diagonal of 8\.\d+e\+305"):
            ProblemSpec(alpha=0.95, time_grid=TimeGrid(np.array([0.0, 1e-322, 1.0])), grid=build_grid(1, (0.0, 1.0), 9),
                        law=constant_law(), u0=np.zeros(9))
        # 2 / h^2 = 1.3e302 passes; the decay rate 2 pi^2 / L^2 = 2e301 times T^alpha = 1e5 does not
        wide = dict(time_grid=TimeGrid.uniform(1e10, 4), grid=build_grid(1, (0.0, 1e-150), 9))
        with pytest.raises(ValueError, match=r"decay rate times max\(1, T\)\^alpha of 1.974e\+306"):
            ProblemSpec(law=constant_law(), **wide, **base)

    def test_boundary_is_stored_expanded_and_read_only(self):
        grid = build_grid(2, (0.0, 1.0), 9)
        base = dict(alpha=0.5, time_grid=TimeGrid.uniform(1.0, 4), grid=grid, law=constant_law())
        spec = ProblemSpec(u0=np.where(grid.boundary_mask, 0.25, 1.0), boundary=0.25, **base)
        assert spec.boundary.shape == (32,) and np.all(spec.boundary == 0.25)
        assert not spec.boundary.flags.writeable
        assert not spec.has_zero_data()
        assert ProblemSpec(u0=np.zeros(grid.n_nodes), **base).has_zero_data()

    def test_source_must_be_callable(self):
        grid = build_grid(1, (0.0, 1.0), 9)
        base = dict(alpha=0.5, time_grid=TimeGrid.uniform(1.0, 4), grid=grid, law=constant_law(), u0=np.zeros(9))
        with pytest.raises(ValueError, match="source must be None or a callable"):
            ProblemSpec(source=np.zeros((5, 9)), **base)
        # a callable that returns the wrong number of values fails at its first step
        with pytest.raises(ValueError, match="source callable returned the wrong number of values"):
            run_trajectory(ProblemSpec(source=lambda t, pts: np.zeros(8), **base))

    def test_source_is_called_at_each_step_node(self):
        grid = build_grid(1, (0.0, 1.0), 17)
        tg = TimeGrid.uniform(0.5, 8)
        u0 = np.sin(math.pi * grid.points()[:, 0])
        calls = []

        def f(t, pts):
            calls.append(t)
            return (1.0 + t) * np.sin(math.pi * pts[:, 0])

        base = dict(alpha=0.5, time_grid=tg, grid=grid, law=porous_law(), u0=u0)
        forced = run_trajectory(ProblemSpec(source=f, **base))
        assert calls == tg.nodes[1:].tolist()
        free = run_trajectory(ProblemSpec(**base))
        assert np.all(forced.fields[1:, 8] > free.fields[1:, 8])  # a positive load raises the midpoint


class TestTwoDimensions:
    def test_2d_porous_run_obeys_bounds(self):
        spec = build_preset("porous", dimension=2, resolution=17, steps=24, horizon=1.0)
        traj = run_trajectory(spec)
        bound = np.max(np.abs(spec.u0))
        assert np.max(np.abs(traj.fields)) <= bound + 1e-12
        # fields stay exactly zero on the boundary
        assert np.max(np.abs(traj.fields[:, spec.grid.boundary_mask])) == 0.0

    def test_2d_linear_decay_matches_separated_solution(self):
        spec = build_preset("eigenmode", dimension=2, resolution=33, steps=48, horizon=0.5)
        traj = run_trajectory(spec)
        exact = eigenmode_exact(spec)
        q = spec.grid.quadrature_weights()
        diff = traj.fields[-1] - exact(traj.times[-1])
        ref = exact(traj.times[-1])
        rel = math.sqrt(q @ diff**2 / (q @ ref**2))
        assert rel < 5e-3

    def test_2d_run_converges_where_the_true_linear_residual_stalls(self):
        # on 129^2 nodes the true linear residual b - M x of a correction can sit at roundoff, just above
        # atol = 0.1 tol; CG stops on its recursively updated residual, so no solve runs into its cap
        spec = build_preset("porous", alpha=0.8, dimension=2, resolution=129, steps=16, horizon=10.0)
        traj = run_trajectory(spec, SolverOptions(mode="picard"))
        assert traj.residuals.max() <= traj.options.tol

    @pytest.mark.parametrize("preset", ["porous", "eigenmode"])  # eigenmode's constant law reuses its step matrix
    def test_newton_on_a_2d_problem_is_refused_before_any_step(self, preset, monkeypatch):
        monkeypatch.setattr(solver, "_solve_step", lambda *args: pytest.fail("a step ran"))
        spec = build_preset(preset, dimension=2, resolution=9, steps=4)
        with pytest.raises(ValueError, match="solver mode 'newton' solves 1D problems only; this problem is 2D"):
            run_trajectory(spec, SolverOptions(mode="newton"))


class TestInteriorSolve:
    """``solver.spsolve`` solves the interior block: exactly in 1D, to its residual bound in 2D."""

    @pytest.mark.parametrize(
        "build, dim, extents, res",
        [
            (assemble_quasilinear_operator, 1, (0.0, 1.0), 65),
            (_jacobian, 1, (0.0, 1.0), 65),  # Newton is a 1D mode
            (assemble_quasilinear_operator, 2, (0.0, 1.0), 17),
            (assemble_quasilinear_operator, 2, [(0.0, 1.0), (0.0, 2.0)], (17, 33)),
        ],
    )
    def test_matches_dense_interior_solve(self, build, dim, extents, res):
        grid = _grid(dim, extents, res)
        u = 1.5 * np.prod(np.sin(2.0 * np.pi * grid.points() / grid.lengths), axis=1)
        M = build(grid, porous_law(), u, shift=3.0)
        b = np.random.default_rng(4).normal(size=grid.n_nodes)  # boundary entries are ignored
        ii = grid.interior_indices()
        want = np.linalg.solve(_dense(M)[np.ix_(ii, ii)], b[ii])
        atol = 1e-15 * np.linalg.norm(b[ii])
        before = _dense(M)
        x = solver.spsolve(M, b, nu=1.0, atol=atol)
        assert np.array_equal(_dense(M), before)  # Picard's damping solves again with the same matrix
        assert np.all(x[grid.boundary_mask] == 0.0)
        assert np.linalg.norm(x[ii] - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("extents, res", [((0.0, 1.0), 33), ([(0.0, 1.0), (0.0, 2.0)], (17, 33))])
    def test_constant_law_converges_in_one_pcg_iteration(self, extents, res):
        # the preconditioner is then the step matrix's own interior block
        grid = _grid(2, extents, res)
        M = assemble_quasilinear_operator(grid, constant_law(2.0), np.zeros(grid.n_nodes), shift=3.0)
        b = np.where(grid.boundary_mask, 0.0, np.random.default_rng(5).normal(size=grid.n_nodes))
        precond = solver._sine_preconditioner(grid, 3.0, 2.0)
        _, iterations = solver._pcg(M, b, precond, 1e-10 * np.linalg.norm(b), 10)
        assert iterations == 1

    @pytest.mark.parametrize("shift, nu", [(3.0, 1.0), (250.0, 0.5)])
    @pytest.mark.parametrize(
        "extents, res", [((0.0, 1.0), 17), ([(0.0, 1.0), (0.0, 2.0)], (17, 33)), ((0.0, 1.0), 128)]
    )
    def test_sine_preconditioner_matches_fft_sine_transform(self, extents, res, shift, nu):
        grid = _grid(2, extents, res)
        r = np.random.default_rng(6).normal(size=grid.n_nodes)
        inner = (slice(1, -1),) * 2
        want = np.zeros(grid.shape)
        rhat = dstn(r.reshape(grid.shape)[inner], type=1) / (shift + nu * grid.dirichlet_eigenvalues)
        want[inner] = idstn(rhat, type=1)
        got = solver._sine_preconditioner(grid, shift, nu)(r)
        assert got.shape == (grid.n_nodes,)
        assert np.all(got[grid.boundary_mask] == 0.0)
        assert np.max(np.abs(got - want.ravel())) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("grading", [None, 1.0])
    def test_sine_preconditioner_is_built_once_per_step_shift(self, grading, monkeypatch):
        # the corrections of a step share its w_nn: a graded run builds one preconditioner per step, a uniform
        # run (one w_nn) one in all, and every other solve reuses the last one built
        spec = build_preset("porous", dimension=2, resolution=17, steps=6, horizon=1.0, grading=grading)
        solves = []
        spsolve = solver.spsolve
        monkeypatch.setattr(solver, "spsolve", lambda M, *a, **k: solves.append(M.shift) or spsolve(M, *a, **k))
        solver._sine_preconditioner.cache_clear()
        traj = run_trajectory(spec, SolverOptions(mode="picard"))
        info = solver._sine_preconditioner.cache_info()
        assert traj.iterations[1:].min() > 1 and len(solves) == traj.iterations.sum()
        assert info.misses == (1 if grading == 1.0 else spec.time_grid.steps) == len(set(solves))
        assert info.hits == len(solves) - info.misses
        solver._sine_preconditioner.cache_clear()
        assert run_trajectory(spec, SolverOptions(mode="picard")).fields.tobytes() == traj.fields.tobytes()

    def test_krylov_iteration_cap_fails_the_step(self, monkeypatch):
        monkeypatch.setattr(solver, "_KRYLOV_MAXITER", 1)
        spec = build_preset("porous", dimension=2, resolution=17, steps=4, horizon=1.0)
        with pytest.raises(StepFailure, match="linear solve failed: CG reached 1 iterations") as exc:
            run_trajectory(spec, SolverOptions(mode="picard"))
        assert exc.value.step == 1
        assert exc.value.iterations == 1
        assert exc.value.last_iterate.shape == (spec.grid.n_nodes,)

    @pytest.mark.parametrize("build", [assemble_quasilinear_operator, _jacobian])
    def test_first_solve_is_one_dgtsv_call_and_the_second_factors(self, build, monkeypatch):
        grid = build_grid(1, (0.0, 1.0), 65)
        M = build(grid, porous_law(), np.sin(np.pi * grid.points()[:, 0]), shift=3.0)
        b = np.random.default_rng(7).normal(size=(3, grid.n_nodes))
        dgtsv = solver._tridiagonal_lapack()[0]
        want = [dgtsv(*M.band(), bi[1:-1])[3] for bi in b]
        lapack = _recording_lapack(monkeypatch)
        counts = []
        for bi, wi in zip(b, want, strict=True):
            x = solver.spsolve(M, bi, nu=1.0, atol=0.0)
            assert x[1:-1].tobytes() == wi.tobytes()  # every solve gives the bits of dgtsv
            assert x[0] == x[-1] == 0.0
            counts.append(tuple(len(lapack[name]) for name in ("dgtsv", "dgttrf", "dgttrs")))
            if len(counts) == 1:
                assert M.factors == ()  # solved once: no factors kept
        assert counts == [(1, 0, 0), (1, 1, 1), (1, 1, 2)]  # factored once, on the second solve
        assert len(M.factors) == 5
        # the band handed to dgtsv and to dgttrf is the band of the face arrays, bitwise
        for band in (lapack["dgtsv"][0][:3], lapack["dgttrf"][0]):
            assert [a.tobytes() for a in band] == [a.tobytes() for a in M.band()]

    @pytest.mark.parametrize("build", [assemble_quasilinear_operator, _jacobian])
    def test_1d_solve_writes_only_its_own_result(self, build):
        # dgtsv overwrites the band it is given and dgtsv/dgttrs solve in spsolve's result; b, the operator's
        # arrays and its kept factors stay as they were, and the result shares memory with none of them
        grid = build_grid(1, (0.0, 1.0), 33)
        M = build(grid, porous_law(), np.sin(np.pi * grid.points()[:, 0]), shift=3.0)
        b = np.random.default_rng(12).normal(size=grid.n_nodes)
        b.setflags(write=False)  # a write would raise
        operator = [a for a in (M.coeff, M.deriv, M.mean, M.diff) if a is not None]
        kept = [a.tobytes() for a in operator]
        dgtsv = solver._tridiagonal_lapack()[0]
        want = dgtsv(*M.band(), b[1:-1])[3]
        results = []
        for path in ("dgtsv", "dgttrf and dgttrs", "dgttrs"):
            factors = [f.tobytes() for f in M.factors or ()]
            x = solver.spsolve(M, b, nu=1.0, atol=0.0)
            assert x[1:-1].tobytes() == want.tobytes(), path
            assert x[0] == x[-1] == 0.0
            assert x.flags.writeable and x.flags.owndata
            for a in (b, *operator, *(M.factors or ()), *results):
                assert not np.shares_memory(x, a), path
            assert [a.tobytes() for a in operator] == kept
            if path == "dgttrs":
                assert [f.tobytes() for f in M.factors] == factors  # the factors are read, never written
            results.append(x)

    @pytest.mark.parametrize("build", [assemble_quasilinear_operator, _jacobian])
    def test_1d_solve_of_a_strided_or_float32_b_is_that_of_its_float64_copy(self, build):
        # the solve reads b through its own float64 copy, whatever b's layout and dtype
        grid = build_grid(1, (0.0, 1.0), 33)
        u = np.sin(np.pi * grid.points()[:, 0])
        wide = np.random.default_rng(13).normal(size=2 * grid.n_nodes)
        for b in (wide[::2], wide[: grid.n_nodes].astype(np.float32)):
            kept = b.copy()
            for solves in range(3):  # dgtsv, then dgttrf and dgttrs, then dgttrs
                M = build(grid, porous_law(), u, shift=3.0)
                for _ in range(solves + 1):
                    x = solver.spsolve(M, b, nu=1.0, atol=0.0)
                    want = solver.spsolve(build(grid, porous_law(), u, shift=3.0), np.array(b, dtype=float),
                                          nu=1.0, atol=0.0)
                    assert x.tobytes() == want.tobytes()
                    assert b.tobytes() == kept.tobytes()

    def test_singular_tridiagonal_block_raises(self):
        # zero coefficients and zero shift make the 7 x 7 interior block zero
        grid = build_grid(1, (0.0, 1.0), 9)
        M = LineOperator(grid, np.zeros(8))
        for _ in range(2):  # a failed first solve is not marked: the next solve fails the same way
            with pytest.raises(np.linalg.LinAlgError, match="singular"):
                solver.spsolve(M, np.ones(9), nu=1.0, atol=1e-12)
            assert M.factors is None
        M.factors = ()  # as after one successful solve: a failed factorisation is not kept either
        for _ in range(2):
            with pytest.raises(np.linalg.LinAlgError, match="singular"):
                solver.spsolve(M, np.ones(9), nu=1.0, atol=1e-12)
            assert M.factors == ()

    @pytest.mark.parametrize("mode, builder", [("picard", "assemble_quasilinear_operator"), ("newton", "newton_jacobian")])
    def test_singular_tridiagonal_block_fails_the_step(self, mode, builder, monkeypatch):
        def singular(grid, u=None):
            # zero coefficients and no shift; as a step matrix, it keeps the face differences of its state
            return LineOperator(grid, np.zeros(grid.n_nodes - 1), diff=None if u is None else u[1:] - u[:-1])

        # each stub takes its builder's parameters: Newton extends the step matrix frozen at the iterate
        stub = {
            "picard": lambda grid, law, u, shift: singular(grid, u),
            "newton": lambda law, u, frozen: singular(frozen.grid),
        }[mode]
        # the residual operator: the stub for Picard, the real step matrix for Newton
        operator = stub if mode == "picard" else solver.assemble_quasilinear_operator
        monkeypatch.setattr(solver, builder, stub)
        spec = _sine_problem(law=porous_law(), resolution=9, steps=4)
        with pytest.raises(StepFailure, match="linear solve failed: .*singular") as exc:
            run_trajectory(spec, SolverOptions(mode=mode))
        assert exc.value.step == 1
        assert exc.value.iterations == 1
        # the report carries the start's residual; step 1 has no memory and no source
        mask = spec.grid.boundary_mask
        u0 = spec.u0.copy()
        u0[mask] = spec.boundary
        w_11 = L1Weights(alpha=spec.alpha, grid=spec.time_grid).diag(1)
        rhs = w_11 * u0
        rhs[mask] = spec.boundary
        K = operator(spec.grid, spec.law, u0, shift=w_11)
        assert exc.value.residual == np.abs(K @ u0 - rhs).max()

    @pytest.mark.parametrize("dim, mode", [(1, "picard"), (1, "newton"), (2, "picard")])
    def test_constant_dirichlet_data_stays_bitwise_on_every_step(self, dim, mode):
        g = 0.3  # not a dyadic number, so any roundoff on the boundary would show
        grid = build_grid(dim, (0.0, 1.0), 17)
        bump = np.prod(np.sin(np.pi * grid.points()), axis=1)
        spec = ProblemSpec(
            alpha=0.5,
            time_grid=TimeGrid.graded(1.0, 12, 2.0),
            grid=grid,
            law=porous_law(),
            u0=g + bump,
            boundary=g,
        )
        traj = run_trajectory(spec, SolverOptions(mode=mode))
        assert np.all(traj.fields[:, grid.boundary_mask] == g)
        assert np.max(np.abs(traj.fields[1] - g)) > 0.1  # the interior is away from the data


class TestAssemblyContract:
    """Each iterate assembles its step matrix once; Newton adds a Jacobian only before a correction."""

    @pytest.mark.parametrize(
        "case, mode",
        [
            ("1d", "picard"),
            ("1d", "newton"),
            ("2d", "picard"),
            ("stiff-1d", "picard"),  # steps with damping halvings
            ("const-1d", "picard"),
            ("const-1d", "newton"),
            ("const-48-1d", "picard"),  # 1/48 is no binary fraction: the node differences vary by an ulp
            ("const-48-1d", "newton"),
            ("const-graded-1d", "picard"),
            ("const-graded-1d", "newton"),
            ("const-2d", "picard"),
        ],
    )
    def test_matrices_built_per_step(self, case, mode, monkeypatch):
        spec = {
            "1d": lambda: _sine_problem(law=porous_law(), steps=16),
            "2d": lambda: build_preset("porous", dimension=2, resolution=17, steps=4, horizon=1.0),
            "stiff-1d": lambda: _stiff_problem(1),
            "const-1d": lambda: _sine_problem(steps=16, grading=1.0),
            "const-48-1d": lambda: _sine_problem(steps=48, grading=1.0),
            "const-graded-1d": lambda: _sine_problem(steps=16),
            "const-2d": lambda: build_preset("eigenmode", dimension=2, resolution=17, steps=4, grading=1.0),
        }[case]()
        # per step: [step matrices, Jacobians], counted from the end of the previous step, so a
        # matrix the driver builds before calling _solve_step counts towards that step
        counts = [[0, 0]]

        def counting(k, fn):
            def wrapper(*args, **kwargs):
                counts[-1][k] += 1
                return fn(*args, **kwargs)

            return wrapper

        solve_step = solver._solve_step

        def step(*args):
            out = solve_step(*args)
            counts.append([0, 0])
            return out

        monkeypatch.setattr(solver, "_solve_step", step)
        monkeypatch.setattr(solver, "assemble_quasilinear_operator", counting(0, solver.assemble_quasilinear_operator))
        monkeypatch.setattr(solver, "newton_jacobian", counting(1, solver.newton_jacobian))
        traj = run_trajectory(spec, SolverOptions(mode=mode, max_iter=100))
        np.testing.assert_array_equal(counts.pop(), 0)  # nothing is built after the last step
        counts = np.array(counts)
        if case == "stiff-1d":
            assert traj.halvings.max() >= 1
        if case.startswith("const"):
            # a(u) == nu: one step matrix per distinct w_nn, also serving as Newton's Jacobian
            per_step = np.ones(spec.time_grid.steps, dtype=int)
            if spec.time_grid.is_uniform():
                per_step[1:] = 0
            np.testing.assert_array_equal(counts[:, 0], per_step)
            np.testing.assert_array_equal(counts[:, 1], 0)
        else:
            # one K(v) per iterate, the start and the accepted one included: the residual's operator
            # and Picard's matrix; Newton builds its Jacobian from it before each correction
            np.testing.assert_array_equal(counts[:, 0], traj.iterations[1:] + 1)
            np.testing.assert_array_equal(counts[:, 1], traj.iterations[1:] if mode == "newton" else 0)


def _reference_march(spec, mode, tol):
    """``run_trajectory``'s 1D march with direct history, written out in the face loop's formulas.

    Per iterate: the face means ``0.5 (v_lo + v_hi)``, ``c = a(m) / h^2``, the product
    ``w v - (flux into lo, out of hi)`` with ``flux = c (v_hi - v_lo)`` and identity boundary rows, and ``r``;
    a correction solves with the band of ``K(v)`` or, in Newton mode, of the Jacobian with the face terms
    ``d = 0.5 a'(m) (v_hi - v_lo) / h^2``, one ``dgtsv`` call on ``-r`` with zero ends.  The start is
    extrapolated once a step has needed more than one correction.  No halving and no fallback: a run that
    needs either is not one this reference checks.  Returns the fields, iterations and residuals.
    """
    dgtsv = solver._tridiagonal_lapack()[0]
    grid, law, steps = spec.grid, spec.law, spec.time_grid.steps
    (h,) = grid.spacing
    weights = L1Weights(alpha=spec.alpha, grid=spec.time_grid)
    history = DirectHistory(weights)
    history.reset((grid.n_nodes,))
    tau = spec.time_grid.tau
    g0, g1 = spec.boundary
    u0 = spec.u0.copy()
    u0[0], u0[-1] = g0, g1
    fields, iterations, residuals = [u0], [0], [0.0]
    memory = history.memory_term()
    for n in range(1, steps + 1):
        w, u_prev = weights.diag(n), fields[-1]
        rhs = w * u_prev - memory
        rhs[0], rhs[-1] = g0, g1
        v = u_prev + (tau[n - 1] / tau[n - 2]) * (u_prev - fields[-2]) if max(iterations) > 1 else u_prev
        for it in range(51):
            lo, hi = v[:-1], v[1:]
            m = 0.5 * (lo + hi)
            c = law.a(m) / h**2
            flux = c * (hi - lo)
            Kv = w * v
            Kv[:-1] -= flux
            Kv[1:] += flux
            Kv[0], Kv[-1] = v[0], v[-1]
            r = Kv - rhs
            if it and np.abs(r).max() <= tol:
                break
            d = 0.5 * law.deriv(m) * (hi - lo) / h**2 if mode == "newton" else np.zeros_like(c)
            lower, upper = c - d, c + d
            x = -r
            x[0] = x[-1] = 0.0
            *_, x[1:-1], info = dgtsv(-lower[1:-1], lower[1:] + upper[:-1] + w, -upper[1:-1], x[1:-1])
            assert info == 0
            v = v + x
        else:
            raise AssertionError(f"the reference did not converge on step {n}")
        fields.append(v)
        iterations.append(it)
        residuals.append(np.abs(r).max())
        history.push(v - u_prev)
        if n < steps:
            memory = history.memory_term()
    return np.array(fields), np.array(iterations), np.array(residuals)


class TestReferenceMarch:
    """A 1D run equals its march written out in the face loop's formulas, bitwise, over several history blocks."""

    @pytest.mark.parametrize("mode", ["picard", "newton"])
    @pytest.mark.parametrize("law", [porous_law(), constant_law(1.0)], ids=["porous", "constant"])
    def test_graded_direct_run_is_the_written_march_bitwise(self, law, mode):
        # 112 graded steps: the direct history's first block of 64 queries and three of 16 after it
        spec = _sine_problem(law=law, resolution=33, steps=112)
        options = SolverOptions(mode=mode, history="direct")
        traj = run_trajectory(spec, options)
        fields, iterations, residuals = _reference_march(spec, mode, options.tol)
        assert not traj.halvings.any()
        if law.nu != law.lam:
            assert traj.iterations.max() > 1  # so later steps start from the extrapolation
        assert traj.iterations.tobytes() == iterations.tobytes()
        assert traj.residuals.tobytes() == residuals.tobytes()
        assert traj.fields.tobytes() == fields.tobytes()


class TestFaceEvaluationsPerIterate:
    """Each iterate evaluates ``a`` on its faces once; Newton evaluates ``a'`` only before a correction."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_law_calls_per_step(self, dim, monkeypatch):
        mode = "newton" if dim == 1 else "picard"  # Newton is a 1D mode
        spec = {
            1: lambda: _sine_problem(law=porous_law(), steps=16),
            2: lambda: build_preset("porous", dimension=2, resolution=17, steps=4, horizon=1.0),
        }[dim]()
        calls = {"a": 0, "deriv": 0}

        def counting(name):
            fn = getattr(spec.law, name)

            def wrapper(y):
                calls[name] += 1
                return fn(y)

            return wrapper

        spec = dataclasses.replace(spec, law=dataclasses.replace(spec.law, a=counting("a"), deriv=counting("deriv")))
        per_step = []  # (a calls, a' calls) inside each step's solve
        solve_step = solver._solve_step

        def step(*args):
            before = dict(calls)
            out = solve_step(*args)
            per_step.append((calls["a"] - before["a"], calls["deriv"] - before["deriv"]))
            return out

        monkeypatch.setattr(solver, "_solve_step", step)
        traj = run_trajectory(spec, SolverOptions(mode=mode))
        per_step = np.array(per_step)
        assert traj.iterations[1:].max() > 1
        # a face evaluation calls the law once, on the faces of every axis: the start, every corrected iterate,
        # and nothing more
        np.testing.assert_array_equal(per_step[:, 0], traj.iterations[1:] + 1)
        np.testing.assert_array_equal(per_step[:, 1], traj.iterations[1:] if mode == "newton" else 0)

    def test_jacobian_reads_its_step_matrix_face_means(self, monkeypatch):
        # law.a runs once per assembly, law.deriv once per Jacobian, on the means its step matrix keeps,
        # and newton_jacobian never evaluates a
        spec = _sine_problem(law=porous_law(), steps=16)
        calls = {"a": [], "deriv": [], "assemble": 0, "jacobian": 0}
        inside = []  # the builder running now

        def counting(name):
            fn = getattr(spec.law, name)

            def wrapper(y):
                calls[name].append((inside[-1] if inside else None, y))
                return fn(y)

            return wrapper

        def builder(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                inside.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    inside.pop()

            return wrapper

        jacobians = []

        def jacobian(law, u, frozen):
            jacobians.append((frozen.means, builder("jacobian", newton_jacobian)(law, u, frozen)))
            return jacobians[-1][1]

        spec = dataclasses.replace(spec, law=dataclasses.replace(spec.law, a=counting("a"), deriv=counting("deriv")))
        calls["a"].clear()  # the spec's check of the law's bounds
        monkeypatch.setattr(solver, "assemble_quasilinear_operator", builder("assemble", assemble_quasilinear_operator))
        monkeypatch.setattr(solver, "newton_jacobian", jacobian)
        traj = run_trajectory(spec, SolverOptions(mode="newton"))
        assert calls["assemble"] == traj.iterations.sum() + spec.time_grid.steps
        assert calls["jacobian"] == traj.iterations.sum() > spec.time_grid.steps
        assert len(calls["a"]) == calls["assemble"] and {who for who, _ in calls["a"]} == {"assemble"}
        assert len(calls["deriv"]) == calls["jacobian"] and {who for who, _ in calls["deriv"]} == {"jacobian"}
        for (means, _), (_, y) in zip(jacobians, calls["deriv"], strict=True):
            assert y is means[0]  # the step matrix's own means, not a recomputation


class TestConstantLawStepMatrix:
    """A constant law reuses one step matrix; that changes no bit of the trajectory."""

    @staticmethod
    def _assert_bitwise_equal(spec, options):
        reused = run_trajectory(spec, options)
        # lam > nu turns the reuse off; a(u) == nu still lies in [nu, lam]
        law = dataclasses.replace(spec.law, lam=2 * spec.law.nu)
        rebuilt = run_trajectory(dataclasses.replace(spec, law=law), options)
        for name in ("fields", "iterations", "halvings", "residuals"):
            assert getattr(reused, name).tobytes() == getattr(rebuilt, name).tobytes(), name

    @pytest.mark.parametrize(
        "dim, grading, mode",
        [(dim, grading, mode) for mode in ("picard", "newton") for grading in (1.0, 2.0) for dim in (1, 2)
         if dim == 1 or mode == "picard"],  # Newton is a 1D mode
    )
    def test_trajectory_matches_per_iterate_assembly(self, dim, grading, mode):
        resolution, steps = {1: (33, 24), 2: (17, 8)}[dim]
        spec = build_preset("eigenmode", dimension=dim, resolution=resolution, steps=steps, grading=grading)
        self._assert_bitwise_equal(spec, SolverOptions(mode=mode))

    @pytest.mark.parametrize("history", ["direct", "compressed"])
    def test_history_providers_match_per_iterate_assembly(self, history):
        spec = build_preset("eigenmode", resolution=33, steps=64, grading=1.0)
        self._assert_bitwise_equal(spec, SolverOptions(history=history))

    def test_reused_step_matrix_is_read_only(self, monkeypatch):
        built = []
        assemble = solver.assemble_quasilinear_operator

        def recording(*args, **kwargs):
            built.append(assemble(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(solver, "assemble_quasilinear_operator", recording)
        lapack = _recording_lapack(monkeypatch)
        run_trajectory(build_preset("eigenmode", resolution=17, steps=8, grading=1.0))
        assert len(built) == 1
        assert len(lapack["dgtsv"]) == 1  # the first solve
        assert len(lapack["dgttrf"]) == 1  # factored once, on its second solve
        assert len(lapack["dgttrs"]) == 7
        assert all(x.tobytes() == y.tobytes() for x, y in zip(lapack["dgttrf"][0], built[0].band(), strict=True))
        for kept in (built[0].coeff, built[0].mean, built[0].diff):
            with pytest.raises(ValueError, match="read-only"):
                kept[1] = 0.0
        for factor in built[0].factors:  # the LU factors dgttrs reads at every step
            with pytest.raises(ValueError, match="read-only"):
                factor[0] = 0

    @pytest.mark.parametrize("mode", ["picard", "newton"])
    @pytest.mark.parametrize("grading", [1.0, 2.0])
    def test_linear_step_takes_one_product_and_one_back_substitution(self, grading, mode, monkeypatch):
        # 32 uniform steps are bitwise equal, so the uniform run has one w_nn and one step matrix
        spec = build_preset("eigenmode", resolution=33, steps=32, grading=grading)
        options = SolverOptions(mode=mode, history="compressed")
        steps = spec.time_grid.steps
        calls = {"matmul": 0, "spsolve": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        lapack = _recording_lapack(monkeypatch)
        monkeypatch.setattr(LineOperator, "__matmul__", counting("matmul", LineOperator.__matmul__))
        monkeypatch.setattr(solver, "spsolve", counting("spsolve", solver.spsolve))
        traj = run_trajectory(spec, options)
        np.testing.assert_array_equal(traj.iterations[1:], 1)
        assert calls["spsolve"] == steps
        if grading == 1.0:
            # one step matrix: the start's product is the last step's accepted one, except on step 1
            assert calls["matmul"] == steps + 1
            assert (len(lapack["dgtsv"]), len(lapack["dgttrf"]), len(lapack["dgttrs"])) == (1, 1, steps - 1)
        else:
            # a new step matrix every step: each step forms its start's product and solves it once, unfactored
            assert calls["matmul"] == 2 * steps
            assert (len(lapack["dgtsv"]), len(lapack["dgttrf"]), len(lapack["dgttrs"])) == (steps, 0, 0)
        # a second run in the same process starts afresh: no factor or product carries over
        assert run_trajectory(spec, options).fields.tobytes() == traj.fields.tobytes()


def _recording_lapack(monkeypatch):
    """Records the arguments of every ``dgtsv``, ``dgttrf`` and ``dgttrs`` call the solver makes, by name.

    Arrays are recorded as copies taken before the call, which may overwrite them.
    """
    calls = {name: [] for name in ("dgtsv", "dgttrf", "dgttrs")}

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append(tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args))
            return fn(*args, **kwargs)

        return wrapper

    routines = tuple(recording(name, fn) for name, fn in zip(calls, solver._tridiagonal_lapack(), strict=True))
    monkeypatch.setattr(solver, "_tridiagonal_lapack", lambda: routines)
    return calls


class TestExtrapolatedStart:
    """Once a step needs more than one correction, each step starts from the extrapolated field."""

    def test_bench_newton_problem_takes_under_1400_corrections(self):
        # the porous1d-newton bench problem at seed 0; starting every step from u_{n-1} takes 2048
        spec = build_preset("porous", alpha=0.50071, dimension=1, resolution=65, horizon=100.0, steps=1024)
        traj = run_trajectory(spec, SolverOptions(mode="newton"))
        assert traj.iterations.sum() <= 1400
        assert traj.halvings.sum() == 0

    def test_boundary_entries_stay_bitwise_on_a_graded_run(self):
        grid = build_grid(2, (0.0, 1.0), 13)
        x, y = grid.points()[grid.boundary_mask].T
        g = 0.3 + 0.1 * x - 0.7 * y * y  # non-dyadic data, different on every boundary node
        u0 = np.full(grid.n_nodes, 0.3) + np.prod(np.sin(np.pi * grid.points()), axis=1)
        u0[grid.boundary_mask] = g
        spec = ProblemSpec(
            alpha=0.5, time_grid=TimeGrid.graded(1.0, 12, 2.0), grid=grid, law=porous_law(), u0=u0, boundary=g
        )
        traj = run_trajectory(spec)
        assert traj.iterations[1:-1].max() > 1  # so the later steps started from an extrapolation
        assert np.all(traj.fields[:, grid.boundary_mask] == spec.boundary)

    def test_failed_predicted_start_falls_back_to_the_previous_field(self, monkeypatch):
        spec = _sine_problem(law=porous_law(), steps=16)
        solve = solver._solve_step

        def arguments(args):
            return inspect.signature(solve).bind(*args).arguments

        def unpredicted(*args):
            a = arguments(args)
            return solve(*args[:-1], a["u_prev"])

        monkeypatch.setattr(solver, "_solve_step", unpredicted)
        plain = run_trajectory(spec)

        predicted = []

        def failing_when_predicted(*args):
            a = arguments(args)
            if a["start"] is a["u_prev"]:
                return solve(*args)
            predicted.append(a["n"])
            raise StepFailure(a["n"], 0.0, 1.0, iterations=3, last_iterate=a["start"], message="forced", halvings=2)

        monkeypatch.setattr(solver, "_solve_step", failing_when_predicted)
        traj = run_trajectory(spec)
        assert predicted
        assert traj.fields.tobytes() == plain.fields.tobytes()
        np.testing.assert_array_equal(traj.iterations[predicted], plain.iterations[predicted] + 3)
        np.testing.assert_array_equal(traj.halvings[predicted], plain.halvings[predicted] + 2)
        unpredicted_steps = np.setdiff1d(np.arange(len(traj.iterations)), predicted)
        np.testing.assert_array_equal(traj.iterations[unpredicted_steps], plain.iterations[unpredicted_steps])


class TestForcingTerm:
    """Each 2D correction's CG solve stops at ``_FORCING`` times the step residual's 2-norm."""

    @staticmethod
    def _krylov_counting(monkeypatch):
        counts = []
        pcg = solver._pcg

        def counting(*args):
            x, iterations = pcg(*args)
            counts.append(iterations)
            return x, iterations

        monkeypatch.setattr(solver, "_pcg", counting)
        return counts

    def test_2d_porous_run_needs_fewer_krylov_iterations_for_the_same_fields(self, monkeypatch):
        # the porous2d bench problem at seed 0
        spec = build_preset("porous", alpha=0.50071, dimension=2, resolution=65, steps=32, horizon=10.0)
        options = SolverOptions(mode="picard")
        counts = self._krylov_counting(monkeypatch)
        inexact = run_trajectory(spec, options)
        inexact_iterations = sum(counts)
        counts.clear()
        monkeypatch.setattr(solver, "_FORCING", 0.0)
        tight = run_trajectory(spec, options)
        assert inexact_iterations <= 0.6 * sum(counts)
        assert inexact.residuals.max() <= options.tol
        assert inexact.halvings.sum() == 0
        scale = np.max(np.abs(tight.fields))
        assert np.max(np.abs(inexact.fields - tight.fields)) <= 1e-9 * scale

    @pytest.mark.parametrize("mode", ["picard", "newton"])
    def test_1d_runs_do_not_depend_on_the_forcing_term(self, mode, monkeypatch):
        # the tridiagonal solve is exact, so the forcing term is never computed there
        spec = _sine_problem(law=porous_law(), steps=32)
        fields = []
        for forcing in (0.0, 0.5):
            monkeypatch.setattr(solver, "_FORCING", forcing)
            fields.append(run_trajectory(spec, SolverOptions(mode=mode)).fields.tobytes())
        assert fields[0] == fields[1]


class TestDeterminism:
    SCRIPT = (
        "import hashlib\n"
        "from subdiff.presets import build_preset\n"
        "from subdiff.solver import run_trajectory\n"
        "spec = build_preset('porous', dimension=2, resolution=33, steps=8, horizon=1.0)\n"
        "print(hashlib.sha256(run_trajectory(spec).fields.tobytes()).hexdigest())\n"
    )

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_2d_picard_rerun_at_fixed_blas_threads_is_bitwise(self, threads):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )
        hashes = [
            subprocess.run(
                [sys.executable, "-c", self.SCRIPT], env=env, capture_output=True, text=True, check=True
            ).stdout.strip()
            for _ in range(2)
        ]
        assert len(hashes[0]) == 64
        assert hashes[0] == hashes[1]


class TestTrajectoryBookkeeping:
    def test_times_and_timings(self):
        spec = _sine_problem(steps=12)
        traj = run_trajectory(spec)
        np.testing.assert_array_equal(traj.times, spec.time_grid.nodes)
        assert traj.fields.shape == (13, spec.grid.n_nodes)
        for key in ("assembly", "memory", "linear_solve", "total"):
            assert traj.timings[key] >= 0.0
        assert traj.iterations.shape == (13,)
        assert traj.residuals.shape == (13,)
        assert traj.iterations[0] == 0

    def test_initial_field_is_initial_data(self):
        spec = _sine_problem(steps=4)
        traj = run_trajectory(spec)
        interior = ~spec.grid.boundary_mask
        np.testing.assert_array_equal(traj.fields[0][interior], spec.u0[interior])
        # the stored initial field carries the Dirichlet data exactly
        np.testing.assert_array_equal(traj.fields[0][~interior], 0.0)


class TestStreamedRecord:
    def test_keep_names_a_step_outside_the_run(self):
        spec = _sine_problem(steps=8)
        for step in (9, -1):
            with pytest.raises(ValueError, match=f"keep names step {step}, outside the run's steps 0..8"):
                run_trajectory(spec, keep=[2, step])

    def test_it_keeps_the_listed_steps_and_the_last(self):
        from subdiff.diagnostics import hoelder_seminorm, weakform_residual

        spec = _sine_problem(steps=8)
        full, streamed = run_trajectory(spec), run_trajectory(spec, keep=(5, 2, 5))
        assert full.kept is None and streamed.kept.tolist() == [2, 5, 8]
        for n in (2, 5, 8):
            assert streamed.field(n).tobytes() == full.field(n).tobytes() == full.fields[n].tobytes()
        assert streamed.fields[-1].tobytes() == full.fields[-1].tobytes()
        with pytest.raises(ValueError, match=r"step 3 is not kept; this record keeps steps \[2, 5, 8\]"):
            streamed.field(3)
        for array in (streamed.fields, streamed.kept, streamed.norms.l2, streamed.norms.sup):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        for reader in (hoelder_seminorm, weakform_residual):
            with pytest.raises(ValueError, match=r"reads every field; this record keeps only steps \[2, 5, 8\]"):
                reader(streamed)

    def test_its_memory_does_not_grow_with_its_steps(self):
        # A compressed run that keeps only its final field, at 512 and at 4096 steps: its traced peak grows by
        # less than a tenth of the 3584 more fields that a full record would hold.
        import tracemalloc

        options = SolverOptions(history="compressed")

        def peak(steps):
            spec = build_preset("eigenmode", resolution=257, steps=steps, grading=1.0)
            tracemalloc.start()
            try:
                run_trajectory(spec, options, keep=())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(64)  # what a first run loads and caches, outside the comparison
        assert peak(4096) - peak(512) < 0.1 * 8 * 257 * 3584


def _records_with_arrays():
    """One pair of equal-valued instances, built twice, of every record that holds an array."""
    from subdiff.diagnostics import decay_report, norm_series
    from subdiff.kernels import check_discrete_convexity, compress_history
    from subdiff.mittag_leffler import ml_tail_bound
    from subdiff.reporting import RunReport

    def run():
        return run_trajectory(build_preset("eigenmode", resolution=9, steps=4))

    def report():
        failure = {"step": 1, "last_iterate": np.zeros(3)}
        return RunReport("x", False, {}, {}, {}, {}, "", failure=failure)

    tg = TimeGrid.uniform(1.0, 4)
    return {
        "TimeGrid": lambda: TimeGrid.uniform(1.0, 4),
        "ProblemSpec": lambda: build_preset("eigenmode"),
        "L1Weights": lambda: L1Weights(alpha=0.5, grid=tg),
        "CompressedHistory": lambda: compress_history(L1Weights(alpha=0.5, grid=tg), 1e-8),
        "Trajectory": run,
        "ConvexityReport": lambda: check_discrete_convexity(0.5, tg, np.arange(5.0)),
        "NormSeries": lambda: norm_series(run()),
        "TailReport": lambda: ml_tail_bound(0.5, np.linspace(0.0, 4.0, 9)),
        "DecayCertificate": lambda: decay_report(run()),
        "RunReport": report,
    }


@pytest.mark.parametrize("name", list(_records_with_arrays()))
def test_records_with_arrays_compare_by_identity(name):
    # value equality would compare the arrays, whose truth value is ambiguous, and an array field has no hash
    build = _records_with_arrays()[name]
    a, b = build(), build()
    assert type(a).__name__ == name
    assert a == a and a != b
    assert len({a, b, a}) == 2
