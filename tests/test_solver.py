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
from subdiff.kernels import TimeGrid, default_grading
from subdiff.presets import build_preset, eigenmode_exact
from subdiff.relaxation import relaxation_solution
from subdiff.solver import ProblemSpec, SolverOptions, StepFailure, run_trajectory
from subdiff.spatial import (
    DiffusionLaw,
    StencilOperator,
    assemble_quasilinear_operator,
    build_grid,
    constant_law,
    first_eigenvalue,
    newton_jacobian,
    porous_law,
)


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


def _stiff_problem():
    """a(y) = 1 + 50 sin^2(3y) (nu = 1, lam = 51), on which undamped Picard overshoots on step 1."""
    law = DiffusionLaw(
        a=lambda y: 1.0 + 50.0 * np.sin(3.0 * np.asarray(y)) ** 2,
        deriv=lambda y: 150.0 * np.sin(6.0 * np.asarray(y)),
        nu=1.0,
        lam=51.0,
        tag="stiff",
    )
    grid = build_grid(1, (0.0, math.pi), 33)
    return ProblemSpec(
        alpha=0.5, time_grid=TimeGrid.uniform(10.0, 4), grid=grid, law=law, u0=np.sin(grid.points()[:, 0])
    )


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
        g2 = build_grid(2, [(0.0, math.pi), (0.0, 2.0 * math.pi)], 9)
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


    def test_stiff_law_records_damping_halvings(self):
        spec = _stiff_problem()
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
        envelope = relaxation_solution(alpha, lam_h, 1.0, traj.times)
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
        grid = build_grid(1, (0.0, 1.0), 9)
        tg = TimeGrid.uniform(1.0, 4)
        spec = ProblemSpec(
            alpha=0.5,
            time_grid=tg,
            grid=grid,
            law=constant_law(),
            u0=np.ones(9),
            boundary=0.0,
        )
        with pytest.raises(ValueError, match="boundary"):
            spec.validate()

    def test_bad_source_shape(self):
        grid = build_grid(1, (0.0, 1.0), 9)
        tg = TimeGrid.uniform(1.0, 4)
        spec = ProblemSpec(
            alpha=0.5,
            time_grid=tg,
            grid=grid,
            law=constant_law(),
            u0=np.zeros(9),
            source=np.zeros((3, 9)),  # needs M+1 = 5 rows
        )
        with pytest.raises(ValueError):
            run_trajectory(spec)

    def test_source_callable_and_array_agree(self):
        grid = build_grid(1, (0.0, 1.0), 17)
        tg = TimeGrid.uniform(0.5, 8)
        x = grid.points()[:, 0]
        u0 = np.sin(math.pi * x)

        def f(t, pts):
            return (1.0 + t) * np.sin(math.pi * pts[:, 0])

        table = np.array([f(t, grid.points()) for t in tg.nodes])
        base = dict(alpha=0.5, time_grid=tg, grid=grid, law=porous_law(), u0=u0)
        a = run_trajectory(ProblemSpec(source=f, **base))
        b = run_trajectory(ProblemSpec(source=table, **base))
        np.testing.assert_allclose(a.fields, b.fields, rtol=0, atol=1e-13)


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

    def test_2d_newton_converges_where_the_true_linear_residual_stalls(self):
        # on 129^2 nodes the true GMRES residual b - M x sits at roundoff, just above atol = 0.1 tol;
        # a solve that waited for it ran into the iteration cap at step 1
        spec = build_preset("porous", alpha=0.8, dimension=2, resolution=129, steps=16, horizon=10.0)
        newton = run_trajectory(spec, SolverOptions(mode="newton"))
        assert newton.residuals.max() <= newton.options.tol
        picard = run_trajectory(spec, SolverOptions(mode="picard"))
        assert np.max(np.abs(newton.fields - picard.fields)) <= 1e-10


class TestInteriorSolve:
    """``solver.spsolve`` solves the interior block: exactly in 1D, to its residual bound in 2D."""

    @pytest.mark.parametrize("build, symmetric", [(assemble_quasilinear_operator, True), (newton_jacobian, False)])
    @pytest.mark.parametrize(
        "dim, extents, res", [(1, (0.0, 1.0), 65), (2, (0.0, 1.0), 17), (2, [(0.0, 1.0), (0.0, 2.0)], (17, 33))]
    )
    def test_matches_dense_interior_solve(self, build, symmetric, dim, extents, res):
        grid = build_grid(dim, extents, res)
        u = 1.5 * np.prod(np.sin(2.0 * np.pi * grid.points() / grid.lengths), axis=1)
        M = build(grid, porous_law(), u, shift=3.0)
        b = np.random.default_rng(4).normal(size=grid.n_nodes)  # boundary entries are ignored
        ii = grid.interior_indices()
        want = np.linalg.solve(M.toarray()[np.ix_(ii, ii)], b[ii])
        atol = 1e-15 * np.linalg.norm(b[ii])
        before = M.toarray()
        x = solver.spsolve(M, b, nu=1.0, atol=atol, symmetric=symmetric)
        assert np.array_equal(M.toarray(), before)  # Picard's damping solves again with the same matrix
        assert np.all(x[grid.boundary_mask] == 0.0)
        assert np.linalg.norm(x[ii] - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("extents, res", [((0.0, 1.0), 33), ([(0.0, 1.0), (0.0, 2.0)], (17, 33))])
    def test_constant_law_converges_in_one_pcg_iteration(self, extents, res):
        # the preconditioner is then the step matrix's own interior block
        grid = build_grid(2, extents, res)
        M = assemble_quasilinear_operator(grid, constant_law(2.0), np.zeros(grid.n_nodes), shift=3.0)
        b = np.where(grid.boundary_mask, 0.0, np.random.default_rng(5).normal(size=grid.n_nodes))
        precond = solver._sine_preconditioner(grid, 3.0, 2.0)
        _, iterations = solver._pcg(M, b, precond, 1e-10 * np.linalg.norm(b), 10)
        assert iterations == 1

    def test_gmres_restarts_until_the_true_residual_meets_atol(self):
        # lam / nu = 51 takes GMRES through many restart cycles; x must keep every cycle's correction
        grid = build_grid(2, (0.0, 1.0), 17)
        u = 1.5 * np.prod(np.sin(2.0 * np.pi * grid.points() / grid.lengths), axis=1)
        M = newton_jacobian(grid, _stiff_problem().law, u, shift=1.0)
        b = np.where(grid.boundary_mask, 0.0, np.random.default_rng(3).normal(size=grid.n_nodes))
        atol = 1e-12 * np.linalg.norm(b)
        x, iterations = solver._gmres(M, b, solver._sine_preconditioner(grid, 1.0, 1.0), atol, 500)
        assert iterations > 5 * solver._GMRES_RESTART
        assert np.linalg.norm(b - M @ x) <= atol
        ii = grid.interior_indices()
        want = np.linalg.solve(M.toarray()[np.ix_(ii, ii)], b[ii])
        assert np.linalg.norm(x[ii] - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("shift, nu", [(3.0, 1.0), (250.0, 0.5)])
    @pytest.mark.parametrize(
        "extents, res", [((0.0, 1.0), 17), ([(0.0, 1.0), (0.0, 2.0)], (17, 33)), ((0.0, 1.0), 128)]
    )
    def test_sine_preconditioner_matches_fft_sine_transform(self, extents, res, shift, nu):
        grid = build_grid(2, extents, res)
        r = np.random.default_rng(6).normal(size=grid.n_nodes)
        inner = (slice(1, -1),) * 2
        want = np.zeros(grid.shape)
        rhat = dstn(r.reshape(grid.shape)[inner], type=1) / (shift + nu * grid.dirichlet_eigenvalues)
        want[inner] = idstn(rhat, type=1)
        got = solver._sine_preconditioner(grid, shift, nu)(r)
        assert got.shape == (grid.n_nodes,)
        assert np.all(got[grid.boundary_mask] == 0.0)
        assert np.max(np.abs(got - want.ravel())) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("mode", ["picard", "newton"])
    def test_krylov_iteration_cap_fails_the_step(self, mode, monkeypatch):
        monkeypatch.setattr(solver, "_KRYLOV_MAXITER", 1)
        spec = build_preset("porous", dimension=2, resolution=17, steps=4, horizon=1.0)
        with pytest.raises(StepFailure, match="linear solve") as exc:
            run_trajectory(spec, SolverOptions(mode=mode))
        assert exc.value.step == 1
        assert exc.value.iterations == 1
        assert exc.value.last_iterate.shape == (spec.grid.n_nodes,)

    def test_singular_tridiagonal_block_raises(self):
        # zero coefficients and zero shift make the 7 x 7 interior block zero
        grid = build_grid(1, (0.0, 1.0), 9)
        M = StencilOperator(grid, [np.zeros(8)])
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            solver.spsolve(M, np.ones(9), nu=1.0, atol=1e-12, symmetric=True)

    @pytest.mark.parametrize("mode, builder", [("picard", "assemble_quasilinear_operator"), ("newton", "newton_jacobian")])
    def test_singular_tridiagonal_block_fails_the_step(self, mode, builder, monkeypatch):
        # the stub takes every builder's parameters: Newton passes its Jacobian the frozen step matrix
        def singular(grid, law, u, shift=0.0, frozen=None):
            return StencilOperator(grid, [np.zeros(grid.n_nodes - 1)])

        monkeypatch.setattr(solver, builder, singular)
        spec = _sine_problem(law=porous_law(), resolution=9, steps=4)
        with pytest.raises(StepFailure, match="linear solve failed: .*singular") as exc:
            run_trajectory(spec, SolverOptions(mode=mode))
        assert exc.value.step == 1
        assert exc.value.iterations == 1

    @pytest.mark.parametrize("mode", ["picard", "newton"])
    @pytest.mark.parametrize("dim", [1, 2])
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
            ("2d", "newton"),
            ("stiff-1d", "picard"),  # steps with damping halvings
            ("const-1d", "picard"),
            ("const-1d", "newton"),
            ("const-graded-1d", "picard"),
            ("const-graded-1d", "newton"),
            ("const-2d", "picard"),
            ("const-2d", "newton"),
        ],
    )
    def test_matrices_built_per_step(self, case, mode, monkeypatch):
        spec = {
            "1d": lambda: _sine_problem(law=porous_law(), steps=16),
            "2d": lambda: build_preset("porous", dimension=2, resolution=17, steps=4, horizon=1.0),
            "stiff-1d": _stiff_problem,
            "const-1d": lambda: _sine_problem(steps=16, grading=1.0),
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


class TestFaceEvaluationsPerIterate:
    """Each Newton iterate evaluates ``a`` on its faces once, and ``a'`` only before a correction."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_law_calls_per_step(self, dim, monkeypatch):
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
        traj = run_trajectory(spec, SolverOptions(mode="newton"))
        per_step = np.array(per_step)
        assert traj.iterations[1:].max() > 1
        # a face evaluation calls the law once per axis: the start, every corrected iterate, and nothing more
        np.testing.assert_array_equal(per_step[:, 0], dim * (traj.iterations[1:] + 1))
        np.testing.assert_array_equal(per_step[:, 1], dim * traj.iterations[1:])


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

    @pytest.mark.parametrize("mode", ["picard", "newton"])
    @pytest.mark.parametrize("grading", [1.0, 2.0])
    @pytest.mark.parametrize("dim", [1, 2])
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
        run_trajectory(build_preset("eigenmode", resolution=17, steps=8, grading=1.0))
        assert len(built) == 1
        with pytest.raises(ValueError, match="read-only"):
            built[0].coeffs[0][1] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            built[0].tridiagonal()[1][0] = 0.0  # the diagonals dgtsv reads at every step


class TestExtrapolatedStart:
    """Once a step needs more than one correction, each step starts from the extrapolated field."""

    def test_bench_newton_problem_takes_under_1400_corrections(self):
        # the porous1d-newton bench problem at seed 0; starting every step from u_{n-1} takes 2048
        spec = build_preset("porous", alpha=0.50071, dimension=1, resolution=65, horizon=100.0, steps=1024)
        traj = run_trajectory(spec, SolverOptions(mode="newton"))
        assert traj.iterations.sum() <= 1400
        assert traj.halvings.sum() == 0

    @pytest.mark.parametrize("mode", ["picard", "newton"])
    def test_boundary_entries_stay_bitwise_on_a_graded_run(self, mode):
        grid = build_grid(2, (0.0, 1.0), 13)
        x, y = grid.points()[grid.boundary_mask].T
        g = 0.3 + 0.1 * x - 0.7 * y * y  # non-dyadic data, different on every boundary node
        u0 = np.full(grid.n_nodes, 0.3) + np.prod(np.sin(np.pi * grid.points()), axis=1)
        u0[grid.boundary_mask] = g
        spec = ProblemSpec(
            alpha=0.5, time_grid=TimeGrid.graded(1.0, 12, 2.0), grid=grid, law=porous_law(), u0=u0, boundary=g
        )
        traj = run_trajectory(spec, SolverOptions(mode=mode))
        assert traj.iterations[1:-1].max() > 1  # so the later steps started from an extrapolation
        assert np.all(traj.fields[:, grid.boundary_mask] == spec.boundary_values())

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
    """Each 2D correction's Krylov solve stops at ``_FORCING`` times the step residual's 2-norm."""

    @staticmethod
    def _krylov_counting(monkeypatch):
        counts = []

        def counting(solve):
            def wrapped(*args):
                x, iterations = solve(*args)
                counts.append(iterations)
                return x, iterations

            return wrapped

        monkeypatch.setattr(solver, "_pcg", counting(solver._pcg))
        monkeypatch.setattr(solver, "_gmres", counting(solver._gmres))
        return counts

    @pytest.mark.parametrize("mode", ["picard", "newton"])
    def test_2d_porous_run_needs_fewer_krylov_iterations_for_the_same_fields(self, mode, monkeypatch):
        # the porous2d bench problem at seed 0
        spec = build_preset("porous", alpha=0.50071, dimension=2, resolution=65, steps=32, horizon=10.0)
        options = SolverOptions(mode=mode)
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
