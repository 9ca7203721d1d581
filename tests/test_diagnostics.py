"""Certificates: norms, boundedness, decay, convexity, Hoelder, weak residual."""

import dataclasses
import math
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

import subdiff.diagnostics as diagnostics
import subdiff.spatial as spatial
from subdiff.diagnostics import (
    _knot_weights,
    boundedness_report,
    convexity_report,
    decay_report,
    hoelder_seminorm,
    l2_norm,
    norm_series,
    weakform_residual,
)
from subdiff.kernels import L1Weights, TimeGrid, check_discrete_convexity, default_grading
from subdiff.presets import build_preset, preset_grids
from subdiff.solver import ProblemSpec, SolverOptions, run_trajectory
from subdiff.spatial import build_grid, constant_law, porous_law


def _run(preset="porous", **overrides):
    return run_trajectory(build_preset(preset, **overrides))


class TestNorms:
    def test_l2_of_sine(self):
        # ||sin||_{L2(0,pi)} = sqrt(pi/2); trapezoid converges fast
        g = build_grid(1, (0.0, math.pi), 129)
        val = l2_norm(g, np.sin(g.points()[:, 0]))
        np.testing.assert_allclose(val, 1.2533141373155003, rtol=1e-4)
        np.testing.assert_allclose(val, math.sqrt(math.pi / 2.0), rtol=1e-4)

    def test_l2_of_constant_includes_boundary_weighting(self):
        g = build_grid(1, (0.0, 2.0), 21)
        np.testing.assert_allclose(l2_norm(g, np.full(21, 3.0)), 3.0 * math.sqrt(2.0), rtol=1e-13)

    def test_norm_series_layout(self):
        traj = _run("zero", resolution=17, steps=8)
        ns = norm_series(traj)
        assert ns.times.shape == (9,)
        assert ns.l2.shape == (9,)
        assert ns.sup.shape == (9,)
        np.testing.assert_allclose(ns.energy, ns.l2**2, rtol=1e-15)
        # zero problem stays zero
        np.testing.assert_allclose(ns.sup, 0.0, atol=1e-14)

    def test_norm_series_matches_pointwise(self):
        traj = _run("eigenmode", resolution=33, steps=8)
        ns = norm_series(traj)
        g = traj.spec.grid
        for n in (0, 4, 8):
            np.testing.assert_allclose(ns.l2[n], l2_norm(g, traj.fields[n]), rtol=1e-13)
            np.testing.assert_allclose(ns.sup[n], np.max(np.abs(traj.fields[n])), rtol=0)

    def test_a_finished_run_is_read_only(self):
        traj = _run("porous", resolution=9, steps=6)
        for array in (traj.fields, traj.iterations, traj.halvings, traj.residuals):
            with pytest.raises(ValueError, match="read-only"):
                array[-1] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            traj.fields = traj.fields.copy()
        ns = norm_series(traj)
        assert ns is traj.norms  # computed once
        for array in (ns.l2, ns.sup):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        # the time grid's nodes are read-only, so the records share them instead of copying
        nodes = traj.spec.time_grid.nodes
        assert ns.times is nodes and decay_report(traj).times is nodes
        rep = check_discrete_convexity(0.5, traj.spec.time_grid, ns.l2)
        assert np.shares_memory(rep.times, nodes) and not rep.times.flags.writeable

    def test_a_replaced_trajectory_has_norms_of_its_own(self):
        traj = _run("eigenmode", resolution=17, steps=8)
        before = traj.norms
        doubled = dataclasses.replace(traj, fields=2.0 * traj.fields)
        assert traj.norms is before and doubled.norms is not before
        assert doubled.norms.sup.tobytes() == (2.0 * before.sup).tobytes()  # doubling is exact
        assert boundedness_report(doubled).max_sup == 2.0 * boundedness_report(traj).max_sup
        assert decay_report(doubled).w0 == 4.0 * decay_report(traj).w0
        assert weakform_residual(doubled).scale == 2.0 * weakform_residual(traj).scale

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_readers_keep_the_full_array_formulas_bitwise(self, dimension):
        # what each reader computed from the fields on its own before they shared one record
        traj = _run("porous", dimension=dimension, resolution=9, steps=6, horizon=1.0)
        U, q = traj.fields, traj.spec.grid.quadrature_weights()
        sups = np.max(np.abs(U), axis=1)
        assert traj.norms.l2.tobytes() == np.sqrt(np.einsum("ni,i,ni->n", U, q, U)).tobytes()
        assert traj.norms.sup.tobytes() == sups.tobytes()
        rep = boundedness_report(traj)
        assert (rep.max_sup, rep.arg_step) == (float(sups[np.argmax(sups)]), int(np.argmax(sups)))
        assert weakform_residual(traj).scale == max(float(np.max(np.abs(U))), 1e-300)

    @pytest.mark.parametrize("dimension, resolution, rows", [(1, 257, 601), (2, 33, 130)], ids=["1d", "2d"])
    def test_windowed_norms_keep_the_full_array_formulas_bitwise(self, dimension, resolution, rows):
        # row counts that are no multiple of any window height, and values over many magnitudes
        from subdiff.solver import _reduce_norms

        traj = _run("porous", dimension=dimension, resolution=resolution, steps=2, horizon=1.0)
        rng = np.random.default_rng(3)
        U = rng.standard_normal((rows, traj.spec.grid.n_nodes)) * 10.0 ** rng.integers(-100, 100, (rows, 1))
        q = traj.spec.grid.quadrature_weights()
        l2, sup = np.sqrt(np.einsum("ni,i,ni->n", U, q, U)).tobytes(), np.max(np.abs(U), axis=1).tobytes()
        for height in (1, 7, 64, 256):
            got = np.empty(rows), np.empty(rows)
            for k in range(0, rows, height):
                _reduce_norms(U[k : k + height], q, got[0][k : k + height], got[1][k : k + height])
            assert (got[0].tobytes(), got[1].tobytes()) == (l2, sup), height
        norms = dataclasses.replace(traj, fields=U).norms  # the record's own windows, of the default height
        assert (norms.l2.tobytes(), norms.sup.tobytes()) == (l2, sup)


class TestBoundedness:
    def test_eigenmode_respects_initial_bound(self):
        traj = _run("eigenmode", resolution=65, steps=64)
        rep = boundedness_report(traj)
        assert rep.passed
        assert rep.bound == 1.0
        assert rep.max_sup <= 1.0 + rep.tol
        assert 0 <= rep.arg_step <= 64

    def test_porous_respects_bound(self):
        traj = _run("porous", resolution=33, steps=48, horizon=5.0)
        rep = boundedness_report(traj)
        assert rep.passed

    def test_refuses_forced_problems(self):
        spec = build_preset("eigenmode", resolution=17, steps=8)
        forced = ProblemSpec(
            alpha=spec.alpha,
            time_grid=spec.time_grid,
            grid=spec.grid,
            law=spec.law,
            u0=spec.u0,
            source=lambda t, pts: np.ones(pts.shape[0]),
            label="forced",
        )
        traj = run_trajectory(forced)
        with pytest.raises(ValueError, match="forcing"):
            boundedness_report(traj)


class TestDecay:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_porous_under_envelope(self, alpha):
        traj = _run("porous", alpha=alpha, resolution=33, steps=128, horizon=20.0)
        cert = decay_report(traj)
        assert cert.passed, f"alpha={alpha}: min margin {cert.margins.min():.3e}"
        assert cert.mu > 0.0
        # envelope rate uses the continuous Poincare constant and nu = 1
        np.testing.assert_allclose(cert.mu, 2.0, rtol=1e-12)

    def test_envelope_starts_at_initial_energy(self):
        traj = _run("porous", resolution=33, steps=32, horizon=2.0)
        cert = decay_report(traj)
        ns = norm_series(traj)
        np.testing.assert_allclose(cert.w0, ns.energy[0], rtol=1e-12)
        np.testing.assert_allclose(cert.envelope[0], cert.w0, rtol=1e-12)

    def test_refuses_forced_problems(self):
        spec = build_preset("eigenmode", resolution=17, steps=8)
        forced = ProblemSpec(
            alpha=spec.alpha,
            time_grid=spec.time_grid,
            grid=spec.grid,
            law=spec.law,
            u0=spec.u0,
            source=lambda t, pts: np.ones(pts.shape[0]),
            label="forced",
        )
        traj = run_trajectory(forced)
        with pytest.raises(ValueError, match="zero forcing"):
            decay_report(traj)

    def test_slack_validation(self):
        traj = _run("zero", resolution=17, steps=8)
        with pytest.raises(ValueError):
            decay_report(traj, slack=0.5)


class TestConvexity:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_porous_runs_pass(self, alpha):
        traj = _run("porous", alpha=alpha, resolution=33, steps=48, horizon=3.0)
        rep = convexity_report(traj)
        assert rep.passed
        assert rep.min_margin >= 0.0
        assert 1 <= rep.worst_step <= 48

    def test_verdict_reads_the_weights_not_the_fields(self):
        # by the Abel identity the margins are nonnegative for every history,
        # so a corrupted trajectory gets the same report
        traj = _run("eigenmode", resolution=33, steps=32)
        fields = traj.fields.copy()
        fields[20:] *= 1.01
        assert convexity_report(dataclasses.replace(traj, fields=fields)) == convexity_report(traj)

    @pytest.mark.parametrize(
        "grid",
        [TimeGrid.uniform(3.0, M) for M in (1, 2, 3, 48, 2048)]
        + [TimeGrid.graded(3.0, M, default_grading(0.5)) for M in (48, 1024)],
        ids=lambda g: f"{'uniform' if g.is_uniform() else 'graded'}-{g.steps}",
    )
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_matches_the_masked_slab_scan_bitwise(self, grid, alpha):
        # the reference reads every row of every slab and masks the entries on and above the diagonal
        scores = np.empty(grid.steps)
        positive = True
        for n0, n1, w in L1Weights(alpha=alpha, grid=grid).blocks(grid.steps):
            n = np.arange(n0, n1)
            inc = np.where(np.arange(n1 - 2) < n[:, None] - 1, np.diff(w, axis=1), np.inf)
            positive &= bool(np.all(w[:, 0] > 0.0))
            scores[n0 - 1 : n1 - 1] = np.minimum(w[:, 0], inc.min(axis=1, initial=np.inf)) / w[n - n0, n - 1]
        worst = int(np.argmin(scores))
        rep = convexity_report(_weights_only(alpha, grid))
        assert rep.allowance == L1Weights(alpha=alpha, grid=grid).margin_allowance()
        assert rep.passed is (positive and bool(scores[worst] >= -rep.allowance))
        assert rep.worst_step == worst + 1
        assert np.float64(rep.min_margin).tobytes() == scores[worst].tobytes()

    @pytest.mark.parametrize("grading", [1.0, None], ids=["uniform", "graded"])
    @pytest.mark.parametrize("factor, passed", [(0.5, False), (1.0, True)])
    def test_one_decreasing_row_fails_and_ties_pass(self, factor, passed, grading):
        traj = _run("porous", resolution=17, steps=48, horizon=3.0, grading=grading)
        bad = 30
        # the diagonal w_{n,n} enters row n only; set it to factor * w_{n,n-1}
        w = L1Weights(alpha=traj.spec.alpha, grid=traj.spec.time_grid)
        diag = w._diag.copy()
        diag[bad - 1] = factor * w.block(bad, bad + 1)[0][bad - 2]
        object.__setattr__(w, "_diag", diag)
        rep = convexity_report(dataclasses.replace(traj, weights=w))
        assert rep.passed is passed
        assert rep.worst_step == bad
        assert rep.min_margin == (factor - 1.0) / factor

    @pytest.mark.parametrize("steps, j", [(64, 2), (64, 17), (64, 63), (48, 2), (48, 5)])
    def test_a_raised_lagged_weight_fails_at_its_first_row(self, steps, j):
        # b_j > b_{j-1} makes w_{n,n-j+1} < w_{n,n-j}, a decrease in every row n >= j + 1; every row of a
        # uniform grid has the same diagonal, also where its step is no binary fraction (1/48), so the first row is worst
        traj = _run("eigenmode", resolution=17, steps=steps, horizon=1.0, grading=1.0)
        w = L1Weights(alpha=traj.spec.alpha, grid=traj.spec.time_grid)
        b = w._uniform_b.copy()
        b[j] = 1.5 * b[j - 1]
        object.__setattr__(w, "_uniform_b", b)
        margins, positive = w.row_margins()
        assert positive
        np.testing.assert_array_equal(margins < 0.0, np.arange(1, steps + 1) >= j + 1)
        rep = convexity_report(dataclasses.replace(traj, weights=w))
        assert not rep.passed
        assert rep.worst_step == j + 1
        assert rep.min_margin < 0.0

    def test_uniform_grids_read_no_slab(self, monkeypatch):
        traj = _run("porous", resolution=17, steps=256, horizon=3.0, grading=1.0)
        want = convexity_report(traj)

        def refuse(self, n0, n1):
            raise AssertionError("the uniform scan built a slab")

        monkeypatch.setattr(L1Weights, "block", refuse)
        assert convexity_report(traj) == want
        assert want.passed

    @pytest.mark.parametrize("history", ["direct", "compressed"])
    def test_a_graded_run_evaluates_each_row_once(self, history, monkeypatch):
        # a direct run's walk kept every row's margins; a compressed run never read the exact weights
        spec = build_preset("porous", resolution=17, steps=300, horizon=3.0)
        traj = run_trajectory(spec, SolverOptions(history=history))
        fresh = convexity_report(_weights_only(spec.alpha, spec.time_grid))
        slabs = []
        block = L1Weights.block

        def counting(self, n0, n1):
            slabs.append((n0, n1))
            return block(self, n0, n1)

        monkeypatch.setattr(L1Weights, "block", counting)
        assert convexity_report(traj) == fresh
        if history == "direct":
            assert slabs == []
        else:
            assert [n0 for n0, _ in slabs] == [1] + [n1 for _, n1 in slabs[:-1]] and slabs[-1][1] == 301

    def test_rounding_within_the_error_bound_passes(self):
        # the grid of `problem = porous`, alpha = 0.1, 8192 steps: its default grading, r = 4, puts adjacent weights
        # of late rows closer than their rounding.  The rows increase in exact arithmetic; their computed margins
        # dip below zero by less than the allowance (test_kernels.py holds the weights to their error bound)
        rep = convexity_report(_weights_only(0.1, TimeGrid.graded(50.0, 8192, default_grading(0.1))))
        assert rep.worst_step == 7885
        assert rep.passed
        assert -rep.allowance <= rep.min_margin < 0.0
        assert rep.allowance < 1e-14

    def test_a_weight_lowered_by_1e_12_fails(self, monkeypatch):
        # w_{n,2} - w_{n,1} is about 1e-14 of w_{n,n} in the late rows of this grid, so the row then decreases
        grid = TimeGrid.graded(50.0, 1024, 4.0)
        bad = 1000
        means = L1Weights._step_means
        lag = grid.nodes[bad] - grid.nodes[2]  # of w_{bad,2}, in column 1 of row bad; no other row has it

        def lowered(self, lags, tau, out=None):
            out = means(self, lags, tau, out)
            out[lags[:, 1] == lag, 1] *= 1.0 - 1e-12
            return out

        assert convexity_report(_weights_only(0.1, grid)).passed
        monkeypatch.setattr(L1Weights, "_step_means", lowered)
        rep = convexity_report(_weights_only(0.1, grid))
        assert not rep.passed
        assert rep.worst_step == bad
        assert rep.min_margin < -10.0 * rep.allowance

    def test_a_cancelling_closed_form_fails(self, monkeypatch):
        # ((lag + tau)^p - lag^p) / (Gamma(2 - a) tau) loses all digits where tau << lag, as the first steps of a graded grid
        def cancelling(self, lag, tau, out=None):
            p = 1.0 - self.alpha
            means = np.where(lag > 0.0, ((lag + tau) ** p - lag**p) / (math.gamma(2.0 - self.alpha) * tau), 0.0)
            if out is None:
                return means
            out[...] = means
            return out

        grid = TimeGrid.graded(100.0, 1024, 3.0)
        assert convexity_report(_weights_only(0.5, grid)).passed
        monkeypatch.setattr(L1Weights, "_step_means", cancelling)
        rep = convexity_report(_weights_only(0.5, grid))
        assert not rep.passed
        assert rep.min_margin < -1e6 * rep.allowance


def _weights_only(alpha, grid):
    """A stand-in trajectory that holds only what the convexity certificate reads: fresh weights on ``grid``."""
    return SimpleNamespace(weights=L1Weights(alpha=alpha, grid=grid))


def _static(grid, field, steps=16):
    """A stand-in trajectory that holds ``field`` at every node of a uniform time grid on [0, 1]."""
    times = np.linspace(0.0, 1.0, steps + 1)
    fields = np.tile(field, (times.size, 1))
    return SimpleNamespace(spec=SimpleNamespace(grid=grid), times=times, fields=fields, kept=None)


class TestHoelder:
    def test_linear_profile_space_seminorm(self):
        # |x - y|^1 / |x - y|^0.5 maximized at the domain diameter, equal times:
        # seminorm of u(t, x) = x with beta_space = 0.5 on (0, 1) is exactly 1
        g = build_grid(1, (0.0, 1.0), 65)
        est = hoelder_seminorm(_static(g, g.points()[:, 0]))
        assert (est.beta_time, est.beta_space) == (0.25, 0.5)
        np.testing.assert_allclose(est.value, 1.0, rtol=1e-12)

    def test_constant_field_has_zero_seminorm(self):
        g = build_grid(1, (0.0, 1.0), 33)
        assert hoelder_seminorm(_static(g, np.full(33, 7.0))).value == 0.0

    def test_trajectory_estimate_is_finite_and_stable(self):
        traj = _run("porous", resolution=33, steps=48, horizon=2.0)
        est = hoelder_seminorm(traj)
        assert est.region == "full"
        assert est.n_samples == 33 * 36  # every node, 36 of the 49 times
        assert np.isfinite(est.value)

    def test_interior_region_excludes_startup(self):
        traj = _run("porous", resolution=33, steps=48, horizon=2.0)
        full = hoelder_seminorm(traj, region="full")
        inner = hoelder_seminorm(traj, region="interior")
        assert inner.region == "interior"
        assert inner.value <= full.value + 1e-12

    def test_validation(self):
        traj = _run("zero", resolution=17, steps=8)
        with pytest.raises(ValueError, match="unknown region 'edge'"):
            hoelder_seminorm(traj, region="edge")


class TestWeakformResidual:
    def test_solution_passes_at_moderate_resolution(self):
        traj = _run("porous", resolution=65, steps=128, horizon=1.0)
        rep = weakform_residual(traj)
        assert rep.passed
        assert rep.max_scaled_residual < 1e-2
        # knot snapping on graded grids may merge a hat or two
        assert 2 <= rep.n_time_tests <= 12
        assert rep.n_space_tests == 12

    def test_residual_shrinks_under_refinement(self):
        coarse = _run("porous", resolution=33, steps=64, horizon=1.0)
        fine = _run("porous", resolution=65, steps=256, horizon=1.0)
        r_coarse = weakform_residual(coarse).max_scaled_residual
        r_fine = weakform_residual(fine).max_scaled_residual
        assert r_fine < 0.6 * r_coarse

    def test_detects_corrupted_fields(self):
        traj = _run("porous", resolution=65, steps=128, horizon=1.0)
        honest = weakform_residual(traj).max_scaled_residual
        bad = traj.fields.copy()
        bad[traj.times >= 0.5] *= 1.1
        corrupted = weakform_residual(dataclasses.replace(traj, fields=bad)).max_scaled_residual
        assert corrupted > 10.0 * honest

    def test_eigenmode_also_passes(self):
        traj = _run("eigenmode", resolution=65, steps=128)
        assert weakform_residual(traj).passed

    def test_reports_where_the_worst_residual_sits(self):
        traj = _run("porous", resolution=33, steps=64, horizon=1.0)
        rep = weakform_residual(traj)
        # the worst hat peaks at an interior grid time, the worst test node is interior
        assert 0.0 < rep.worst_time < traj.times[-1]
        assert rep.worst_time in traj.times
        assert 0 <= rep.worst_node < traj.spec.grid.n_nodes
        assert not traj.spec.grid.boundary_mask[rep.worst_node]
        # corrupting only the later half in time and the right third in space moves the worst test there
        bad = traj.fields.copy()
        bad[traj.times >= 0.5, 22:] *= 1.1
        worst = weakform_residual(dataclasses.replace(traj, fields=bad))
        assert worst.worst_time >= 0.5
        assert worst.worst_node >= 21
        assert worst.near_worst_nodes == (worst.worst_node,)

    def test_reports_every_node_tied_with_the_worst(self):
        # the run is mirror-symmetric in space to roundoff and so is the test-node sample (31 interior
        # nodes, 12 tested): corrupting nodes 9 and 23 alike puts two maxima within roundoff of each other
        traj = _run("porous", resolution=33, steps=64, horizon=1.0)
        bad = traj.fields.copy()
        bad[np.ix_(traj.times >= 0.5, [9, 23])] *= 1.1
        rep = weakform_residual(dataclasses.replace(traj, fields=bad))
        assert rep.near_worst_nodes == (9, 23)
        assert rep.worst_node in rep.near_worst_nodes

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_assembles_one_stacked_operator_per_block(self, dimension, monkeypatch):
        traj = _run("porous", dimension=dimension, resolution=17, steps=16, horizon=1.0)
        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append((fn.__name__, np.shape(args[2]) if len(args) > 2 else None))
                return fn(*args, **kwargs)

            return wrapper

        # the Picard operator frozen at stacks of time rows, and no Jacobian
        for owner, name in [(diagnostics, "assemble_quasilinear_operator"), (spatial, "assemble_quasilinear_operator"),
                            (spatial, "newton_jacobian")]:
            monkeypatch.setattr(owner, name, counting(getattr(owner, name)))
        weakform_residual(traj)
        rows = max(1, diagnostics._BLOCK_VALUES // traj.spec.grid.n_nodes)
        blocks = [traj.fields[n : n + rows].shape for n in range(0, traj.fields.shape[0], rows)]
        assert calls == [("assemble_quasilinear_operator", shape) for shape in blocks]


def _naive_knot_row(alpha, nodes, K):
    """Knot row from the closed form alone: differences of g_{3-a} and g_{4-a} values on every step."""
    p = 2.0 - alpha
    T = nodes[K]
    a, b, tau = T - nodes[:K], T - nodes[1 : K + 1], np.diff(nodes[: K + 1])
    d1 = (a**p - b**p) / math.gamma(p + 1.0)
    d2 = p * (a ** (p + 1.0) - b ** (p + 1.0)) / math.gamma(p + 2.0)
    row = np.zeros(nodes.size)
    row[:K] += (d2 - b * d1) / tau
    row[1 : K + 1] += (a * d1 - d2) / tau
    return row


def _mp_knot_weight(alpha, nodes, K, k):
    """(g_{2-a} * hat_k)(t_K) by 40-digit quadrature, hat_k the nodal hat of t_k on the grid."""
    with mp.workdps(40):
        p = mp.mpf(2) - mp.mpf(alpha)
        T = mp.mpf(nodes[K])

        def piece(lo, hi, rising):
            tau, b = mp.mpf(nodes[hi]) - mp.mpf(nodes[lo]), T - mp.mpf(nodes[hi])
            shape = (lambda x: 1 - x) if rising else (lambda x: x)  # x = (T - s - b) / tau
            return tau * mp.quad(lambda x: (b + tau * x) ** (p - 1) * shape(x), [0, 1]) / mp.gamma(p)

        total = mp.mpf(0)
        if k > 0:
            total += piece(k - 1, k, rising=True)
        if k < K:
            total += piece(k, k + 1, rising=False)
        return total


class TestKnotWeights:
    """Exact integrals of g_{2-a} against the piecewise-linear interpolant, at the knots of the time hats."""

    W3 = (0.3, 100.0, 8192)  # alpha, horizon, steps: the long graded grid whose first step is 2.2e-14
    SAMPLES = (0, 1, 2, 10, 100, 1000, 8192)

    def test_match_mpmath_on_the_long_graded_grid(self):
        alpha, horizon, steps = self.W3
        nodes = preset_grids("porous", alpha=alpha, horizon=horizon, steps=steps)[1].nodes
        assert nodes[1] < 1e-13
        C = _knot_weights(alpha, nodes, np.array(self.SAMPLES))
        worst = worst_naive = 0.0
        for row, K in zip(C, self.SAMPLES):
            assert np.all(row[K + 1 :] == 0.0)
            if K == 0:
                assert np.all(row == 0.0)
                continue
            naive = _naive_knot_row(alpha, nodes, K)
            for k in (k for k in self.SAMPLES if k <= K):
                want = _mp_knot_weight(alpha, nodes, K, k)
                worst = max(worst, float(abs((row[k] - want) / want)))
                worst_naive = max(worst_naive, float(abs((naive[k] - want) / want)))
        assert worst <= 1e-12
        # the closed form alone cancels catastrophically on the tiny early steps
        assert worst_naive > 1e-12

    @pytest.mark.parametrize(
        "grid",
        [preset_grids("porous", alpha=0.3, horizon=100.0, steps=8192)[1], TimeGrid.uniform(2.0, 64), TimeGrid.graded(1.0, 256, 3.0)],
        ids=["w3-graded", "uniform", "graded"],
    )
    @pytest.mark.parametrize("alpha", [0.3, 0.8])
    def test_reproduce_power_moments(self, grid, alpha):
        # (g_b * 1)(T) = T^b / Gamma(b + 1) and (g_b * t)(T) = T^(b+1) / Gamma(b + 2), b = 2 - a
        beta = 2.0 - alpha
        nodes = grid.nodes
        knots = np.array([1, 2, grid.steps // 3, grid.steps])
        C = _knot_weights(alpha, nodes, knots)
        T = nodes[knots]
        np.testing.assert_allclose(C.sum(axis=1), T**beta / math.gamma(beta + 1.0), rtol=1e-13)
        np.testing.assert_allclose(C @ nodes, T ** (beta + 1.0) / math.gamma(beta + 2.0), rtol=1e-13)
