"""Fractional relaxation: the decay envelope, L1 marcher, comparison principle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfcx

from subdiff import relaxation
from subdiff.kernels import L1Weights, TimeGrid, default_grading
from subdiff.mittag_leffler import mittag_leffler
from subdiff.relaxation import (
    comparison_check,
    random_subsolution,
    solve_relaxation_l1,
)

EPS = float(np.finfo(float).eps)


def _envelope(alpha, mu, v0, grid):
    """``v0 E_a(-mu t^a)`` at the grid's nodes, as the decay certificate evaluates it."""
    return comparison_check(np.zeros(grid.steps + 1), grid, alpha, mu, v0).envelope


class TestEnvelope:
    def test_half_order_closed_form(self):
        # V(t) = V0 E_{1/2}(-mu sqrt(t)) = V0 erfcx(mu sqrt(t))
        tg = TimeGrid.uniform(20.0, 199)
        got = _envelope(0.5, 2.0, 3.0, tg)
        np.testing.assert_allclose(got, 3.0 * erfcx(2.0 * np.sqrt(tg.nodes)), rtol=0, atol=1e-9)

    def test_order_one_is_exponential(self):
        tg = TimeGrid.uniform(2.0, 4)
        np.testing.assert_allclose(_envelope(1.0, 1.5, 1.0, tg), np.exp(-1.5 * tg.nodes), rtol=1e-14)

    def test_zero_rate_is_constant(self):
        np.testing.assert_allclose(_envelope(0.4, 0.0, 2.5, TimeGrid.uniform(5.0, 10)), 2.5, rtol=0)

    def test_validation(self):
        with pytest.raises(ValueError, match="mu"):
            _envelope(0.5, -1.0, 1.0, TimeGrid.uniform(1.0, 4))
        # the envelope is evaluated at a grid's nodes, and no grid has a node before t = 0
        with pytest.raises(ValueError, match="start at t = 0"):
            TimeGrid(np.array([-0.5, 0.0, 1.0]))


class TestL1Marcher:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_converges_to_exact_solution(self, alpha):
        mu, v0, T = 1.0, 1.0, 2.0
        errs = []
        for M in (64, 256):
            tg = TimeGrid.graded(T, M, (2.0 - alpha) / alpha)
            V = solve_relaxation_l1(alpha, mu, v0, tg)
            exact = _envelope(alpha, mu, v0, tg)
            errs.append(np.max(np.abs(V - exact)))
        assert errs[0] < 6e-3
        # graded-mesh rate is M^-(2-a), so halving twice gains at least 4x
        assert errs[1] < errs[0] / 4.0

    def test_discrete_solution_is_positive_and_decreasing(self):
        tg = TimeGrid.uniform(10.0, 200)
        V = solve_relaxation_l1(0.5, 3.0, 1.0, tg)
        assert np.all(V > 0.0)
        assert np.all(np.diff(V) < 0.0)

    def test_satisfies_its_own_difference_equation(self):
        alpha, mu = 0.6, 2.0
        tg = TimeGrid.graded(1.0, 24, 2.0)
        V = solve_relaxation_l1(alpha, mu, 1.0, tg)
        w = L1Weights(alpha=alpha, grid=tg)
        resid = w.apply(V) + mu * V[1:]
        np.testing.assert_allclose(resid, 0.0, atol=200.0 * EPS * np.max(np.abs(w.block(tg.steps, tg.steps + 1)[0])))

    def test_mu_zero_stays_constant(self):
        tg = TimeGrid.uniform(1.0, 16)
        np.testing.assert_allclose(solve_relaxation_l1(0.5, 0.0, 4.0, tg), 4.0, rtol=1e-14)


def _march_one_by_one(weights, mu, v0, slack):
    """The scalar L1 recurrence, one history at a time: the reference for the batched marcher."""
    M = weights.grid.steps
    rows = weights.block(1, M + 1)
    V = np.empty(M + 1)
    V[0] = v0
    dV = np.empty(M)
    for n in range(1, M + 1):
        w = rows[n - 1]
        lagged = float(w[: n - 1] @ dV[: n - 1]) if n > 1 else 0.0
        V[n] = (w[n - 1] * V[n - 1] - lagged - slack[n - 1]) / (w[n - 1] + mu)
        dV[n - 1] = V[n] - V[n - 1]
    return V


class TestBatchedMarch:
    @pytest.mark.parametrize("batch", [1, 334])
    @pytest.mark.parametrize("kind", ["uniform", "graded"])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_matches_scalar_recurrence(self, alpha, kind, batch):
        grid = TimeGrid.uniform(3.0, 48) if kind == "uniform" else TimeGrid.graded(3.0, 48, default_grading(alpha))
        weights = L1Weights(alpha=alpha, grid=grid)
        rng = np.random.default_rng(batch)
        mu = 10.0 ** rng.uniform(-1.0, 1.5, batch)
        v0 = 10.0 ** rng.uniform(-1.0, 1.0, batch)
        slack = np.abs(rng.normal(size=(batch, grid.steps))) * rng.random((batch, grid.steps))
        slack[::2] = 0.0  # relaxation solutions and sub-solutions share the sweeps' batches
        got = solve_relaxation_l1(alpha, mu, v0, grid, slack)
        want = np.array([_march_one_by_one(weights, *args) for args in zip(mu, v0, slack)])
        assert got.shape == (batch, grid.steps + 1)
        # relative to each history's largest value: sub-solutions may pass through zero
        scale = np.max(np.abs(want), axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-14 * scale)

    def test_scalar_entry_points_march_a_batch_of_one(self):
        tg = TimeGrid.graded(2.0, 24, 2.0)
        weights = L1Weights(alpha=0.4, grid=tg)
        V = solve_relaxation_l1(0.4, 1.5, 2.0, tg)
        assert V.shape == (tg.steps + 1,)
        np.testing.assert_allclose(V, _march_one_by_one(weights, 1.5, 2.0, np.zeros(tg.steps)), rtol=1e-14)
        W = random_subsolution(0.4, 1.5, tg, np.random.default_rng(3), w0=2.0)
        start, slack = relaxation._subsolution_draws(np.random.default_rng(3), 2.0, tg.steps)
        assert W.shape == (tg.steps + 1,)
        assert W[0] == start
        scale = np.max(np.abs(W))
        assert np.all(np.abs(W - _march_one_by_one(weights, 1.5, start, slack)) <= 1e-14 * scale)

    def test_rejects_bad_shapes(self):
        grid = TimeGrid.uniform(1.0, 8)
        ones = np.ones(3)
        bad = [
            (ones, ones, np.zeros((3, 8, 1))),  # three axes
            (ones, ones, np.zeros(8)),  # no batch axis
            (ones, ones, np.zeros((3, 7))),  # wrong step count
            (np.ones(2), ones, np.zeros((3, 8))),  # mu length
            (ones, np.ones(4), np.zeros((3, 8))),  # v0 length
            (np.ones((3, 1)), ones, np.zeros((3, 8))),  # mu with two axes
            (1.0, 1.0, np.zeros((1, 8))),  # a scalar history with a batch of slacks
            (1.0, ones, None),  # scalar mu, batched v0
            (-ones, ones, None),  # negative decay rate
        ]
        for mu, v0, slack in bad:
            with pytest.raises(ValueError):
                solve_relaxation_l1(0.5, mu, v0, grid, slack)


class TestComparisonCheck:
    def test_exact_envelope_passes_with_unit_slack_and_margin_zero(self):
        tg = TimeGrid.uniform(5.0, 50)
        obs = _envelope(0.5, 1.0, 2.0, tg)
        cert = comparison_check(obs, tg, 0.5, 1.0, 2.0, slack=1.0)
        assert cert.passed
        np.testing.assert_allclose(cert.margins, 0.0, atol=1e-12)

    def test_inflated_observation_fails(self):
        tg = TimeGrid.uniform(5.0, 50)
        obs = 1.2 * _envelope(0.5, 1.0, 1.0, tg)
        cert = comparison_check(obs, tg, 0.5, 1.0, 1.0, slack=1.05)
        assert not cert.passed
        assert cert.margins.min() < 0.0

    def test_discrete_marcher_sits_under_slack_envelope(self):
        # needs the graded startup: on a coarse uniform grid the first-node
        # value of the marcher can overshoot the envelope by more than 5%
        for alpha in (0.3, 0.5, 0.8):
            tg = TimeGrid.graded(20.0, 400, default_grading(alpha))
            V = solve_relaxation_l1(alpha, 2.0, 1.0, tg)
            cert = comparison_check(V, tg, alpha, 2.0, 1.0, slack=1.05)
            assert cert.passed, f"alpha={alpha}: min margin {cert.margins.min()}"

    def test_tail_exponent_recovers_alpha(self):
        # on W = (V0 E_a(-mu t^a))^2 the fitted L2-norm exponent is -alpha;
        # mu and T are chosen deep inside the algebraic regime
        for alpha in (0.3, 0.5, 0.8):
            tg = TimeGrid.uniform(1e4, 800)
            W = _envelope(alpha, 10.0, 1.0, tg) ** 2
            cert = comparison_check(W, tg, alpha, 10.0, 1.0, slack=3.0)
            np.testing.assert_allclose(cert.tail_exponent, -alpha, atol=0.02)

    def test_tail_exponent_nan_on_short_history(self):
        tg = TimeGrid.uniform(1.0, 4)
        obs = np.ones(5)
        cert = comparison_check(obs, tg, 0.5, 0.0, 1.0, slack=1.1)
        assert np.isnan(cert.tail_exponent)
        assert cert.passed

    def test_reports_mittag_leffler_accuracy(self, monkeypatch):
        # one array evaluation for all nodes through subdiff.relaxation._evaluate; the
        # worst estimate and the inaccurate count are carried, here with one flag forced
        tg = TimeGrid.graded(20.0, 64, default_grading(0.4))
        obs = _envelope(0.4, 2.0, 1.0, tg)
        calls = []

        def recording(alpha, z):
            values, estimates = evaluate(alpha, z)
            estimates[7] = 3e-9
            calls.append(z)
            return values, estimates

        evaluate = relaxation._evaluate
        monkeypatch.setattr(relaxation, "_evaluate", recording)
        cert = comparison_check(obs, tg, 0.4, 2.0, 1.0)
        assert [z.shape for z in calls] == [(tg.steps + 1,)]
        assert cert.ml_max_error_estimate == 3e-9
        assert cert.ml_inaccurate == 1

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
    def test_envelope_matches_per_node_evaluations(self, alpha):
        tg = TimeGrid.graded(20.0, 128, 2.0)
        obs = 0.5 * _envelope(alpha, 2.0, 1.0, tg)
        cert = comparison_check(obs, tg, alpha, 2.0, 1.5)
        evals = [mittag_leffler(alpha, -2.0 * t**alpha) for t in tg.nodes]
        np.testing.assert_array_equal(cert.envelope, [1.5 * e.value for e in evals])
        assert cert.ml_max_error_estimate == max(e.error_estimate for e in evals)
        assert cert.ml_inaccurate == sum(not e.accurate for e in evals)

    def test_validation(self):
        tg = TimeGrid.uniform(1.0, 8)
        with pytest.raises(ValueError):
            comparison_check(np.ones(9), tg, 0.5, 1.0, 1.0, slack=0.9)
        with pytest.raises(ValueError):
            comparison_check(np.ones(7), tg, 0.5, 1.0, 1.0)


class TestRandomSubsolutions:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_never_exceed_discrete_supersolution(self, alpha):
        rng = np.random.default_rng(7)
        tg = TimeGrid.uniform(3.0, 48)
        for _ in range(50):
            mu = 10.0 ** rng.uniform(-1.0, 1.5)
            w0 = 10.0 ** rng.uniform(-1.0, 1.0)
            W = random_subsolution(alpha, mu, tg, rng, w0=w0)
            V = solve_relaxation_l1(alpha, mu, w0, tg)
            tol = 64.0 * (tg.steps + 4) * EPS * max(np.max(np.abs(V)), np.max(np.abs(W)))
            assert np.min(V - W) >= -tol

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        alpha=st.floats(0.1, 0.9),
        graded=st.booleans(),
    )
    def test_subsolution_property(self, seed, alpha, graded):
        rng = np.random.default_rng(seed)
        tg = TimeGrid.graded(2.0, 32, 2.5) if graded else TimeGrid.uniform(2.0, 32)
        mu = 10.0 ** rng.uniform(-1.0, 1.5)
        W = random_subsolution(alpha, mu, tg, rng)
        V = solve_relaxation_l1(alpha, mu, 1.0, tg)
        tol = 64.0 * (tg.steps + 4) * EPS * max(np.max(np.abs(V)), np.max(np.abs(W)), 1.0)
        assert np.min(V - W) >= -tol

    def test_batched_draws_shapes_and_signs(self):
        w0 = 10.0 ** np.random.default_rng(0).uniform(-1.0, 1.0, 7)
        start, slack = relaxation._subsolution_draws(np.random.default_rng(1), w0, 12)
        assert start.shape == (7,)
        assert slack.shape == (7, 12)
        assert np.all(start <= w0)
        assert np.all(slack >= 0.0)

    def test_scalar_draws_shapes(self):
        start, slack = relaxation._subsolution_draws(np.random.default_rng(1), 2.0, 12)
        assert isinstance(start, float)
        assert start <= 2.0
        assert slack.shape == (12,)

    def test_each_row_draws_slacks_at_its_own_scale(self):
        # |N(0, s)| U(0, 1) with s = 0.3 (|w0| + 1) has mean s sqrt(2/pi) / 2 and variance
        # s^2 (1/3 - 1/(2 pi)); a square batch also catches a scale broadcast along the step axis
        n = 400
        w0 = np.tile([0.1, 10.0], n // 2)
        _, slack = relaxation._subsolution_draws(np.random.default_rng(11), w0, n)
        s = 0.3 * (np.abs(w0) + 1.0)
        mean = s * np.sqrt(2.0 / np.pi) / 2.0
        stderr = s * np.sqrt((1.0 / 3.0 - 1.0 / (2.0 * np.pi)) / n)
        assert np.all(np.abs(slack.mean(axis=1) - mean) <= 5.0 * stderr)

    def test_starts_at_or_below_w0(self):
        rng = np.random.default_rng(1)
        tg = TimeGrid.uniform(1.0, 8)
        for _ in range(20):
            W = random_subsolution(0.5, 1.0, tg, rng, w0=2.0)
            assert W[0] <= 2.0
