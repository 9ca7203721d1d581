"""Time-fractional kernel machinery: weights, convexity, compression."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subdiff.config import _EPS_COMPRESS_FLOOR
from subdiff.kernels import (
    CompressionError,
    DirectHistory,
    L1Weights,
    TimeGrid,
    _gauss_rule,
    _step_mean,
    check_discrete_convexity,
    compress_history,
    default_grading,
    rl_kernel,
)

GAMMA_HALF = math.sqrt(math.pi)


class TestRLKernel:
    def test_half_order_at_one(self):
        # g_{1/2}(1) = 1 / Gamma(1/2) = 1 / sqrt(pi)
        np.testing.assert_allclose(rl_kernel(0.5, 1.0), 0.5641895835477563, rtol=1e-15)

    def test_first_order_is_constant_one(self):
        t = np.array([0.25, 1.0, 7.0])
        np.testing.assert_allclose(rl_kernel(1.0, t), np.ones(3), rtol=0)

    def test_power_law_scaling(self):
        beta = 0.3
        np.testing.assert_allclose(
            rl_kernel(beta, 2.0) / rl_kernel(beta, 1.0), 2.0 ** (beta - 1.0), rtol=1e-14
        )

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            rl_kernel(0.5, 0.0)
        with pytest.raises(ValueError):
            rl_kernel(0.0, 1.0)


class TestTimeGrid:
    def test_uniform_nodes(self):
        tg = TimeGrid.uniform(2.0, 4)
        np.testing.assert_allclose(tg.nodes, [0.0, 0.5, 1.0, 1.5, 2.0], rtol=0)
        assert tg.steps == 4
        assert tg.is_uniform()

    @pytest.mark.parametrize("horizon, steps", [(3.0, 16), (10.0, 1000), (3.0, 100)])
    def test_graded_with_unit_exponent_is_uniform_bitwise(self, horizon, steps):
        b = TimeGrid.graded(horizon, steps, 1.0)
        assert b.nodes.tobytes() == (horizon * (np.arange(steps + 1) / steps)).tobytes()
        assert b.is_uniform() and b.horizon == horizon

    def test_a_uniform_grid_has_one_step_and_read_only_arrays(self):
        # 10 / 1000 is no binary fraction: the node differences straddle it by an ulp
        tg = TimeGrid.uniform(10.0, 1000)
        assert np.unique(np.diff(tg.nodes)).size > 1
        assert tg.tau.tobytes() == np.full(1000, tg.nodes[1] - tg.nodes[0]).tobytes()
        for array in (tg.nodes, tg.tau):
            with pytest.raises(ValueError, match="read-only"):
                array[-1] = 0.0

    def test_graded_concentrates_near_origin(self):
        tg = TimeGrid.graded(1.0, 8, 3.0)
        tau = tg.tau
        assert np.all(np.diff(tau) > 0.0)
        np.testing.assert_allclose(tg.nodes[1], 8.0**-3.0, rtol=1e-15)

    def test_default_grading(self):
        np.testing.assert_allclose(default_grading(0.5), 3.0, rtol=0)
        np.testing.assert_allclose(default_grading(0.8), 1.5, rtol=1e-15)
        assert default_grading(0.3) == 4.0  # capped

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid.uniform(-1.0, 4)
        with pytest.raises(ValueError):
            TimeGrid.graded(1.0, 4, 0.5)
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 0.5, 0.25, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(np.array([0.0, 0.5, math.inf]))

    @pytest.mark.parametrize(
        "horizon, steps, r, name",
        [
            (1.0, 0, 1.0, "steps"),
            (1.0, 2.5, 1.0, "steps"),  # would end at t = 1.2, past the horizon
            (math.inf, 4, 1.0, "horizon"),
            (math.nan, 4, 1.0, "horizon"),
            (0.0, 4, 1.0, "horizon"),
            (1.0, 4, math.nan, "r"),
            (1.0, 4, math.inf, "r"),
            (1.0, 4, 0.5, "r"),
        ],
    )
    def test_grid_constructors_reject_bad_arguments_by_name(self, horizon, steps, r, name):
        # checked before any node is built, so no numpy warning (0/0, inf * 0) comes first
        with pytest.raises(ValueError, match=f"^{name} must be"):
            TimeGrid.graded(horizon, steps, r)
        if r == 1.0:
            with pytest.raises(ValueError, match=f"^{name} must be"):
                TimeGrid.uniform(horizon, steps)


class TestL1Weights:
    def test_single_step_weight(self):
        # one step of size 1 at alpha = 1/2: w_11 = 1 / Gamma(3/2) = 2/sqrt(pi)
        w = L1Weights(alpha=0.5, grid=TimeGrid.uniform(1.0, 1))
        np.testing.assert_allclose(w.block(1, 2)[0], [2.0 / GAMMA_HALF], rtol=1e-15)
        np.testing.assert_allclose(w.diag(1), 1.1283791670955126, rtol=1e-15)

    @pytest.mark.parametrize("field", ["_uniform_b", "_diag"])
    def test_cached_tables_are_not_arguments(self, field):
        # a stray third argument once became the uniform sequence, so every row read zeros off the diagonal
        grid = TimeGrid.graded(1.0, 8, 2.0)
        with pytest.raises(TypeError):
            L1Weights(0.5, grid, np.zeros(8))
        with pytest.raises(TypeError):
            L1Weights(alpha=0.5, grid=grid, **{field: np.zeros(8)})

    def test_row_matches_kernel_averages(self):
        # w_{n,k} is the average of g_{1-a}(t_n - s) over step k; check the
        # off-diagonal weights by brute-force midpoint quadrature (the kernel
        # is smooth there), independent of the closed form
        alpha = 0.7
        tg = TimeGrid.graded(2.0, 6, 2.5)
        w = L1Weights(alpha=alpha, grid=tg)
        n = 5
        t = tg.nodes
        for k in range(1, n):
            s = np.linspace(t[k - 1], t[k], 20001)[:-1] + 0.5 * (t[k] - t[k - 1]) / 20000
            avg = np.mean(rl_kernel(1.0 - alpha, t[n] - s))
            np.testing.assert_allclose(w.block(n, n + 1)[0][k - 1], avg, rtol=5e-9)
        # diagonal weight: the average of the singular kernel over the last
        # step has the elementary value tau_n^(-a) / Gamma(2 - a)
        tau_n = t[n] - t[n - 1]
        np.testing.assert_allclose(
            w.block(n, n + 1)[0][n - 1], tau_n**-alpha / math.gamma(2.0 - alpha), rtol=1e-13
        )
        np.testing.assert_allclose(w.diag(n), w.block(n, n + 1)[0][n - 1], rtol=1e-13)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize(
        "make",
        [
            lambda: TimeGrid.uniform(2.0, 12),
            lambda: TimeGrid.graded(2.0, 12, 3.0),
            # steps far shorter than t_n - t_k, where a cancelling closed form breaks monotonicity
            lambda: TimeGrid.graded(100.0, 1024, 3.0),
        ],
    )
    def test_rows_positive_and_increasing(self, alpha, make):
        # monotone rows are what the convexity and comparison arguments use
        tg = make()
        w = L1Weights(alpha=alpha, grid=tg)
        for n0, n1, block in w.blocks(tg.steps):
            for n in range(n0, n1):
                row = block[n - n0, :n]
                assert np.all(row > 0.0)
                assert np.all(np.diff(row) > 0.0), f"row {n}"

    def test_graded_rows_match_mpmath(self):
        # the strongest grading the presets use, over a long horizon: the first
        # steps are about 1e-14 long next to t_n = 100
        alpha = 0.3
        tg = TimeGrid.graded(100.0, 8192, 4.0)
        w = L1Weights(alpha=alpha, grid=tg)
        t = [mp.mpf(x) for x in tg.nodes.tolist()]
        with mp.workdps(40):
            p = 1 - mp.mpf(alpha)
            c = mp.gamma(1 + p)
            for n in (4096, 8192):
                ks = np.unique(np.concatenate([np.arange(1, n, 29), [n - 1, n]]))
                want = [((t[n] - t[k - 1]) ** p - (t[n] - t[k]) ** p) / (c * (t[k] - t[k - 1])) for k in ks]
                np.testing.assert_allclose(w.block(n, n + 1)[0][ks - 1], np.array(want, dtype=float), rtol=1e-13)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_exact_on_linear_history(self, alpha):
        # the scheme integrates piecewise-linear histories exactly, so for
        # v(t) = t it reproduces the Caputo derivative t^(1-a)/Gamma(2-a)
        for tg in (TimeGrid.uniform(2.0, 9), TimeGrid.graded(2.0, 9, 3.0)):
            w = L1Weights(alpha=alpha, grid=tg)
            got = w.apply(tg.nodes.copy())
            want = tg.nodes[1:] ** (1.0 - alpha) / math.gamma(2.0 - alpha)
            np.testing.assert_allclose(got, want, rtol=5e-14)

    def test_apply_matches_row_contraction(self):
        rng = np.random.default_rng(3)
        tg = TimeGrid.graded(1.0, 7, 2.0)
        w = L1Weights(alpha=0.4, grid=tg)
        hist = rng.normal(size=(8, 3))
        got = w.apply(hist)
        assert got.shape == (7, 3)
        for n in range(1, 8):
            manual = w.block(n, n + 1)[0] @ np.diff(hist[: n + 1], axis=0)
            np.testing.assert_allclose(got[n - 1], manual, rtol=1e-14)
        # a shorter history gives the leading rows
        np.testing.assert_allclose(w.apply(hist[:5]), got[:4], rtol=1e-14)

    @pytest.mark.parametrize("make", [lambda: TimeGrid.uniform(2.0, 300), lambda: TimeGrid.graded(2.0, 300, 3.0)])
    def test_block_rows_equal_rows_bitwise(self, make, monkeypatch):
        tg = make()
        w = L1Weights(alpha=0.45, grid=tg)
        # small blocks, so that blocks() spans several of them
        monkeypatch.setattr("subdiff.kernels._BLOCK_ENTRIES", 1000)
        seen = []
        for n0, n1, block in w.blocks(tg.steps):
            assert block.shape == (n1 - n0, n1 - 1)
            for n in range(n0, n1):
                row = block[n - n0]
                assert np.array_equal(row[:n], w.block(n, n + 1)[0])
                assert np.all(row[n:] == 0.0)
                assert row[n - 1] == w.diag(n)
                seen.append(n)
        assert seen == list(range(1, tg.steps + 1))

    @pytest.mark.parametrize("steps, alpha", [(s, a) for s in (2048, 16384) for a in (0.05, 0.5, 0.95)])
    def test_uniform_rows_match_extended_precision(self, steps, alpha):
        # w_{n,k} = ((n-k+1)^p - (n-k)^p) tau^-alpha / Gamma(2 - alpha), p = 1 - alpha, in 40 digits;
        # differencing j^p in floating point loses up to 4e-11 of this at 16384 steps and alpha = 0.95
        tg = TimeGrid.uniform(1.0, steps)
        w = L1Weights(alpha=alpha, grid=tg)
        with mp.workdps(40):
            a = mp.mpf(alpha)
            p = 1 - a
            scale = mp.mpf(float(tg.tau[0])) ** (-a) / mp.gamma(2 - a)
            j = np.unique(np.geomspace(1, steps - 1, 200).astype(int))  # lags n - k, log-spaced
            want = np.array([float(((mp.mpf(int(i)) + 1) ** p - mp.mpf(int(i)) ** p) * scale) for i in j])
            diag = float(scale)
        row = w.block(steps, steps + 1)[0]
        np.testing.assert_allclose(row[steps - 1 - j], want, rtol=1e-14, atol=0)
        np.testing.assert_allclose(row[-1], diag, rtol=1e-14, atol=0)

    def test_block_range_checked(self):
        w = L1Weights(alpha=0.5, grid=TimeGrid.uniform(1.0, 4))
        for n0, n1 in ((0, 1), (0, 2), (3, 3), (2, 6), (5, 6)):
            with pytest.raises(ValueError):
                w.block(n0, n1)

    def test_uniform_and_graded_routes_agree(self):
        tg_u = TimeGrid.uniform(1.5, 10)
        w_u = L1Weights(alpha=0.6, grid=tg_u)
        # the same grid, but forced through the graded (generic) code path
        w_g = L1Weights(alpha=0.6, grid=tg_u)
        object.__setattr__(w_g, "_uniform_b", None)
        for n in (1, 5, 10):
            np.testing.assert_allclose(w_u.block(n, n + 1)[0], w_g.block(n, n + 1)[0], rtol=1e-13)


class TestRowMargins:
    @pytest.mark.parametrize("graded", [False, True], ids=["uniform", "graded"])
    def test_walked_partly_walked_and_fresh_margins_agree_bitwise(self, graded):
        grid = TimeGrid.graded(3.0, 1000, 3.0 if graded else 1.0)
        fresh = L1Weights(alpha=0.3, grid=grid).row_margins()
        # a whole walk, one that ends inside a block, one that opens its second block, and one of a single query;
        # the rows that each has evaluated are 1..reached (rows 1..64, then 16 at a time)
        for pushes, reached in ((1000, 1000), (300, 304), (64, 80), (0, 64)):
            w = L1Weights(alpha=0.3, grid=grid)
            mem = DirectHistory(w)
            mem.reset(())
            for _ in range(pushes):
                mem.memory_term()
                mem.push(1.0)
            # a graded grid keeps the rows a walk evaluated; the O(M) uniform scan keeps nothing
            assert w._reached == (reached if graded else 0), pushes
            margins, positive = w.row_margins()
            assert margins.tobytes() == fresh[0].tobytes() and positive is fresh[1], pushes

    # grids whose late rows hold adjacent weights closer than their rounding: alpha, horizon, steps, grading
    _TIGHT = [(0.1, 50.0, 8192, 4.0), (0.1, 100.0, 16384, 4.0), (0.3, 100.0, 16384, 4.0)]

    @pytest.mark.parametrize("alpha, horizon, steps, r", _TIGHT + [(0.05, 1.0, 16384, 1.0), (0.95, 1.0, 16384, 1.0)])
    def test_step_means_keep_their_error_bound(self, alpha, horizon, steps, r):
        # the bound of L1Weights._step_means, (16 + 4 rho) eps with rho = 1 on these grids, against 50 digits, for
        # the same float p = 1 - alpha and Gamma(2 - alpha); the first lags, where the ties sit, and log-spaced ones
        grid = TimeGrid.graded(horizon, steps, r)
        w = L1Weights(alpha=alpha, grid=grid)
        bound = 20.0 * np.finfo(float).eps
        worst = 0.0
        with mp.workdps(50):
            t = [mp.mpf(x) for x in grid.nodes.tolist()]
            p, g = mp.mpf(1.0 - alpha), mp.mpf(math.gamma(2.0 - alpha))
            for n in (steps // 2 + 1, steps - 300, steps):
                ks = np.unique(np.concatenate([np.arange(1, 41), np.geomspace(1, n - 1, 40).astype(int)]))
                got = w.block(n, n + 1)[0][ks - 1]
                want = [((t[n] - t[k - 1]) ** p - (t[n] - t[k]) ** p) / (g * (t[k] - t[k - 1])) for k in ks.tolist()]
                worst = max(worst, max(float(abs(mp.mpf(x) / y - 1)) for x, y in zip(got.tolist(), want)))
        assert worst <= bound, worst / np.finfo(float).eps


def _margin_by_abel_summation(alpha, grid, v):
    """Closed-form margins via summation by parts, an independent oracle.

    For monotone rows, LHS - RHS at step n equals
    (w_{n,1} (v_n - v_0)^2 + sum_{k<n} (w_{n,k+1} - w_{n,k}) (v_n - v_k)^2)/2.
    """
    w = L1Weights(alpha=alpha, grid=grid)
    out = np.empty(grid.steps)
    for n in range(1, grid.steps + 1):
        row = w.block(n, n + 1)[0]
        total = row[0] * (v[n] - v[0]) ** 2
        for k in range(1, n):
            total += (row[k] - row[k - 1]) * (v[n] - v[k]) ** 2
        out[n - 1] = 0.5 * total
    return out


class TestDiscreteConvexity:
    def test_margins_match_abel_oracle(self):
        rng = np.random.default_rng(11)
        for alpha, tg in [
            (0.3, TimeGrid.uniform(2.0, 10)),
            (0.5, TimeGrid.graded(2.0, 10, 3.0)),
            (0.8, TimeGrid.graded(2.0, 10, 1.5)),
        ]:
            v = np.cumsum(rng.normal(size=11))
            rep = check_discrete_convexity(alpha, tg, v)
            want = _margin_by_abel_summation(alpha, tg, v)
            np.testing.assert_allclose(rep.margins, want, rtol=1e-10, atol=1e-12)

    def test_constant_history_has_zero_margin(self):
        tg = TimeGrid.uniform(1.0, 6)
        rep = check_discrete_convexity(0.5, tg, np.full(7, 3.0))
        np.testing.assert_allclose(rep.margins, 0.0, atol=1e-14)
        assert rep.passed

    def test_report_fields(self):
        tg = TimeGrid.graded(1.0, 5, 2.0)
        rep = check_discrete_convexity(0.4, tg, np.arange(6.0))
        assert rep.alpha == 0.4
        assert rep.times.shape == (5,)
        assert rep.margins.shape == (5,)
        assert rep.roundoff.shape == (5,)
        assert np.all(rep.roundoff >= 0.0)
        assert rep.min_margin == rep.margins.min()
        assert rep.violations == 0

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_stack_matches_row_by_row(self, alpha):
        rng = np.random.default_rng(17)
        for tg in (TimeGrid.uniform(2.0, 48), TimeGrid.graded(2.0, 48, default_grading(alpha))):
            hists = 10.0 ** rng.uniform(-2.0, 2.0, (200, 1)) * np.cumsum(rng.standard_normal((200, 49)), axis=1)
            hists[0] = 3.0  # zero margins
            hists[1, 20] = np.nan  # the one failing verdict
            rep = check_discrete_convexity(alpha, tg, hists)
            rows = [check_discrete_convexity(alpha, tg, h) for h in hists]
            assert rep.times.shape == (48,)
            assert rep.margins.shape == rep.roundoff.shape == (200, 48)
            assert [r.passed for r in rows] == [i != 1 for i in range(200)]
            assert not rep.passed
            assert rep.violations == 1
            for i in (0, *range(2, 200)):
                assert np.all(np.abs(rep.margins[i] - rows[i].margins) <= rep.roundoff[i])
                np.testing.assert_allclose(rep.roundoff[i], rows[i].roundoff, rtol=1e-12)
            clean = check_discrete_convexity(alpha, tg, np.delete(hists, 1, axis=0))
            assert clean.passed and clean.violations == 0

    def test_rejects_bad_shapes(self):
        tg = TimeGrid.uniform(1.0, 6)
        for bad in (np.ones((2, 3, 7)), np.float64(1.0), np.ones(1), np.ones((4, 8))):
            with pytest.raises(ValueError):
                check_discrete_convexity(0.5, tg, bad)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        alpha=st.floats(0.05, 0.95),
        graded=st.booleans(),
        logscale=st.floats(-3.0, 3.0),
    )
    def test_margins_never_negative(self, seed, alpha, graded, logscale):
        rng = np.random.default_rng(seed)
        steps = int(rng.integers(2, 24))
        tg = TimeGrid.graded(1.0, steps, 1.0 + 3.0 * rng.random()) if graded else TimeGrid.uniform(1.0, steps)
        v = 10.0**logscale * np.cumsum(rng.standard_normal(steps + 1))
        rep = check_discrete_convexity(alpha, tg, v)
        assert rep.passed, f"margin {rep.min_margin} below -roundoff"


class TestCompression:
    @pytest.mark.parametrize("grid", [TimeGrid.uniform(1.0, 2048), TimeGrid.graded(100.0, 1024, 3.0)], ids=["uniform", "graded"])
    def test_served_weights_match_l1_rows(self, grid):
        # pushing the unit increments e_1, e_2, ... makes memory_term() after n - 1 pushes the row w_{n,1..n-1}
        for alpha in (0.3, 0.5, 0.8):
            w = L1Weights(alpha=alpha, grid=grid)
            comp = compress_history(w, 1e-8)
            assert comp.achieved <= 1e-10  # eps / 100 safety target
            comp.reset((grid.steps,))
            unit = np.eye(grid.steps)
            worst = 0.0
            for n in range(2, grid.steps + 1):
                comp.push(unit[n - 2])
                served = comp.memory_term()
                exact = w.block(n, n + 1)[0][:-1]
                assert not served[n - 1 :].any()
                worst = max(worst, float(np.max(np.abs(served[: n - 1] - exact) / exact)))
            assert worst <= 1e-10, (alpha, worst)

    def test_memory_term_tracks_direct_sum(self):
        # every memory provider serves the same reset / push / memory_term cycle
        uniform, graded = TimeGrid.uniform(2.0, 256), TimeGrid.graded(2.0, 256, 3.0)
        for grid, provider in [
            (uniform, lambda w: compress_history(w, 1e-8)),
            (uniform, DirectHistory),
            (graded, lambda w: compress_history(w, 1e-8)),
            (graded, DirectHistory),
        ]:
            rng = np.random.default_rng(5)
            w = L1Weights(alpha=0.5, grid=grid)
            mem = provider(w)
            deltas = rng.normal(size=(grid.steps, 4))
            mem.reset((4,))
            np.testing.assert_array_equal(mem.memory_term(), np.zeros(4))
            scale = np.abs(deltas).sum()
            for n in range(2, grid.steps + 1):
                mem.push(deltas[n - 2])
                direct = w.block(n, n + 1)[0][: n - 1] @ deltas[: n - 1]
                np.testing.assert_allclose(mem.memory_term(), direct, atol=1e-9 * scale)

    @pytest.mark.parametrize(
        "provider", [DirectHistory, lambda w: compress_history(w, 1e-8)], ids=["direct", "compressed"]
    )
    def test_an_answer_at_a_block_boundary_survives_the_next_block(self, provider):
        # the first query of a block reads only the block's sums over older increments, which the compressed
        # provider keeps in a table that the next block's opening overwrites in place
        mem = provider(L1Weights(alpha=0.5, grid=TimeGrid.uniform(1.0, 128)))
        rng = np.random.default_rng(3)
        mem.reset((4,))
        for block in range(3):  # the end of the first block, which opens the second, and the ends of two more
            for _ in range(mem._end - mem._count):
                mem.push(rng.normal(size=4))
            assert mem._count == mem._start, block  # a block has opened
            if block:
                assert at_boundary.tobytes() == kept.tobytes(), block
                assert mem.memory_term().tobytes() != kept.tobytes(), block
            at_boundary = mem.memory_term()
            kept = at_boundary.copy()

    @pytest.mark.parametrize("shape", [(), (3,), (65,)], ids=["scalar", "batch", "field"])
    @pytest.mark.parametrize("steps", [1, 15, 16, 17, 48, 1000])
    @pytest.mark.parametrize("graded", [False, True], ids=["uniform", "graded"])
    def test_blocked_direct_history_matches_row_dots(self, graded, steps, shape, monkeypatch):
        grid = TimeGrid.graded(3.0, steps, 2.5 if graded else 1.0)
        w = L1Weights(alpha=0.4, grid=grid)
        lagged = [w.block(n, n + 1)[0][:-1] for n in range(1, steps + 1)]  # the per-row reference, before counting
        # the walk's slabs: rows 1..64, then 16 rows at a time
        first, height = DirectHistory._FIRST, DirectHistory._BLOCK
        slabs = [(n0, min(n0 + (first if n0 == 1 else height), steps + 1)) for n0 in [1, *range(first + 1, steps + 1, height)]]
        blocks = []
        block = L1Weights.block

        def counting(self, n0, n1):
            blocks.append((n0, n1))
            return block(self, n0, n1)

        monkeypatch.setattr(L1Weights, "block", counting)
        mem = DirectHistory(w)
        rng = np.random.default_rng(steps)
        eps = np.finfo(float).eps
        for trajectory in range(2):  # reset restarts the walk at row 1
            blocks.clear()
            mem.reset(shape)
            deltas = rng.normal(size=(steps,) + shape)
            answers = []
            for n in range(1, steps + 1):
                want = np.dot(lagged[n - 1], deltas[: n - 1])
                got = mem.memory_term()
                answers.append((got, np.copy(got)))
                assert np.shape(got) == shape and isinstance(got, float) is (shape == ())
                # a query moves nothing, so asking twice gives the same sum
                assert np.asarray(mem.memory_term()).tobytes() == np.asarray(got).tobytes()
                if n <= first:  # the first block has no older increments: its queries are the row dots
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (trajectory, n)
                else:  # a product over the older increments, then the in-block dot: summation order only
                    gross = np.abs(lagged[n - 1]) @ np.abs(deltas[: n - 1])
                    assert np.all(np.abs(got - want) <= 2.0 * n * eps * gross), (trajectory, n)
                mem.push(deltas[n - 1])
            assert blocks == slabs  # every slab once, in order
            # each answer is a fresh value: the caller may keep it while the walk goes on into later blocks
            assert all(np.asarray(a).tobytes() == b.tobytes() for a, b in answers)

    @pytest.mark.parametrize("provider", [DirectHistory, lambda w: compress_history(w, 1e-8)])
    def test_providers_reject_fields_with_two_axes(self, provider):
        # with 3 increments of 3 x 5 fields, np.dot would sum over the first field axis instead
        mem = provider(L1Weights(alpha=0.5, grid=TimeGrid.uniform(1.0, 64)))
        with pytest.raises(ValueError, match="flat fields"):
            mem.reset((3, 5))

    @pytest.mark.parametrize("provider", [DirectHistory, lambda w: compress_history(w, 1e-8)])
    def test_providers_start_only_through_reset(self, provider):
        mem = provider(L1Weights(alpha=0.5, grid=TimeGrid.uniform(1.0, 64)))
        with pytest.raises(RuntimeError, match="reset before querying"):
            mem.memory_term()
        with pytest.raises(TypeError):  # a push does not start a history: there is nothing to store it in
            mem.push(np.ones(3))
        mem.reset((3,))
        mem.push(np.ones(3))
        assert mem.memory_term().shape == (3,)

    def test_rejects_bad_eps(self):
        w = L1Weights(alpha=0.5, grid=TimeGrid.uniform(1.0, 64))
        with pytest.raises(ValueError):
            compress_history(w, -1.0)

    def test_refuses_a_step_whose_top_rate_overflows_when_squared(self):
        # two steps on the porous preset's graded grid: the lagged step is 0.875 T, and the Lanczos step of
        # the Gauss rule squares rates near 40 / T, which overflows below T = 1e-153
        grading = default_grading(0.5)
        for horizon in (1e-160, 1e-300):
            w = L1Weights(alpha=0.5, grid=TimeGrid.graded(horizon, 2, grading))
            with pytest.raises(CompressionError, match=f"shortest step after the first, {0.875 * horizon:g}"):
                compress_history(w, 1e-8)
        assert compress_history(L1Weights(alpha=0.5, grid=TimeGrid.graded(1e-150, 2, grading)), 1e-8).n_modes > 0

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_mode_budget_over_16384_steps(self, alpha):
        comp = compress_history(L1Weights(alpha=alpha, grid=TimeGrid.uniform(1.0, 16384)), 1e-8)
        assert comp.n_modes <= 100  # the trapezoid ladder alone needs 191 to 397
        assert np.all(comp.rates > 0.0) and np.all(comp.weights > 0.0)
        assert comp.achieved <= 1e-10

    def test_fewer_modes_than_lags_on_a_short_slow_history(self):
        # at alpha = 0.05 the ladder reaches far below 1/T: 2024 modes for 63 lags before the slow band collapses
        comp = compress_history(L1Weights(alpha=0.05, grid=TimeGrid.uniform(1.0, 64)), 1e-8)
        assert comp.n_modes < 63  # the lags
        assert comp.achieved <= 1e-10

    @pytest.mark.parametrize("alpha, steps", [(0.05, 64), (0.3, 16384), (0.5, 2048), (0.8, 16384)])
    def test_gauss_rule_reproduces_the_slow_band(self, alpha, steps, monkeypatch):
        calls = []

        def recording(rates, weights, n):
            nodes, node_weights = _gauss_rule(rates, weights, n)
            calls.append((rates, weights, nodes, node_weights))
            return nodes, node_weights

        monkeypatch.setattr("subdiff.kernels._gauss_rule", recording)
        grid = TimeGrid.uniform(1.0, steps)
        compress_history(L1Weights(alpha=alpha, grid=grid), 1e-8)
        assert calls
        lag_times = grid.nodes[1:, None]
        for rates, weights, nodes, node_weights in calls:
            assert rates.max() * grid.horizon < 1.0  # only the slow band is reduced
            assert rates.min() <= nodes.min() and nodes.max() <= rates.max()
            assert np.all(node_weights > 0.0)
            exact = np.exp(-lag_times * rates) @ weights
            rule = np.exp(-lag_times * nodes) @ node_weights
            assert float(np.max(np.abs(rule - exact) / exact)) <= 1e-10 / 10  # target / 10

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("grid", [TimeGrid.uniform(1.0, 4096), TimeGrid.graded(100.0, 1024, 4.0)], ids=["uniform", "graded"])
    def test_slow_history_builds_and_marches_without_warnings(self, grid):
        # at alpha = 0.01 the ladder's slowest rates underflow to 0, where an unguarded step mean divides 0 by 0
        assert _step_mean(np.zeros(1)) == 1.0
        comp = compress_history(L1Weights(alpha=0.01, grid=grid), 1e-8)
        comp.reset((2,))
        for _ in range(3 * comp._BLOCK):
            comp.push(np.ones(2))
            assert np.all(np.isfinite(comp.memory_term()))

    @pytest.mark.parametrize("eps", [_EPS_COMPRESS_FLOOR, 1e-12, 1e-10, 1e-8])
    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.8, 0.95])
    def test_every_accepted_tolerance_is_reached(self, alpha, eps):
        grids = [TimeGrid.uniform(1.0, 64), TimeGrid.uniform(1.0, 256), TimeGrid.uniform(1.0, 2048)]
        for grid in grids + [TimeGrid.graded(100.0, 1024, default_grading(alpha))]:
            comp = compress_history(L1Weights(alpha=alpha, grid=grid), eps)
            assert comp.achieved <= eps / 100.0
            assert np.all(comp.rates >= 0.0) and np.all(comp.weights > 0.0)
