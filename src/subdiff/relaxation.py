"""Scalar fractional relaxation: the decay envelope and its discrete twin.

The model problem ``(D^a (V - V0))(t) + mu V(t) = 0`` has the closed-form
solution ``V(t) = V0 E_a(-mu t^a)``.  Discretized with the same L1 weights the
solver uses, its solution dominates every discrete sub-solution: if

    (D^a W)_n + mu W_n <= 0  for all n,   W_0 <= V_0,

then ``W_n <= V_n`` (positivity and monotonicity of the weights make the
induction go through).  That comparison principle is what turns an energy
inequality into the decay certificates in :mod:`subdiff.diagnostics`.

The closed-form envelope comes from the Mittag-Leffler module, never from the
discrete marcher: :func:`comparison_check`, the one place it is evaluated,
evaluates ``E_a`` at every node in one array call.  The scalar
:func:`~subdiff.mittag_leffler.mittag_leffler` is imported only for the
benchmark's tracing, which wraps it here; no run calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import DirectHistory, L1Weights, TimeGrid
from .mittag_leffler import TARGET_ABS, _evaluate
from .mittag_leffler import mittag_leffler  # noqa: F401  (bench/tracing.py wraps this name)

__all__ = [
    "solve_relaxation_l1",
    "DecayCertificate",
    "comparison_check",
    "random_subsolution",
]


def _decay_arguments(alpha: float, mu: float, times: np.ndarray) -> np.ndarray:
    """``-mu t^a`` at the nodes of a time grid (never negative), with libm's ``pow`` per
    node: numpy's array ``power`` runs SIMD code on some CPUs that differs from it in the last bit."""
    if mu < 0.0:
        raise ValueError(f"decay rate mu must be nonnegative, got {mu}")
    return -mu * np.array([t**alpha for t in times.tolist()])


def solve_relaxation_l1(alpha: float, mu, v0, grid: TimeGrid, slack=None) -> np.ndarray:
    """March the L1 discretization of the relaxation equation, one history or a batch.

    Step n solves ``w_nn (V_n - V_{n-1}) + H_n + mu V_n = -slack_{n-1}`` from
    ``V_0 = v0``, with ``H_n`` the lagged part of the derivative and ``slack``
    zero by default.  Scalar ``mu`` and ``v0`` march one history (``slack`` of
    shape (M,), result (M+1,)); arrays of shape (B,) march B histories
    (``slack`` (B, M), result (B, M+1)).  ``H_n`` comes from the exact memory
    provider :class:`~subdiff.kernels.DirectHistory`, the one the PDE driver
    marches with, fed the batch's increments as one flat field per step.
    """
    mu = np.asarray(mu, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    M = grid.steps
    slack = np.zeros(mu.shape + (M,)) if slack is None else np.asarray(slack, dtype=float)
    one = mu.ndim == 0 and v0.ndim == 0
    if one:
        mu, v0, slack = mu[None], v0[None], slack[None]
    if slack.ndim != 2 or slack.shape[1] != M:
        raise ValueError(f"slack must have shape (B, {M}), got {slack.shape}")
    B = slack.shape[0]
    if mu.shape != (B,) or v0.shape != (B,):
        raise ValueError(f"mu and v0 must have shape ({B},), got {mu.shape} and {v0.shape}")
    if np.any(mu < 0.0):
        raise ValueError(f"decay rate mu must be nonnegative, got {mu.min()}")
    weights = L1Weights(alpha=alpha, grid=grid)
    history = DirectHistory(weights)
    history.reset((B,))
    V = np.empty((B, M + 1))
    V[:, 0] = v0
    for n in range(1, M + 1):
        w = weights.diag(n)
        V[:, n] = (w * V[:, n - 1] - history.memory_term() - slack[:, n - 1]) / (w + mu)
        history.push(V[:, n] - V[:, n - 1])
    return V[0] if one else V


@dataclass(frozen=True, eq=False)
class DecayCertificate:
    """Verdict of an observed decay history against its relaxation envelope.

    ``passed`` iff ``W_n <= slack * V(t_n)`` at every node ``n >= 1`` with
    ``V(t) = W0 E_a(-mu t^a)``.  ``margins`` stores ``slack * V - W``.
    ``times`` are the time grid's read-only nodes, shared, not copied.

    ``tail_exponent`` is the fitted decay exponent of the L2 *norm*, i.e.
    half the log-log slope of W over the trailing factor-3 window of the
    horizon (W itself decays at twice the norm rate); for f = g = 0 problems
    it approaches ``-alpha``.  The window deliberately avoids the crossover
    zone where the stretched-exponential regime still bends the slope.  NaN
    when the window has fewer than five usable nodes.

    ``ml_max_error_estimate`` is the largest error estimate of the
    Mittag-Leffler evaluations behind the envelope (for ``E_a`` itself, before
    the factor ``w0``), and ``ml_inaccurate`` counts the evaluations flagged
    inaccurate (estimate above the module's advertised tolerance).
    """

    alpha: float
    mu: float
    w0: float
    slack: float
    times: np.ndarray
    observed: np.ndarray
    envelope: np.ndarray
    margins: np.ndarray
    passed: bool
    tail_exponent: float
    ml_max_error_estimate: float
    ml_inaccurate: int

    @property
    def min_margin(self) -> float:
        return float(self.margins.min())


def _fit_tail_exponent(times: np.ndarray, w: np.ndarray) -> float:
    sel = (times >= times[-1] / 3.0) & (w > 1e-290)
    if int(sel.sum()) < 5:
        return float("nan")
    slope = np.polyfit(np.log(times[sel]), np.log(w[sel]), 1)[0]
    return 0.5 * float(slope)


def comparison_check(
    observed: np.ndarray,
    grid: TimeGrid,
    alpha: float,
    mu: float,
    w0: float,
    slack: float = 1.05,
) -> DecayCertificate:
    """Certify ``observed`` against the envelope ``w0 E_a(-mu t^a)``.

    ``observed`` holds W at every grid node (including t = 0).  ``slack``
    must be >= 1; the envelope is evaluated through the Mittag-Leffler
    module, never through the discrete marcher, so the two routes stay
    independent.
    """
    if slack < 1.0:
        raise ValueError(f"slack factor must be >= 1, got {slack}")
    observed = np.asarray(observed, dtype=float)
    if observed.shape != (grid.steps + 1,):
        raise ValueError("observed history must have one value per grid node")
    times = grid.nodes
    ml, ml_errors = _evaluate(alpha, _decay_arguments(alpha, mu, times))
    envelope = w0 * ml
    margins = slack * envelope[1:] - observed[1:]
    passed = bool(np.all(margins >= 0.0))
    return DecayCertificate(
        alpha=alpha,
        mu=mu,
        w0=w0,
        slack=slack,
        times=times,
        observed=observed.copy(),
        envelope=envelope,
        margins=margins,
        passed=passed,
        tail_exponent=_fit_tail_exponent(times[1:], observed[1:]),
        ml_max_error_estimate=float(ml_errors.max()),
        ml_inaccurate=int(np.count_nonzero(ml_errors > TARGET_ABS)),
    )


def random_subsolution(
    alpha: float,
    mu: float,
    grid: TimeGrid,
    rng: np.random.Generator,
    w0: float = 1.0,
) -> np.ndarray:
    """Draw a random admissible sub-solution of the discrete relaxation.

    Builds W with ``(D^a W)_n + mu W_n = -s_n`` for nonnegative random slacks
    ``s_n`` and ``W_0 <= w0`` — exactly the hypotheses of the comparison
    principle.  Used by property tests; the CLI imports it only for the
    benchmark's tracing, since its property sweeps draw every history of a
    pair in one :func:`_subsolution_draws` call and march them as one batch.
    """
    start, slack = _subsolution_draws(rng, w0, grid.steps)
    return solve_relaxation_l1(alpha, mu, start, grid, slack)


def _subsolution_draws(rng: np.random.Generator, w0, steps: int):
    """The random starts ``W_0 <= w0`` and the ``steps`` nonnegative slacks of sub-solutions.

    A scalar ``w0`` gives ``(float, (steps,))``; ``w0`` of shape (B,) gives
    starts (B,) and slacks (B, steps).  Each start is ``w0 - |N(0, 0.1|w0| + 0.01)|``
    and each slack ``|N(0, 0.3(|w0| + 1))| U(0, 1)``, drawn as whole arrays in
    three generator calls: the starts' normals, the slacks' normals, then
    their uniforms.
    """
    w0 = np.asarray(w0, dtype=float)
    start = w0 - np.abs(rng.normal(scale=0.1 * np.abs(w0) + 0.01))
    shape = w0.shape + (steps,)
    slack = np.abs(rng.normal(scale=0.3 * (np.abs(w0[..., None]) + 1.0), size=shape)) * rng.random(shape)
    return (float(start), slack) if w0.ndim == 0 else (start, slack)
