"""Certificates and estimators computed from solved trajectories.

Everything here consumes a :class:`~subdiff.solver.Trajectory` after the fact;
nothing feeds back into the stepping.  The four certificates mirror the
qualitative theory:

* ``convexity_report``: the tested-energy inequality
  (u_n, D^a u_n) >= 1/2 (D^a ||u||^2)_n holds for every history of the run's
  time grid.  By Abel summation that is true exactly when the L1 weights are
  positive and increase along each row, so the certificate checks the
  weights, not the fields.
* ``boundedness_report``: discrete maximum principle for zero forcing.
* ``decay_report``: the squared L2 norm stays under a Mittag-Leffler
  relaxation envelope with rate 2 nu lambda_1.
* ``weakform_residual``: the trajectory, re-read as a piecewise-linear
  interpolant, nearly annihilates discrete test functions in the weak
  formulation.  The time derivative of the memory term moves onto the test
  hat, so the kernel is integrated exactly (``g_{2-a}`` against the
  interpolant, O(M) per macro knot, no reuse of the stepping weights), and
  the flux term is the operator frozen at a stack of time rows applied to
  them; it reports where its worst residual sits.

The decay certificate also carries the accuracy of its Mittag-Leffler
reference values: the largest error estimate and the number of evaluations
flagged inaccurate.

``hoelder_seminorm`` estimates parabolic Hoelder quotients by subsampled
pair enumeration; it is an observable, not a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma

import numpy as np

from .kernels import L1Weights
from .relaxation import DecayCertificate, comparison_check
from .solver import Trajectory
from .spatial import SpatialGrid, assemble_quasilinear_operator, first_eigenvalue

__all__ = [
    "NormSeries",
    "norm_series",
    "l2_norm",
    "boundedness_report",
    "MaxPrincipleReport",
    "decay_report",
    "convexity_report",
    "MonotoneWeightsReport",
    "HoelderEstimate",
    "hoelder_seminorm",
    "hoelder_field",
    "WeakformReport",
    "weakform_residual",
]


# ---------------------------------------------------------------------------
# norms


def l2_norm(grid: SpatialGrid, values: np.ndarray) -> float:
    """Trapezoid L2 norm of nodal values over the grid."""
    q = grid.quadrature_weights()
    v = np.asarray(values, dtype=float).ravel()
    return float(np.sqrt(q @ (v * v)))


@dataclass(frozen=True)
class NormSeries:
    times: np.ndarray
    l2: np.ndarray
    sup: np.ndarray

    @property
    def energy(self) -> np.ndarray:
        """W_n = ||u_n||_{L2}^2, the quantity the decay theory controls."""
        return self.l2 * self.l2


def norm_series(traj: Trajectory) -> NormSeries:
    q = traj.spec.grid.quadrature_weights()
    U = traj.fields
    l2 = np.sqrt(np.einsum("ni,i,ni->n", U, q, U))
    sup = np.max(np.abs(U), axis=1)
    return NormSeries(times=traj.times.copy(), l2=l2, sup=sup)


# ---------------------------------------------------------------------------
# maximum principle


@dataclass(frozen=True)
class MaxPrincipleReport:
    bound: float
    max_sup: float
    arg_step: int
    tol: float
    passed: bool


def boundedness_report(traj: Trajectory, tol: float = 1e-12) -> MaxPrincipleReport:
    """Certify sup_n ||u_n||_inf <= max(||u0||_inf, ||g||_inf) + tol.

    Only meaningful without forcing; refuses trajectories with a source term
    rather than reporting a bound the theory does not claim.
    """
    spec = traj.spec
    if spec.source is not None and (callable(spec.source) or np.any(np.asarray(spec.source) != 0.0)):
        raise ValueError("the sup-norm bound is only certified for runs without forcing")
    g = spec.boundary_values()
    bound = max(float(np.max(np.abs(spec.u0))), float(np.max(np.abs(g), initial=0.0)))
    sups = np.max(np.abs(traj.fields), axis=1)
    arg = int(np.argmax(sups))
    return MaxPrincipleReport(
        bound=bound,
        max_sup=float(sups[arg]),
        arg_step=arg,
        tol=tol,
        passed=bool(sups[arg] <= bound + tol),
    )


# ---------------------------------------------------------------------------
# Mittag-Leffler decay


def decay_report(traj: Trajectory, slack: float = 1.05) -> DecayCertificate:
    """Check W_n <= slack * W_0 E_a(-2 nu lambda_1 t_n^a) along the run.

    The rate uses the continuous Poincare constant of the box and the lower
    ellipticity bound of the law, exactly the pairing the energy argument
    produces.  Requires zero source and zero boundary data.
    """
    spec = traj.spec
    if not spec.has_zero_data():
        raise ValueError("the decay envelope applies to zero forcing and zero boundary data only")
    series = norm_series(traj)
    w = series.energy
    mu = 2.0 * spec.law.nu * first_eigenvalue(spec.grid)
    return comparison_check(w, spec.time_grid, spec.alpha, mu, w0=float(w[0]), slack=slack)


# ---------------------------------------------------------------------------
# tested-energy convexity


@dataclass(frozen=True)
class MonotoneWeightsReport:
    """Verdict of the weight check behind the convexity inequality.

    ``min_margin`` is the least of ``w_{n,1}`` and the row increments
    ``w_{n,k+1} - w_{n,k}``, each divided by its row's diagonal ``w_{n,n}``;
    ``worst_step`` is the row ``n`` where it occurs.
    """

    passed: bool
    min_margin: float
    worst_step: int


def convexity_report(traj: Trajectory) -> MonotoneWeightsReport:
    """Certify (u_n, D^a u_n)_q >= 1/2 (D^a W)_n, W_n = (u_n, u_n)_q, for every history.

    Abel summation turns the margin into an identity: with
    ``e_k = (u_n - u_k, u_n - u_k)_q``,

        (u_n, D^a u_n)_q - 1/2 (D^a W)_n
            = 1/2 [w_{n,1} e_0 + sum_{k<n} (w_{n,k+1} - w_{n,k}) e_k].

    Every ``e_k`` is nonnegative, so the margin is nonnegative at every step
    of every trajectory exactly when the L1 weights of the run's time grid
    are positive and increase along each row (Alikhanov, Diff. Eq. 46,
    2010).  The check reads those weights, one block of rows at a time, and
    not the fields.  Ties count as increasing.

    In exact arithmetic the hypothesis holds on every time grid:
    ``w_{n,k}`` is the mean of ``g_{1-a}(t_n - s)``, an increasing function
    of ``s``, over the step ``[t_{k-1}, t_k]``, and the means of an
    increasing function over consecutive intervals increase.  What the scan
    can catch is therefore the rounding of the evaluated weights: a
    cancelling closed form or a wrong slab shows up as a decrease along a
    row, which is how a broken closed form for graded grids was once found.
    The scan reads the exact L1 weights; a compressed run steps with the step
    means of a positive sum of decaying exponentials, which, like the step
    means of any decreasing kernel, increase along every row on any grid.  A
    pass says the weights keep the inequality, not that the fields are accurate.
    """
    tg = traj.spec.time_grid
    scores = np.empty(tg.steps)
    positive = True
    for n0, n1, w in L1Weights(alpha=traj.spec.alpha, grid=tg).blocks(tg.steps):
        n = np.arange(n0, n1)
        # increments w_{n,k+1} - w_{n,k} for k < n; the zeros above the diagonal are masked
        inc = np.where(np.arange(n1 - 2) < n[:, None] - 1, np.diff(w, axis=1), np.inf)
        positive &= bool(np.all(w[:, 0] > 0.0))
        scores[n0 - 1 : n1 - 1] = np.minimum(w[:, 0], inc.min(axis=1, initial=np.inf)) / w[n - n0, n - 1]
    worst = int(np.argmin(scores))
    return MonotoneWeightsReport(positive and bool(scores[worst] >= 0.0), float(scores[worst]), worst + 1)


# ---------------------------------------------------------------------------
# Hoelder quotients


@dataclass(frozen=True)
class HoelderEstimate:
    beta_time: float
    beta_space: float
    value: float
    n_samples: int
    region: str

    # an observable: reported, never accepted or refused
    passed = None
    note = "observable, no acceptance threshold"


def _pair_seminorm(times, points, values, beta_time, beta_space):
    """Max of |v(p) - v(p')| / (|t - t'|^b1 + |x - x'|^b2) over sample pairs."""
    P, Q = values.shape
    t = np.repeat(times, Q)
    x = np.tile(points, (P, 1))
    v = values.ravel()
    dt = np.abs(t[:, None] - t[None, :]) ** beta_time if beta_time > 0 else (t[:, None] != t[None, :]).astype(float)
    dist = np.sqrt(np.maximum(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2), 0.0))
    denom = dt + dist**beta_space
    num = np.abs(v[:, None] - v[None, :])
    mask = denom > 0.0
    if not np.any(mask):
        return 0.0
    return float(np.max(num[mask] / denom[mask]))


def _subsample(n, cap):
    if n <= cap:
        return np.arange(n)
    idx = np.unique(np.round(np.linspace(0, n - 1, cap)).astype(int))
    return idx


def hoelder_seminorm(
    traj: Trajectory,
    beta_time: float,
    beta_space: float,
    max_samples: int = 1296,
    region: str = "full",
) -> HoelderEstimate:
    """Subsampled parabolic Hoelder quotient of the trajectory.

    ``region`` is ``"full"`` (the whole cylinder) or ``"interior"`` (spatial
    interior nodes and t >= horizon / 10, the zone where the interior
    regularity statements live).  Endpoint samples are always kept, so the
    static linear-profile oracle is reproduced exactly.  The estimate is a
    lower bound for the true seminorm; it is reported, not asserted against.
    """
    if region not in ("full", "interior"):
        raise ValueError(f"unknown region {region!r}")
    if not 0.0 <= beta_time <= 1.0 or not 0.0 <= beta_space <= 1.0:
        raise ValueError(
            f"Hoelder exponents must lie in [0, 1], got ({beta_time}, {beta_space})"
        )
    spec = traj.spec
    pts = spec.grid.points()
    times = traj.times
    vals = traj.fields
    if region == "interior":
        keep_x = ~spec.grid.boundary_mask
        keep_t = times >= times[-1] / 10.0
        if not np.any(keep_t):
            keep_t = np.ones_like(keep_t, dtype=bool)
        pts = pts[keep_x]
        vals = vals[np.ix_(keep_t, keep_x)]
        times = times[keep_t]
    cap_t = max(2, int(np.sqrt(max_samples)))
    cap_x = max(2, max_samples // cap_t)
    it = _subsample(times.size, cap_t)
    ix = _subsample(pts.shape[0], cap_x)
    sub_vals = vals[np.ix_(it, ix)]
    value = _pair_seminorm(times[it], pts[ix], sub_vals, beta_time, beta_space)
    return HoelderEstimate(
        beta_time=beta_time,
        beta_space=beta_space,
        value=value,
        n_samples=int(it.size * ix.size),
        region=region,
    )


def hoelder_field(grid: SpatialGrid, values: np.ndarray, beta_space: float, max_samples: int = 1296) -> float:
    """Spatial Hoelder quotient of a single field (no time axis)."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size != grid.n_nodes:
        raise ValueError("values do not match the grid")
    if not 0.0 <= beta_space <= 1.0:
        raise ValueError(f"Hoelder exponent must lie in [0, 1], got {beta_space}")
    ix = _subsample(grid.n_nodes, max_samples)
    return _pair_seminorm(np.zeros(1), grid.points()[ix], values[ix][None, :], 1.0, beta_space)


# ---------------------------------------------------------------------------
# weak-form residual


@dataclass(frozen=True)
class WeakformReport:
    """Worst scaled residual over the space-time test functions.

    ``worst_time`` is the peak knot ``t`` of the time hat and ``worst_node``
    the flattened grid index of the space hat where the worst residual sits.
    ``near_worst_nodes`` lists, in ascending order, every tested node whose
    worst residual over the time hats is within ``1e-6`` relative of
    ``max_scaled_residual``: ``worst_node`` and any node tied with it up to
    roundoff, between which the argmax may pick on a roundoff-level change.
    """

    max_scaled_residual: float
    threshold: float
    n_time_tests: int
    n_space_tests: int
    scale: float
    passed: bool
    worst_time: float
    worst_node: int
    near_worst_nodes: tuple[int, ...]


# 8-point Gauss-Legendre rule on [0, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)
_GL_X, _GL_W = 0.5 * (_GL_X + 1.0), 0.5 * _GL_W
# the closed form serves steps with tau >= _CLOSED_FORM_RATIO * b (b: distance of the step from the knot)
_CLOSED_FORM_RATIO = 0.1
# a tested node whose worst residual is within this relative distance of the maximum is reported as near-worst
_NEAR_WORST_RTOL = 1e-6
# rows of stacked fields per vectorised flux pass: about 2^16 values, so temporaries stay small
_BLOCK_VALUES = 2**16


def _step_integrals(p: float, a: np.ndarray, b: np.ndarray, tau: np.ndarray):
    """Integrals of ``g_p(T - s)`` against the two linear nodal hats of each step.

    The step ``[t_k, t_k + tau]`` lies at ``a = T - t_k``, ``b = T - t_{k+1}``
    from ``T``.  Returns ``(left, right)``, the weights of the step's left and
    right node values:

        left  = tau int_0^1 g_p(b + tau x) x dx,
        right = tau int_0^1 g_p(b + tau x) (1 - x) dx.

    The closed form in ``g_{p+1}`` and ``g_{p+2}`` differences cancels
    catastrophically when ``tau`` is tiny next to ``b`` (graded grids near
    t = 0), so those steps use 8-point Gauss-Legendre in ``x`` instead; the
    integrand is analytic there, with its singularity at ``x <= -1/ratio``.
    """
    left = np.empty_like(tau)
    right = np.empty_like(tau)
    near = tau >= _CLOSED_FORM_RATIO * b  # includes b = 0, the singular end
    an, bn, tn = a[near], b[near], tau[near]
    d1 = (an**p - bn**p) / gamma(p + 1.0)  # g_{p+1}(a) - g_{p+1}(b)
    d2 = p * (an ** (p + 1.0) - bn ** (p + 1.0)) / gamma(p + 2.0)  # p (g_{p+2}(a) - g_{p+2}(b))
    left[near] = (d2 - bn * d1) / tn
    right[near] = (an * d1 - d2) / tn
    far = ~near
    bf, tf = b[far], tau[far]
    f = (bf[:, None] + tf[:, None] * _GL_X) ** (p - 1.0) * (_GL_W / gamma(p))
    left[far] = tf * (f @ _GL_X)
    right[far] = tf * (f @ (1.0 - _GL_X))
    return left, right


def _knot_weights(alpha: float, nodes: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """Rows ``c`` with ``(g_{2-a} * w)(t_K) = c @ w`` for every knot index ``K``.

    Exact (up to rounding) for ``w`` linear on every step of ``nodes``; row
    ``K`` is zero beyond column ``K``.  Uses no L1 weights.
    """
    p = 2.0 - alpha
    C = np.zeros((len(knots), nodes.size))
    for row, K in zip(C, knots):
        T = nodes[K]
        left, right = _step_integrals(p, T - nodes[:K], T - nodes[1 : K + 1], np.diff(nodes[: K + 1]))
        row[:K] += left
        row[1 : K + 1] += right
    return C


def _hat_mass(grid: SpatialGrid, fields: np.ndarray) -> np.ndarray:
    """(v, phi_i) for every node i and every row v of ``fields`` ``(S, n_nodes)``, exact for tensor hats."""
    out = fields.reshape((-1,) + grid.shape)
    for axis, h in enumerate(grid.spacing, start=1):
        # zero-padded neighbours: one-sided halves at the ends of the axis
        pad = [(0, 0)] * out.ndim
        pad[axis] = (1, 1)
        padded = np.pad(out, pad)
        n = out.shape[axis]
        out = (h / 6.0) * (padded.take(range(n), axis) + 4.0 * out + padded.take(range(2, n + 2), axis))
    return out.reshape(fields.shape)


def weakform_residual(
    traj: Trajectory,
    threshold: float = 1e-2,
    n_time_tests: int = 12,
    n_space_tests: int = 12,
) -> WeakformReport:
    """Test the trajectory against interior space-time test functions.

    The test functions are tensor hats ``phi_i`` in space and piecewise-linear
    hats ``theta`` on a *macroscopic* time grid of ``n_time_tests`` cells whose
    width does not shrink with the step count.  For each pair the residual

        -int theta' (G, phi_i) + int theta (a(u) grad u, grad phi_i)
        - int theta (f, phi_i),     G = g_{1-a} * (u - u0),

    is evaluated for the piecewise-linear-in-time interpolant of the
    trajectory.  The memory term moves onto the test hat: with knots
    ``T_0 < T_1 < T_2`` and ``d_j`` the jumps of ``theta'`` (they sum to 0),
    Fubini gives

        -int theta' (G, phi_i) dt = sum_j d_j (g_{2-a} * (u - u0, phi_i))(T_j),

    so only the distinct knots need the convolution.  Each is an exact
    integral of the kernel against the interpolant: closed form in
    ``g_{3-a}`` and ``g_{4-a}`` where a step is not short next to its
    distance ``b`` from the knot (``tau >= 0.1 b``), 8-point Gauss-Legendre
    elsewhere, where the closed form would cancel; the mass ``(., phi_i)``
    is exact for tensor hats.  No L1 weight is used, so the certificate
    audits the stepper independently.  The flux and load terms come from
    face fluxes of a block of time rows at a time, the operator of
    :func:`~subdiff.spatial.assemble_quasilinear_operator` frozen at the
    stacked rows applied to them, and are integrated against ``theta`` by
    the rule exact for products of linears on each step.  Residuals are scaled
    by test mass, test duration, and the solution scale.  Keeping the test
    width fixed matters: the L1 kink defect near t = 0 is self-similar and
    O(1) pointwise on any mesh, but its integral against a fixed test
    function vanishes under refinement, which is exactly the convergence the
    associated tests pin down.
    """
    spec = traj.spec
    tg = spec.time_grid
    grid = spec.grid
    M = tg.steps
    if n_time_tests < 2:
        raise ValueError("need at least 2 macro time cells")
    U = traj.fields
    t = tg.nodes
    tau = tg.tau
    q_lump = float(np.prod(grid.spacing))
    interior = grid.interior_indices()

    # macro knots at (nearly) equispaced physical times, snapped to grid nodes
    targets = np.linspace(0.0, t[-1], n_time_tests + 1)
    knots = np.unique(np.searchsorted(t, targets).clip(0, M))
    if knots.size < 3:
        raise ValueError("the time grid is too coarse for the requested macro test grid")
    sel = interior[_subsample(interior.size, n_space_tests)]
    scale = max(float(np.max(np.abs(U))), 1e-300)

    # H[k] = (g_{2-a} * (u - u0, phi_i))(t at knot k)
    H = _hat_mass(grid, _knot_weights(spec.alpha, t, knots) @ (U - U[0]))[:, sel]
    # (a(u) grad u, grad phi_i) - (f, phi_i) at every time node, lumped
    rows = max(1, _BLOCK_VALUES // grid.n_nodes)
    blocks = [U[n : n + rows] for n in range(0, M + 1, rows)]
    flux = np.concatenate([(assemble_quasilinear_operator(grid, spec.law, B) @ B)[:, sel] for B in blocks])
    if spec.source is not None:
        points = grid.points()
        flux -= np.stack([spec.source_at(n, points)[sel] for n in range(M + 1)])
    flux *= q_lump

    resid = np.empty((knots.size - 2, sel.size))
    for j in range(1, knots.size - 1):
        ta, tb, tc = t[knots[j - 1 : j + 2]]
        theta = np.interp(t, [ta, tb, tc], [0.0, 1.0, 0.0])
        jumps = np.array([1.0 / (tb - ta), -1.0 / (tb - ta) - 1.0 / (tc - tb), 1.0 / (tc - tb)])
        memory = jumps @ H[j - 1 : j + 2]
        # int theta (flux - load) dt, exact for linear integrands and theta per step
        wa = tau * (2.0 * theta[:-1] + theta[1:]) / 6.0
        wb = tau * (theta[:-1] + 2.0 * theta[1:]) / 6.0
        body = wa @ flux[:-1] + wb @ flux[1:]
        resid[j - 1] = np.abs(memory + body) / (q_lump * 0.5 * (tc - ta) * scale)
    hat, node = np.unravel_index(np.argmax(resid), resid.shape)
    worst = float(resid[hat, node])
    near = sel[resid.max(axis=0) >= (1.0 - _NEAR_WORST_RTOL) * worst]
    return WeakformReport(
        max_scaled_residual=worst,
        threshold=threshold,
        n_time_tests=int(knots.size - 2),
        n_space_tests=int(sel.size),
        scale=scale,
        passed=bool(worst <= threshold),
        worst_time=float(t[knots[hat + 1]]),
        worst_node=int(sel[node]),
        near_worst_nodes=tuple(int(i) for i in near),
    )
