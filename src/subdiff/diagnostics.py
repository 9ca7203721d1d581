"""Certificates and estimators computed from solved trajectories.

Everything here consumes a :class:`~subdiff.solver.Trajectory` after the fact;
nothing feeds back into the stepping.  A finished run is read-only and
carries one record of its per-step L2 and sup norms
(:attr:`Trajectory.norms <subdiff.solver.Trajectory.norms>`): a streamed
run reduced each window of fields to it as it ran, and a full record
computes it once, on first read.  ``norms.tsv`` (:func:`norm_series`), the
boundedness and decay certificates and the weak form's solution scale all
read that one record; none of them reduces the fields again, so they serve
a streamed record, which keeps only a few fields.  The weak form and the
Hoelder estimate read every field and need a full record.  The four
certificates mirror the qualitative theory:

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
  formulation, 12 macro time hats times 12 interior space hats.  The time
  derivative of the memory term moves onto the test hat, so the kernel is
  integrated exactly (``g_{2-a}`` against the interpolant, O(M) per macro
  knot, no reuse of the stepping weights), and the flux term is the
  operator frozen at a stack of time rows applied to them; it reports
  where its worst residual sits.

The decay certificate also carries the accuracy of its Mittag-Leffler
reference values: the largest error estimate and the number of evaluations
flagged inaccurate.

``hoelder_seminorm`` estimates the parabolic Hoelder quotient with
exponents 0.25 in time and 0.5 in space by pair enumeration over at most
1296 space-time samples; it is an observable, not a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma

import numpy as np

from .relaxation import DecayCertificate, comparison_check
from .solver import NormSeries, Trajectory
from .spatial import SpatialGrid, assemble_quasilinear_operator, first_eigenvalue

__all__ = [
    "norm_series",
    "l2_norm",
    "boundedness_report",
    "MaxPrincipleReport",
    "decay_report",
    "convexity_report",
    "MonotoneWeightsReport",
    "HoelderEstimate",
    "hoelder_seminorm",
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


def norm_series(traj: Trajectory) -> NormSeries:
    """The run's per-step L2 and sup norms, ``traj.norms``, reduced once per trajectory."""
    return traj.norms


def _every_field(traj: Trajectory, reader: str) -> np.ndarray:
    """``traj.fields``, after refusing a streamed record, which does not keep them all."""
    if traj.kept is not None:
        raise ValueError(f"{reader} reads every field; this record keeps only steps {traj.kept.tolist()}")
    return traj.fields


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
    rather than reporting a bound the theory does not claim.  Reads the run's
    per-step sup norms (``traj.norms.sup``), not the fields.
    """
    spec = traj.spec
    if spec.source is not None:
        raise ValueError("the sup-norm bound is only certified for runs without forcing")
    bound = max(float(np.max(np.abs(spec.u0))), float(np.max(np.abs(spec.boundary), initial=0.0)))
    sups = traj.norms.sup
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
    produces.  Requires zero source and zero boundary data.  Reads the run's
    per-step energies (``traj.norms.energy``), not the fields.
    """
    spec = traj.spec
    if not spec.has_zero_data():
        raise ValueError("the decay envelope applies to zero forcing and zero boundary data only")
    w = traj.norms.energy
    mu = 2.0 * spec.law.nu * first_eigenvalue(spec.grid)
    return comparison_check(w, spec.time_grid, spec.alpha, mu, w0=float(w[0]), slack=slack)


# ---------------------------------------------------------------------------
# tested-energy convexity


@dataclass(frozen=True)
class MonotoneWeightsReport:
    """Verdict of the weight check behind the convexity inequality.

    ``min_margin`` is the least of ``w_{n,1}`` and the row increments
    ``w_{n,k+1} - w_{n,k}``, each divided by its row's diagonal ``w_{n,n}``;
    ``worst_step`` is the row ``n`` where it occurs.  ``allowance`` is the
    most that rounding can lower a margin below zero
    (:meth:`~subdiff.kernels.L1Weights.margin_allowance`): the check passes
    when every ``w_{n,1}`` is positive and ``min_margin >= -allowance``.
    """

    passed: bool
    min_margin: float
    worst_step: int
    allowance: float


def convexity_report(traj: Trajectory) -> MonotoneWeightsReport:
    """Certify (u_n, D^a u_n)_q >= 1/2 (D^a W)_n, W_n = (u_n, u_n)_q, for every history.

    Abel summation turns the margin into an identity: with
    ``e_k = (u_n - u_k, u_n - u_k)_q``,

        (u_n, D^a u_n)_q - 1/2 (D^a W)_n
            = 1/2 [w_{n,1} e_0 + sum_{k<n} (w_{n,k+1} - w_{n,k}) e_k].

    Every ``e_k`` is nonnegative, so the margin is nonnegative at every step
    of every trajectory exactly when the L1 weights of the run's time grid
    are positive and increase along each row (Alikhanov, Diff. Eq. 46,
    2010).  The check reads those weights, the run's own
    (``traj.weights``, :meth:`L1Weights.row_margins`), not the fields: on
    uniform grids the sequence ``b_j`` and the diagonal table once each,
    O(M); on graded grids the row margins that a direct run's memory walk
    kept from the very slabs it stepped with, and one slab of rows at a time
    for the rows no walk reached (every row of a compressed run, which never
    reads the exact weights).  Ties count as increasing.

    In exact arithmetic the hypothesis holds on every time grid:
    ``w_{n,k}`` is the mean of ``g_{1-a}(t_n - s)``, an increasing function
    of ``s``, over the step ``[t_{k-1}, t_k]``, and the means of an
    increasing function over consecutive intervals increase.  What the scan
    can catch is therefore the rounding of the evaluated weights beyond
    their stated error bound: a cancelling closed form or a wrong slab
    shows up as a decrease along a row, which is how a broken closed form
    for graded grids was once found.  A decrease within the bound
    (:meth:`L1Weights.margin_allowance`, about 9e-15 of the diagonal) passes:
    late rows of a strongly graded grid hold adjacent weights closer than
    their rounding.  A compressed run steps with the step means of a
    positive sum of decaying exponentials, which, like the step means of any
    decreasing kernel, increase along every row on any grid.  A pass says
    the weights keep the inequality, not that the fields are accurate.
    """
    weights = traj.weights
    margins, positive = weights.row_margins()
    worst = int(np.argmin(margins))
    allowance = weights.margin_allowance()
    passed = positive and bool(margins[worst] >= -allowance)
    return MonotoneWeightsReport(passed, float(margins[worst]), worst + 1, allowance)


# ---------------------------------------------------------------------------
# Hoelder quotients


@dataclass(frozen=True)
class HoelderEstimate:
    beta_time: float
    beta_space: float
    value: float
    n_samples: int
    region: str


# the exponents of the reported quotient, the parabolic pairing (time half of space), and its sample cap
_HOELDER_BETA_TIME, _HOELDER_BETA_SPACE = 0.25, 0.5
_HOELDER_SAMPLES = 1296


def _pair_seminorm(times, points, values):
    """Max of |v(p) - v(p')| / (|t - t'|^b1 + |x - x'|^b2) over sample pairs, ``b1, b2`` the Hoelder exponents."""
    P, Q = values.shape
    t = np.repeat(times, Q)
    x = np.tile(points, (P, 1))
    v = values.ravel()
    dt = np.abs(t[:, None] - t[None, :]) ** _HOELDER_BETA_TIME
    dist = np.sqrt(np.maximum(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2), 0.0))
    denom = dt + dist**_HOELDER_BETA_SPACE
    num = np.abs(v[:, None] - v[None, :])
    mask = denom > 0.0
    if not np.any(mask):
        return 0.0
    return float(np.max(num[mask] / denom[mask]))


def _subsample(n, cap):
    if n <= cap:
        return np.arange(n)
    return np.unique(np.round(np.linspace(0, n - 1, cap)).astype(int))


def hoelder_seminorm(traj: Trajectory, region: str = "full") -> HoelderEstimate:
    """Subsampled parabolic Hoelder quotient of the trajectory.

    The exponents are 0.25 in time and 0.5 in space, the parabolic pairing,
    and at most 1296 space-time samples (36 times by 36 nodes) enter the
    pair enumeration.  ``region`` is ``"full"`` (the whole cylinder) or
    ``"interior"`` (spatial interior nodes and t >= horizon / 10, the zone
    where the interior regularity statements live).  Endpoint samples are
    always kept, so the static linear-profile oracle is reproduced exactly.
    The estimate is a lower bound for the true seminorm; it is reported, not
    asserted against.  Needs a full record.
    """
    if region not in ("full", "interior"):
        raise ValueError(f"unknown region {region!r}")
    spec = traj.spec
    pts = spec.grid.points()
    times = traj.times
    vals = _every_field(traj, "the Hoelder estimate")
    if region == "interior":
        keep_x = ~spec.grid.boundary_mask
        keep_t = times >= spec.time_grid.horizon / 10.0  # never empty: the last node is the horizon, T > 0
        pts = pts[keep_x]
        vals = vals[np.ix_(keep_t, keep_x)]
        times = times[keep_t]
    cap_t = int(np.sqrt(_HOELDER_SAMPLES))
    cap_x = _HOELDER_SAMPLES // cap_t
    it = _subsample(times.size, cap_t)
    ix = _subsample(pts.shape[0], cap_x)
    sub_vals = vals[np.ix_(it, ix)]
    value = _pair_seminorm(times[it], pts[ix], sub_vals)
    return HoelderEstimate(
        beta_time=_HOELDER_BETA_TIME,
        beta_space=_HOELDER_BETA_SPACE,
        value=value,
        n_samples=int(it.size * ix.size),
        region=region,
    )


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
# macro time cells and tested interior nodes of the weak form: 12 x 12 test hats
_TIME_TESTS, _SPACE_TESTS = 12, 12
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


def weakform_residual(traj: Trajectory, threshold: float = 1e-2) -> WeakformReport:
    """Test the trajectory against interior space-time test functions.

    The test functions are tensor hats ``phi_i`` in space, at up to 12 interior
    nodes spread over the grid, and piecewise-linear hats ``theta`` on a
    *macroscopic* time grid of 12 cells whose width does not shrink with the
    step count.  For each pair the residual

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
    by test mass, test duration, and the solution scale ``max_n ||u_n||_inf``,
    read off ``traj.norms.sup``.  Keeping the test
    width fixed matters: the L1 kink defect near t = 0 is self-similar and
    O(1) pointwise on any mesh, but its integral against a fixed test
    function vanishes under refinement, which is exactly the convergence the
    associated tests pin down.  Needs a full record.
    """
    spec = traj.spec
    tg = spec.time_grid
    grid = spec.grid
    M = tg.steps
    U = _every_field(traj, "the weak form")
    t = tg.nodes
    tau = tg.tau
    q_lump = float(np.prod(grid.spacing))
    interior = grid.interior_indices()

    # macro knots at (nearly) equispaced physical times, snapped to grid nodes
    targets = np.linspace(0.0, t[-1], _TIME_TESTS + 1)
    knots = np.unique(np.searchsorted(t, targets).clip(0, M))
    if knots.size < 3:
        raise ValueError("the time grid is too coarse for the requested macro test grid")
    sel = interior[_subsample(interior.size, _SPACE_TESTS)]
    scale = max(float(np.max(traj.norms.sup)), 1e-300)

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
