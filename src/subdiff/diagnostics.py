"""Certificates and estimators computed from solved trajectories.

Everything here consumes a :class:`~subdiff.solver.Trajectory` after the fact;
nothing feeds back into the stepping.  The four certificates mirror the
qualitative theory:

* ``convexity_report``: the tested-energy inequality
  (u_n, D^a u_n) >= 1/2 (D^a ||u||^2)_n holds with margins bounded below by an
  explicit roundoff allowance.
* ``boundedness_report``: discrete maximum principle for zero forcing.
* ``decay_report``: the squared L2 norm stays under a Mittag-Leffler
  relaxation envelope with rate 2 nu lambda_1.
* ``weakform_residual``: the trajectory, re-read as a piecewise-linear
  interpolant, nearly annihilates discrete test functions in the weak
  formulation (kernel convolution integrated exactly, no reuse of the
  stepping weights).

``hoelder_seminorm`` estimates parabolic Hoelder quotients by subsampled
pair enumeration; it is an observable, not a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma

import numpy as np

from .kernels import ConvexityReport, L1Weights, tested_convexity
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


def convexity_report(traj: Trajectory) -> ConvexityReport:
    """Margins of (u_n, D^a u_n)_h - 1/2 (D^a W)_n >= 0 along the trajectory.

    This is the quadrature-weighted combination of the scalar convexity
    inequality at every node, so it inherits nonnegativity up to roundoff;
    the returned roundoff allowance scales with the gross sums actually
    accumulated.  Strong-form margins (with the extra 1/2 g_{1-a}(t_n) W_n
    term) are measured and reported but never asserted.
    """
    spec = traj.spec
    weights = L1Weights(alpha=spec.alpha, grid=spec.time_grid)
    return tested_convexity(weights, traj.fields, spec.grid.quadrature_weights(), charge_levels=True)


# ---------------------------------------------------------------------------
# Hoelder quotients


@dataclass(frozen=True)
class HoelderEstimate:
    beta_time: float
    beta_space: float
    value: float
    n_samples: int
    region: str


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
    max_scaled_residual: float
    threshold: float
    n_time_tests: int
    n_space_tests: int
    scale: float
    passed: bool


def _hat_mass(grid: SpatialGrid, field_2d: np.ndarray) -> np.ndarray:
    """(v, phi_i) for every node i, exact for tensor piecewise-linear hats."""
    out = field_2d.reshape(grid.shape).copy()
    for axis, h in enumerate(grid.spacing):
        lo = np.roll(out, 1, axis=axis)
        hi = np.roll(out, -1, axis=axis)
        # one-sided halves at the ends of the axis
        sl_first = [slice(None)] * out.ndim
        sl_first[axis] = 0
        sl_last = [slice(None)] * out.ndim
        sl_last[axis] = -1
        lo[tuple(sl_first)] = 0.0
        hi[tuple(sl_last)] = 0.0
        out = (h / 6.0) * (lo + 4.0 * out + hi)
    return out.ravel()


def _convolved_history(traj: Trajectory) -> np.ndarray:
    """G_n = (g_{1-a} * (u - u0))(t_n), exact for the linear-in-time interpolant."""
    spec = traj.spec
    alpha = spec.alpha
    t = spec.time_grid.nodes
    tau = spec.time_grid.tau
    U = traj.fields
    M = spec.time_grid.steps
    u0 = U[0]
    dU = np.diff(U, axis=0)
    c2 = gamma(2.0 - alpha)
    c3 = gamma(3.0 - alpha)
    G = np.zeros_like(U)
    for n in range(1, M + 1):
        a = t[n] - t[: n + 1]
        g2 = a ** (1.0 - alpha) / c2
        g3 = a ** (2.0 - alpha) / c3
        j0 = g2[:-1] - g2[1:]
        j1 = a[:-1] * j0 - (1.0 - alpha) * (g3[:-1] - g3[1:])
        G[n] = j0 @ (U[:n] - u0) + (j1 / tau[:n]) @ dU[:n]
    return G


def weakform_residual(
    traj: Trajectory,
    threshold: float = 1e-2,
    n_time_tests: int = 12,
    n_space_tests: int = 12,
    fields: np.ndarray | None = None,
) -> WeakformReport:
    """Test the trajectory against interior space-time test functions.

    The test functions are tensor hats in space and piecewise-linear hats on
    a *macroscopic* time grid of ``n_time_tests`` cells whose width does not
    shrink with the step count.  For each pair the residual

        -int theta' (G, phi_i) + int theta (a(u) grad u, grad phi_i)
        - int theta (f, phi_i)

    is evaluated with the kernel convolution G integrated exactly for the
    piecewise-linear interpolant and the remaining time integrals by rules
    exact for products of linears on the step grid.  Residuals are scaled by
    test mass, test duration, and the solution scale.  Keeping the test
    width fixed matters: the L1 kink defect near t = 0 is self-similar and
    O(1) pointwise on any mesh, but its integral against a fixed test
    function vanishes under refinement, which is exactly the convergence
    the associated tests pin down.

    ``fields`` substitutes an alternative field history of the same shape
    (the corruption-sensitivity hook); everything else comes from ``traj``.
    """
    spec = traj.spec
    tg = spec.time_grid
    grid = spec.grid
    M = tg.steps
    if n_time_tests < 2:
        raise ValueError("need at least 2 macro time cells")
    work = traj
    if fields is not None:
        fields = np.asarray(fields, dtype=float)
        if fields.shape != traj.fields.shape:
            raise ValueError("substitute fields must match the trajectory shape")
        work = Trajectory(
            spec=spec,
            options=traj.options,
            fields=fields,
            iterations=traj.iterations,
            halvings=traj.halvings,
            residuals=traj.residuals,
            timings=traj.timings,
        )
    U = work.fields
    t = tg.nodes
    tau = tg.tau
    points = grid.points()
    q_lump = float(np.prod(grid.spacing))
    interior = np.flatnonzero(~grid.boundary_mask)

    # macro knots at (nearly) equispaced physical times, snapped to grid nodes
    targets = np.linspace(0.0, t[-1], n_time_tests + 1)
    knots = np.unique(np.searchsorted(t, targets).clip(0, M))
    if knots.size < 3:
        raise ValueError("the time grid is too coarse for the requested macro test grid")

    G = _convolved_history(work)
    m = np.stack([_hat_mass(grid, G[n]) for n in range(M + 1)])

    S = np.empty_like(U)
    F = np.zeros_like(U)
    for n in range(M + 1):
        A = assemble_quasilinear_operator(grid, spec.law, U[n])
        S[n] = q_lump * (A @ U[n])
        f_n = spec.source_at(n, points)
        if f_n is not None:
            F[n] = q_lump * f_n

    sel = interior[_subsample(interior.size, n_space_tests)]
    scale = max(float(np.max(np.abs(U))), 1e-300)

    worst = 0.0
    for j in range(1, knots.size - 1):
        ta, tb, tc = t[knots[j - 1]], t[knots[j]], t[knots[j + 1]]
        theta = np.interp(t, [ta, tb, tc], [0.0, 1.0, 0.0], left=0.0, right=0.0)
        dtheta = np.diff(theta)
        # -int theta' (G, phi) dt, trapezoid in each step (theta' constant there)
        term1 = -0.5 * ((m[:-1, sel] + m[1:, sel]) * dtheta[:, None]).sum(axis=0)
        # int theta S dt and int theta F dt, exact for linear S and theta per step
        wa = tau * (2.0 * theta[:-1] + theta[1:]) / 6.0
        wb = tau * (theta[:-1] + 2.0 * theta[1:]) / 6.0
        body = wa @ S[:-1, sel] + wb @ S[1:, sel]
        load = wa @ F[:-1, sel] + wb @ F[1:, sel]
        dur = float(tau @ (theta[:-1] + theta[1:])) / 2.0
        resid = np.abs(term1 + body - load) / (q_lump * dur * scale)
        worst = max(worst, float(resid.max()))
    return WeakformReport(
        max_scaled_residual=worst,
        threshold=threshold,
        n_time_tests=int(knots.size - 2),
        n_space_tests=int(sel.size),
        scale=scale,
        passed=bool(worst <= threshold),
    )
