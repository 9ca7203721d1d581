"""One-parameter Mittag-Leffler function on the real line.

``E_a(z) = sum_k z^k / Gamma(a k + 1)`` for ``a in (0, 1]``, evaluated in
double precision with an honest per-call error estimate.  ``a = 1`` is
``exp``; ``z > 0`` sums the power series, whose terms are all positive.

Negative arguments are the primary use case (relaxation envelopes).  There
one rule covers the whole axis: ``E_a(-x)`` is the inverse Laplace transform
of ``s^(a-1) / (s^a + x)`` at ``t = 1``,

    E_a(-x) = 1/(2 pi i) int_C exp(s) s^(a-1) / (s^a + x) ds,

and for ``0 < a < 1`` that transform is analytic off the cut along the
negative real axis (``s^a + x`` has no zero on the principal sheet).  The
trapezoidal rule with ``N`` midpoint nodes on the parabolic contour
``s(theta) = N (0.1309 - 0.1194 theta^2 + 0.25 i theta)``, ``|theta| < pi``,
converges like ``2.85^-N`` (Trefethen, Weideman & Schmelzer, BIT 46, 2006;
Garrappa, SINUM 53, 2015).  The nodes are fixed, so the rule and its
weights are built once at import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import rgamma

__all__ = ["MLEval", "mittag_leffler", "ml_values", "TailReport", "ml_tail_bound"]

_EPS = float(np.finfo(float).eps)
#: the accuracy the module promises on z in [-1e6, 0]
TARGET_ABS = 1e-10

#: contour nodes; 2.85^-32 is about 3e-15
_CONTOUR_N = 32
# the node at -theta carries minus the conjugate of the term at theta, so the
# rule 1/(i N) sum_k e^s s'(theta) F(s) is (2/N) Im of its sum over theta > 0;
# with s'(theta) = N (0.25 i - 0.2388 theta) the weight is 2 e^s (0.25 i - 0.2388 theta)
_THETA = np.pi * (2.0 * np.arange(_CONTOUR_N // 2) + 1.0) / _CONTOUR_N
_NODES = _CONTOUR_N * (0.1309 - 0.1194 * _THETA**2 + 0.25j * _THETA)
_WEIGHTS = 2.0 * np.exp(_NODES) * (0.25j - 0.2388 * _THETA)
_LOG_S = np.log(_NODES)
# discretisation error plus the roundoff of the node sums, per unit of sum |terms|
_CONTOUR_REL = 2.85**-_CONTOUR_N + 16.0 * _EPS


@dataclass(frozen=True)
class MLEval:
    """One evaluation: value, method used, and a conservative error estimate.

    ``method`` is ``"exp"`` for ``alpha = 1``, ``"series"`` for ``z >= 0``
    and ``"integral"`` (the contour rule) for ``z < 0``.
    ``error_estimate`` bounds the absolute error of ``value``: on ``z < 0``
    it is ``(2.85^-N + 16 eps)`` times the sum of the absolute values of the
    rule's terms, which covers its discretisation error and the roundoff of
    the sum; on the series it covers the roundoff of the largest term and
    the first term left out.  ``accurate`` is False when the estimate exceeds
    ``TARGET_ABS``; callers get the value either way.
    """

    alpha: float
    z: float
    value: float
    method: str
    error_estimate: float
    accurate: bool


def _series(alpha: float, z: float):
    """Power series with max-term tracking; None if it cannot be trusted."""
    total = 1.0
    maxterm = 1.0
    log_az = math.log(abs(z))
    for k in range(1, 2000):
        if k * log_az > 690.0:
            return None
        term = z**k * rgamma(alpha * k + 1.0)
        total += term
        a = abs(term)
        if a > maxterm:
            maxterm = a
        if a < 1e-18 * max(1.0, abs(total)) and alpha * k > 2.0:
            est = 4.0 * (k + 1) * _EPS * maxterm + a
            return total, est
    return None


def _series_positive(alpha: float, z: float):
    """Log-space series for z > 0, immune to overflow of intermediate powers.

    All terms are positive, so there is no cancellation; the estimate only
    has to cover the lgamma/exp roundoff of each term, which scales with the
    term's log magnitude.
    """
    log_z = math.log(z)
    logs = [0.0]
    biggest_log = 0.0
    k = 1
    while True:
        lk = k * log_z - math.lgamma(alpha * k + 1.0)
        logs.append(lk)
        biggest_log = max(biggest_log, abs(k * log_z) + abs(lk - k * log_z))
        if alpha * k > 2.0 and lk < max(logs) - 45.0:
            break
        k += 1
        if k > 20000:
            raise OverflowError(f"series for E_{alpha}({z:g}) did not converge")
    shift = max(logs)
    total = math.exp(shift) * math.fsum(math.exp(l - shift) for l in logs)
    est = total * _EPS * (4.0 * len(logs) + 2.0 * biggest_log)
    return total, est


def _contour(alpha: float, x: float):
    """Trapezoidal rule on the parabolic Bromwich contour for E_a(-x), x > 0."""
    s_alpha = np.exp(alpha * _LOG_S)
    terms = _WEIGHTS * s_alpha / (_NODES * (s_alpha + x))
    value = float(terms.sum().imag)
    return value, _CONTOUR_REL * float(np.abs(terms).sum())


def mittag_leffler(alpha: float, z: float) -> MLEval:
    """Evaluate ``E_alpha(z)`` for real ``z`` and ``alpha in (0, 1]``.

    Raises ``ValueError`` for alpha outside (0, 1] or non-real z, and
    ``OverflowError`` for positive z outside the overflow-safe range.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if isinstance(z, complex) or not math.isfinite(float(z)):
        raise ValueError(f"z must be a finite real number, got {z!r}")
    z = float(z)

    if alpha == 1.0:
        v = math.exp(z)
        return MLEval(alpha, z, v, "exp", 4.0 * _EPS * max(abs(v), 1.0), True)
    if z == 0.0:
        return MLEval(alpha, z, 1.0, "series", 0.0, True)
    if z > 0.0:
        if z ** (1.0 / alpha) > 690.0:
            raise OverflowError(f"E_{alpha}({z:g}) exceeds the double range")
        r = _series(alpha, z)
        if r is None:
            # the direct powers overflowed before the terms decayed (small
            # alpha with moderate z); the log-space form is always available
            r = _series_positive(alpha, z)
        return MLEval(alpha, z, r[0], "series", r[1], r[1] <= TARGET_ABS)

    v, e = _contour(alpha, -z)
    return MLEval(alpha, z, v, "integral", e, e <= TARGET_ABS)


def ml_values(alpha: float, zs) -> np.ndarray:
    """Vectorized convenience: values of ``E_alpha`` over an array of z."""
    zs = np.asarray(zs, dtype=float)
    flat = [mittag_leffler(alpha, z).value for z in zs.ravel()]
    return np.array(flat).reshape(zs.shape)


@dataclass(frozen=True)
class TailReport:
    """Sampled tail-bound and complete-monotonicity probe on ``E_a(-x)``.

    ``sup_weighted`` is ``max (1 + x) E_a(-x)`` over the sample, the measured
    constant of the algebraic tail bound.  Monotonicity and convexity are
    divided-difference verdicts with roundoff-aware thresholds (the sampled
    proxies for complete monotonicity).
    """

    alpha: float
    xs: np.ndarray
    values: np.ndarray
    sup_weighted: float
    argmax: float
    decreasing: bool
    convex: bool


def ml_tail_bound(alpha: float, xs) -> TailReport:
    """Probe ``(1 + x) E_a(-x)`` and sampled monotonicity on ``xs >= 0``."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size < 3:
        raise ValueError("need a 1-d sample of at least three points")
    if np.any(xs < 0.0) or np.any(np.diff(xs) <= 0.0):
        raise ValueError("sample points must be nonnegative and increasing")
    evals = [mittag_leffler(alpha, -x) for x in xs]
    vals = np.array([e.value for e in evals])
    errs = np.array([e.error_estimate for e in evals])
    weighted = (1.0 + xs) * vals
    k = int(np.argmax(weighted))

    diffs = np.diff(vals)
    tol1 = errs[1:] + errs[:-1] + _EPS * np.abs(vals[1:])
    decreasing = bool(np.all(diffs <= tol1))

    dx = np.diff(xs)
    first = diffs / dx
    second = np.diff(first) / (0.5 * (dx[1:] + dx[:-1]))
    noise = (errs[2:] + errs[1:-1] + errs[:-2]) / (dx[1:] * dx[:-1])
    convex = bool(np.all(second >= -4.0 * noise))

    return TailReport(
        alpha=alpha,
        xs=xs,
        values=vals,
        sup_weighted=float(weighted[k]),
        argmax=float(xs[k]),
        decreasing=decreasing,
        convex=convex,
    )
