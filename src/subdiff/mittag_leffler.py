"""One-parameter Mittag-Leffler function on the nonpositive real axis.

``E_a(z) = sum_k z^k / Gamma(a k + 1)`` for ``a in (0, 1]``, evaluated in
double precision with an honest error estimate per value.  One private array
function, ``_evaluate``, is the only code that evaluates it; the scalar
:func:`mittag_leffler`, :func:`ml_values` and :func:`ml_tail_bound` are thin
wrappers.  The domain is ``z <= 0``, the only arguments the relaxation
envelopes and the decay certificate need: ``z = 0`` gives 1, ``a = 1`` is
``exp``, and any ``z > 0`` raises ``ValueError``.

On the negative axis one rule covers everything: ``E_a(-x)`` is the inverse
Laplace transform of ``s^(a-1) / (s^a + x)`` at ``t = 1``,

    E_a(-x) = 1/(2 pi i) int_C exp(s) s^(a-1) / (s^a + x) ds,

and for ``0 < a < 1`` that transform is analytic off the cut along the
negative real axis (``s^a + x`` has no zero on the principal sheet).  The
trapezoidal rule with ``N`` midpoint nodes on the parabolic contour
``s(theta) = N (0.1309 - 0.1194 theta^2 + 0.25 i theta)``, ``|theta| < pi``,
converges like ``2.85^-N`` (Trefethen, Weideman & Schmelzer, BIT 46, 2006;
Garrappa, SINUM 53, 2015).  The nodes are fixed, so the rule and its
weights are built once at import, and an array of arguments is a few
``(256, N/2)`` blocks of terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
# arguments per block of contour terms: a (256, N/2) complex block is 64 KB, so the terms of a long run's decay
# envelope take memory that does not grow with its steps; each row's sums do not depend on the block
_BLOCK = 256


@dataclass(frozen=True)
class MLEval:
    """One evaluation: value, method used, and a conservative error estimate.

    ``method`` is ``"exp"`` for ``alpha = 1``, ``"series"`` for ``z = 0`` (the
    series' constant term) and ``"integral"`` (the contour rule) for ``z < 0``.
    ``error_estimate`` bounds the absolute error of ``value``: on ``z < 0``
    it is ``(2.85^-N + 16 eps)`` times the sum of the absolute values of the
    rule's terms, which covers its discretisation error and the roundoff of
    the sum; at ``z = 0`` it is 0; on ``exp`` it is four ulps of
    ``max(|value|, 1)``.  ``accurate`` is False when the estimate exceeds
    ``TARGET_ABS``; callers get the value either way.
    """

    alpha: float
    z: float
    value: float
    method: str
    error_estimate: float
    accurate: bool


def _evaluate(alpha: float, z) -> tuple[np.ndarray, np.ndarray]:
    """Values of ``E_alpha`` over real ``z`` of any shape, and the error estimate of each.

    All ``z < 0`` are one ``(count, N/2)`` array of contour terms, finite
    for every finite ``z``; ``z = 0`` gives 1 and ``alpha = 1`` is
    ``np.exp``.  Raises ``ValueError`` for alpha outside (0, 1] or any
    non-real, non-finite or positive z.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if np.iscomplexobj(z):
        raise ValueError(f"z must be a finite real number, got {z!r}")
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    bad = flat[~np.isfinite(flat)]
    if bad.size:
        raise ValueError(f"z must be a finite real number, got {float(bad[0])!r}")
    positive = flat[flat > 0.0]
    if positive.size:
        raise ValueError(f"z must not be positive, got {float(positive[0])!r}")
    if alpha == 1.0:
        values = np.exp(z)
        return values, 4.0 * _EPS * np.maximum(np.abs(values), 1.0)

    values, estimates = np.ones(flat.size), np.zeros(flat.size)
    neg = flat < 0.0
    s_alpha = np.exp(alpha * _LOG_S)
    # the weights over s first: s (s^a - z) overflows for -z near the float maximum, and s^a - z never does
    scaled = _WEIGHTS * s_alpha / _NODES
    zs = flat[neg]
    v, e = np.empty(zs.size), np.empty(zs.size)
    for k in range(0, zs.size, _BLOCK):
        terms = scaled / (s_alpha - zs[k : k + _BLOCK, None])
        v[k : k + _BLOCK], e[k : k + _BLOCK] = terms.sum(axis=1).imag, _CONTOUR_REL * np.abs(terms).sum(axis=1)
    values[neg], estimates[neg] = v, e
    return values.reshape(z.shape), estimates.reshape(z.shape)


def mittag_leffler(alpha: float, z: float) -> MLEval:
    """Evaluate ``E_alpha(z)`` for one real ``z <= 0`` and ``alpha in (0, 1]``.

    Raises ``ValueError`` for alpha outside (0, 1] or a non-real, non-finite
    or positive z.
    """
    value, estimate = map(float, _evaluate(alpha, z))
    method = "exp" if alpha == 1.0 else "series" if float(z) == 0.0 else "integral"
    return MLEval(alpha, float(z), value, method, estimate, estimate <= TARGET_ABS)


def ml_values(alpha: float, zs) -> np.ndarray:
    """Values of ``E_alpha`` over an array of z, shaped like it."""
    return _evaluate(alpha, zs)[0]


@dataclass(frozen=True, eq=False)
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
    vals, errs = _evaluate(alpha, -xs)
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
