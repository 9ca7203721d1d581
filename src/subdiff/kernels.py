"""Riemann-Liouville kernels and the L1 discretization of the fractional derivative.

The central object is :class:`L1Weights`: on a time grid ``0 = t_0 < ... < t_M``
the fractional derivative of order ``alpha`` of a piecewise-linear history
``v_0, ..., v_n`` is discretized as

    (D^a v)_n = sum_{k=1}^{n} w_{n,k} (v_k - v_{k-1}),

where ``w_{n,k}`` is the average of the kernel ``g_{1-a}(t_n - s)`` over the
step ``[t_{k-1}, t_k]``.  This quadrature is exact for piecewise-linear
functions, its weights are positive, and within each row they increase toward
the diagonal on any admissible mesh.  Those three facts carry all the
structure the rest of the package relies on (convexity inequality, comparison
principle, maximum principle); a run's convexity certificate checks the last
two.  The O(M^2) consumers read the weights a slab of rows at a time
(:meth:`L1Weights.blocks`); the solver's memory term comes from a memory
provider (:class:`DirectHistory` or :class:`CompressedHistory`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "rl_kernel",
    "default_grading",
    "TimeGrid",
    "L1Weights",
    "ConvexityReport",
    "check_discrete_convexity",
    "DirectHistory",
    "CompressedHistory",
    "CompressionError",
    "compress_history",
]

_EPS = float(np.finfo(float).eps)
# entries per weight block of a blocked product (256 KiB of float64)
_BLOCK_ENTRIES = 1 << 15
# node-spacing refinements compress_history tries before it gives up
_MAX_REFINE = 10


def rl_kernel(beta: float, t):
    """Riemann-Liouville kernel ``g_beta(t) = t^(beta-1) / Gamma(beta)``.

    Parameters
    ----------
    beta : float
        Kernel order, must be positive.
    t : float or ndarray
        Evaluation points, must be strictly positive (the kernel is singular
        at zero for beta < 1).
    """
    if beta <= 0.0:
        raise ValueError(f"kernel order must be positive, got beta={beta}")
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("rl_kernel requires t > 0")
    out = t ** (beta - 1.0) / math.gamma(beta)
    return out if out.ndim else float(out)


def default_grading(alpha: float) -> float:
    """Default mesh grading exponent ``min((2 - alpha)/alpha, 4)``.

    This is the standard choice that restores the full O(M^-(2-alpha)) rate of
    the L1 scheme in the presence of the t^alpha startup singularity; the cap
    keeps the first steps from collapsing to sub-roundoff sizes.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return min((2.0 - alpha) / alpha, 4.0)


@dataclass(frozen=True)
class TimeGrid:
    """Nodes ``t_n = T (n/M)^r`` on ``[0, T]``.

    ``r = 1`` reproduces the uniform grid exactly.  Nodes are strictly
    increasing and start at zero.
    """

    horizon: float
    nodes: np.ndarray
    r: float
    kind: str  # "uniform" | "graded"

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        if self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.r < 1.0:
            raise ValueError(f"grading exponent must be >= 1, got r={self.r}")
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("a time grid needs at least two nodes")
        if nodes[0] != 0.0:
            raise ValueError("time grids start at t = 0")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("time nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def uniform(cls, horizon: float, steps: int) -> "TimeGrid":
        nodes = horizon * (np.arange(steps + 1) / steps)
        return cls(horizon=horizon, nodes=nodes, r=1.0, kind="uniform")

    @classmethod
    def graded(cls, horizon: float, steps: int, r: float) -> "TimeGrid":
        nodes = horizon * (np.arange(steps + 1) / steps) ** r
        kind = "uniform" if r == 1.0 else "graded"
        return cls(horizon=horizon, nodes=nodes, r=float(r), kind=kind)

    @property
    def steps(self) -> int:
        return self.nodes.size - 1

    @property
    def tau(self) -> np.ndarray:
        """Step sizes ``tau_k = t_k - t_{k-1}`` for ``k = 1..M``."""
        return np.diff(self.nodes)

    def is_uniform(self, rtol: float = 1e-12) -> bool:
        tau = self.tau
        return bool(np.all(np.abs(tau - tau[0]) <= rtol * tau[0]))


@dataclass(frozen=True)
class L1Weights:
    """L1 quadrature weights for the fractional derivative of order ``alpha``.

    This is the one history operator of the package: every O(M^2) consumer
    (the solver's direct memory, the convexity check and certificate, the
    relaxation marcher) reads the lower-triangular matrix
    ``W[n-1, k-1] = w_{n,k}`` through :meth:`block`, a dense slab of
    consecutive rows.  On uniform grids the off-diagonal entries are gathered
    from one precomputed sequence ``b_j = w_{n,n-j}``; on graded grids they
    come from the closed form in ``expm1``/``log1p``, accurate even when
    ``tau_k << t_n - t_k``.  The diagonal ``w_{n,n}`` comes from one table shared with :meth:`diag`, so
    :meth:`row`, :meth:`diag` and :meth:`apply` agree with :meth:`block`
    bitwise.
    """

    alpha: float
    grid: TimeGrid
    _uniform_b: np.ndarray | None = field(default=None, repr=False, compare=False)
    _diag: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        c = math.gamma(2.0 - self.alpha)
        # scalar powers: numpy's vectorized pow may round differently
        diag = np.array([tk ** (-self.alpha) for tk in self.grid.tau.tolist()]) / c
        object.__setattr__(self, "_diag", diag)
        if self.grid.is_uniform():
            M = self.grid.steps
            tau = self.grid.tau[0]
            j = np.arange(M + 1, dtype=float)
            b = np.diff(j ** (1.0 - self.alpha)) * tau ** (-self.alpha) / c
            object.__setattr__(self, "_uniform_b", b)

    def block(self, n0: int, n1: int) -> np.ndarray:
        """Rows ``n = n0..n1-1`` of the weight matrix, shape ``(n1 - n0, n1 - 1)``.

        Entry ``[n - n0, k - 1]`` is ``w_{n,k}`` for ``k <= n`` and zero above
        the diagonal.
        """
        if not 1 <= n0 < n1 <= self.grid.steps + 1:
            raise ValueError(f"row range {n0}..{n1 - 1} outside 1..{self.grid.steps}")
        if self._uniform_b is not None:
            lag = np.arange(n0, n1)[:, None] - np.arange(1, n1)
            out = np.where(lag > 0, self._uniform_b[np.maximum(lag, 0)], 0.0)
        else:
            t = self.grid.nodes
            tau = self.grid.tau[: n1 - 1]
            p = 1.0 - self.alpha
            # (lag_lo + tau)^p - lag_lo^p without the cancellation when tau << lag_lo;
            # entries with k >= n have lag_lo = 0 and a zero ratio, so they vanish
            lag_lo = np.maximum(t[n0:n1, None] - t[1:n1], 0.0)
            ratio = np.divide(tau, lag_lo, out=np.zeros_like(lag_lo), where=lag_lo > 0.0)
            out = lag_lo**p * np.expm1(p * np.log1p(ratio)) / (math.gamma(2.0 - self.alpha) * tau)
        # entry (n - n0, n - 1) sits at flat index n0 - 1 + (n - n0) * n1
        out.reshape(-1)[n0 - 1 :: n1] = self._diag[n0 - 1 : n1 - 1]
        return out

    def blocks(self, steps: int):
        """Yield ``(n0, n1, block(n0, n1))`` covering rows ``1..steps`` in order.

        Each block holds about ``_BLOCK_ENTRIES`` entries, so a blocked product
        needs the same working memory at any step count.
        """
        height = max(1, _BLOCK_ENTRIES // steps)
        for n0 in range(1, steps + 1, height):
            n1 = min(n0 + height, steps + 1)
            yield n0, n1, self.block(n0, n1)

    def row(self, n: int) -> np.ndarray:
        """Weights ``w_{n,k}`` for ``k = 1..n`` as an array of length n."""
        return self.block(n, n + 1)[0]

    def lagged(self, n: int) -> np.ndarray:
        """``w_{n,k}`` for ``k = 1..n-1``: a reversed view of ``b_j`` on uniform grids, else ``row(n)[:-1]``."""
        if self._uniform_b is not None:
            return self._uniform_b[n - 1 : 0 : -1]
        return self.row(n)[:-1]

    def diag(self, n: int) -> float:
        """The local weight ``w_{n,n} = tau_n^(-alpha) / Gamma(2 - alpha)``."""
        if not 1 <= n <= self.grid.steps:
            raise ValueError(f"step index n={n} outside 1..{self.grid.steps}")
        return float(self._diag[n - 1])

    def apply(self, history: np.ndarray) -> np.ndarray:
        """``(D^a v)_n`` for every ``n = 1..N`` of the sampled history ``v_0..v_N``.

        ``history`` has shape (N+1,) for scalar sequences or (N+1, ...) for
        field-valued ones; the contraction runs over the leading axis and the
        result has shape (N, ...).
        """
        history = np.asarray(history, dtype=float)
        N = history.shape[0] - 1
        if not 1 <= N <= self.grid.steps:
            raise ValueError(f"history needs 2..{self.grid.steps + 1} samples, got {N + 1}")
        diffs = np.diff(history, axis=0)
        out = np.empty((N,) + history.shape[1:])
        for n0, n1, w in self.blocks(N):
            out[n0 - 1 : n1 - 1] = np.tensordot(w, diffs[: n1 - 1], axes=1)
        return out


# ---------------------------------------------------------------------------
# discrete convexity inequality


@dataclass(frozen=True)
class ConvexityReport:
    """Margins of the discrete convexity inequality along scalar histories.

    For each step n the margin is

        margin_n = v_n (D^a v)_n - 1/2 (D^a v^2)_n ,

    which is nonnegative for the L1 scheme (Abel summation plus monotone
    weights).  ``roundoff`` holds a per-step bound on the floating-point noise
    of the two sums; the verdict tolerates exactly that much.  For a batch of
    histories ``margins`` and ``roundoff`` carry a leading history axis,
    ``passed`` holds when every history passed, and :attr:`violations` counts
    the histories that did not.
    """

    alpha: float
    times: np.ndarray
    margins: np.ndarray
    roundoff: np.ndarray
    passed: bool

    @property
    def min_margin(self) -> float:
        return float(self.margins.min())

    @property
    def violations(self) -> int:
        """Number of histories with a margin below ``-roundoff`` at some step."""
        ok = np.all(self.margins >= -self.roundoff, axis=-1)
        return int(np.size(ok) - np.count_nonzero(ok))


def check_discrete_convexity(alpha: float, grid: TimeGrid, history: np.ndarray) -> ConvexityReport:
    """Check ``v_n (D^a v)_n >= 1/2 (D^a v^2)_n`` along one or many scalar histories.

    ``history`` is one history of shape (N+1,) or a stack of B histories of
    shape (B, N+1) on the same grid; a stack is checked with one product per
    block of weight rows, and its margins and roundoff have shape (B, N).
    Both sides use identical weights; the squared history keeps the squared
    initial value, exactly as the solver's energy argument uses it.  The
    roundoff allowance ``4 (n + 4) eps`` charges each sum with its gross value.
    """
    v = np.asarray(history, dtype=float)
    if v.ndim not in (1, 2):
        raise ValueError(f"check_discrete_convexity expects one history or a (B, N+1) stack, got shape {v.shape}")
    if v.shape[-1] < 2:
        raise ValueError("history must contain at least one step")
    if v.shape[-1] > grid.steps + 1:
        raise ValueError("history is longer than the grid")
    N = v.shape[-1] - 1
    dv = np.diff(v, axis=-1)
    dV = np.diff(v * v, axis=-1)
    # the four increment sequences every history needs, stacked so one product serves them all
    incs = np.stack([dv, np.abs(dv), dV, np.abs(dV)])
    margins = np.empty(v.shape[:-1] + (N,))
    gross = np.empty(v.shape[:-1] + (N,))
    for n0, n1, w in L1Weights(alpha=alpha, grid=grid).blocks(N):
        k = n1 - 1
        rows = slice(n0 - 1, k)
        d, d_abs, dw, dw_abs = incs[..., :k] @ w.T
        margins[..., rows] = v[..., n0:n1] * d - 0.5 * dw
        gross[..., rows] = np.abs(v[..., n0:n1]) * d_abs + 0.5 * dw_abs
    roundoff = 4.0 * (np.arange(1, N + 1) + 4.0) * _EPS * (gross + 1e-300)
    return ConvexityReport(
        alpha=alpha,
        times=grid.nodes[1 : N + 1].copy(),
        margins=margins,
        roundoff=roundoff,
        passed=bool(np.all(margins >= -roundoff)),
    )


# ---------------------------------------------------------------------------
# memory providers
#
# A memory provider serves the lagged part of the L1 derivative while a
# trajectory is marched: ``reset(shape)`` starts a history of scalars
# (``shape == ()``) or flat fields (``shape == (n,)``), the shapes whose
# leading-axis contractions are plain ``np.dot`` calls; ``push(delta_n)``
# absorbs the increment ``v_n - v_{n-1}`` after step n, and ``memory_term()``
# then returns ``H_{n+1} = sum_{k<=n} w_{n+1,k} delta_k``, the sum without
# the local term.  ``DirectHistory`` is exact;
# ``CompressedHistory`` approximates it with a sum of exponentials.


def _history_shape(shape) -> tuple:
    """``shape`` as a tuple; raises ``ValueError`` unless it has at most one axis."""
    shape = tuple(shape)
    if len(shape) > 1:
        # np.dot would contract a field axis instead of the history axis
        raise ValueError(f"memory providers take scalars or flat fields, got field shape {shape}")
    return shape


class DirectHistory:
    """Exact memory provider: keeps every increment, O(n) work per query.

    A query at step ``n`` is one dot of the stored increments with the
    lagged weights ``w_{n,k}``, ``k < n``.  On uniform grids these are the
    zero-copy view ``weights.lagged(n)``.  On graded grids each row costs a
    transcendental per entry, so the provider walks the slabs of consecutive
    rows that :meth:`L1Weights.blocks` yields (32 rows at 1024 steps; queries
    arrive in push order, and :meth:`reset` restarts the walk) and slices row
    ``n`` out of the current one.  Block rows equal the rows of
    :meth:`L1Weights.lagged` bitwise, so both routes give the same sums.
    """

    def __init__(self, weights: L1Weights):
        self.weights = weights
        self._deltas: np.ndarray | None = None
        self._count = 0
        self._graded = not weights.grid.is_uniform()

    def reset(self, shape=()) -> None:
        """Clear the stored increments for a new trajectory of fields of ``shape``."""
        self._deltas = np.empty((self.weights.grid.steps,) + _history_shape(shape))
        self._count = 0
        self._slabs = self.weights.blocks(self.weights.grid.steps)
        self._slab = (1, 1, None)  # (n0, n1, rows n0..n1-1 of the graded weight matrix)

    def _lagged(self, n: int) -> np.ndarray:
        """``w_{n,k}`` for ``k = 1..n-1``, from the current slab on graded grids."""
        if not self._graded:
            return self.weights.lagged(n)
        while n >= self._slab[1]:
            self._slab = next(self._slabs)
        n0, _, slab = self._slab
        return slab[n - n0, : n - 1]

    def push(self, delta) -> None:
        """Store the increment ``delta_n = v_n - v_{n-1}`` after step n."""
        if self._deltas is None:
            self.reset(np.shape(delta))
        self._deltas[self._count] = delta
        self._count += 1

    def memory_term(self):
        """The lagged sum for the step after the last push."""
        if self._deltas is None:
            raise RuntimeError("reset or push before querying the memory term")
        m = self._count
        out = np.dot(self._lagged(m + 1), self._deltas[:m])
        return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# sum-of-exponentials compression of the history weights


class CompressionError(RuntimeError):
    """Raised when the mode budget cannot reach the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


@dataclass
class CompressedHistory:
    """Sum-of-exponentials memory provider for the L1 history on a uniform grid.

    It serves the same ``reset``/``push``/``memory_term`` interface as
    :class:`DirectHistory`, at O(modes) work per step.  The history weights
    ``b_j = w_{n,n-j}`` (lags ``j >= 1``) are approximated by
    ``sum_m omega_m exp(-lambda_m j tau)`` with positive rates and weights.
    The rates span ``(0, eta / tau]`` with ``eta = log(100 / eps) + 12``:
    the few below ``1 / T`` (T the horizon ``(lags + 1) tau``) are Gauss
    nodes that stand in for the slow end of the trapezoid ladder, the rest
    are ladder rungs (see :func:`compress_history`).
    The local weight ``b_0`` is never compressed.  Conceptually each step
    applies the state update

        s_m <- exp(-lambda_m tau) (s_m + delta_n)

    and ``memory_term()`` returns ``sum_m omega_m s_m``, the running
    approximation of ``sum_{k<n} b_{n-k} (v_k - v_{k-1})``.  The
    implementation buffers increments and folds the whole block into the
    mode table every ``_BLOCK`` steps; queries in between are served from
    per-block projections of the table plus a short correction dot over the
    buffer.  That is the same recurrence rearranged (exact up to roundoff),
    but the table is traversed O(1/_BLOCK) times per step instead of several,
    which is what makes the memory path cheap next to the direct sum.

    ``achieved`` is the measured worst relative weight error over every lag of
    the grid the object was built for; construction fails rather than return
    an object that misses ``eps``.
    """

    _BLOCK = 16

    alpha: float
    tau: float
    lags: int
    eps: float
    rates: np.ndarray
    weights: np.ndarray
    achieved: float
    _decay: np.ndarray = field(init=False, repr=False)
    _state: np.ndarray | None = field(default=None, init=False, repr=False)
    _buffer: np.ndarray | None = field(default=None, init=False, repr=False)
    _proj: np.ndarray | None = field(default=None, init=False, repr=False)
    _fill: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        self._decay = np.exp(-self.rates * self.tau)
        # decay^k for k = 0 .. _BLOCK, one row per power
        pows = np.ones((self._BLOCK + 1, self.rates.size))
        for k in range(1, self._BLOCK + 1):
            pows[k] = pows[k - 1] * self._decay
        self._powers = pows
        # row j projects the table onto the memory term j pushes later
        self._proj_w = self.weights * pows[: self._BLOCK]
        # c_k = sum_m omega_m decay_m^k, coefficient of a buffered increment
        # that is k steps old
        self._csum = pows @ self.weights
        # column i folds buffered increment i into the table at block end
        self._fold_w = pows[self._BLOCK : 0 : -1].T.copy()

    @property
    def n_modes(self) -> int:
        return self.rates.size

    def reset(self, shape=()) -> None:
        """Clear the running state for a new trajectory of fields of ``shape``."""
        shape = _history_shape(shape)
        self._state = np.zeros((self.n_modes,) + shape)
        self._buffer = np.zeros((self._BLOCK,) + shape)
        self._proj = np.zeros((self._BLOCK,) + shape)
        self._fill = 0

    def push(self, delta: np.ndarray) -> None:
        """Absorb the increment ``delta_n = v_n - v_{n-1}`` after step n."""
        if self._state is None:
            self.reset(np.shape(delta))
        self._buffer[self._fill] = delta
        self._fill += 1
        if self._fill == self._BLOCK:
            self._fold_block()

    def _fold_block(self) -> None:
        s = self._state
        s *= self._powers[self._BLOCK].reshape((-1,) + (1,) * (s.ndim - 1))
        s += np.dot(self._fold_w, self._buffer)
        np.dot(self._proj_w, s, out=self._proj)
        self._fill = 0

    def memory_term(self):
        """Current approximation of the lagged sum (excludes the local term)."""
        if self._state is None:
            raise RuntimeError("push at least one increment first")
        j = self._fill
        if j:
            coeffs = self._csum[j:0:-1]
            out = np.dot(coeffs, self._buffer[:j])
            out += self._proj[j]
        else:
            # fresh array: the next fold overwrites the projection table in place
            out = np.array(self._proj[0], copy=True)
        return float(out) if np.ndim(out) == 0 else out

    def reconstructed(self) -> np.ndarray:
        """The approximated weights ``b_j`` for j = 1..lags (test hook)."""
        j = np.arange(1, self.lags + 1, dtype=float)
        return np.exp(-np.outer(j * self.tau, self.rates)) @ self.weights


def _gauss_size(target: float) -> int:
    """Nodes of the Gauss rule that replaces the slow band of the ladder at weight-level ``target``.

    The n-point Gauss rule of a positive measure ``mu`` on ``[0, L]``
    integrates ``exp(-lambda t)`` with error at most
    ``|mu| 4 (t L / 4)^(2n) / (2n)!``: the 2n-th lambda-derivative is at most
    ``t^(2n)``, and the orthogonal polynomial's squared norm is at most that of
    the monic Chebyshev polynomial, whose sup norm on ``[0, L]`` is
    ``2 (L/4)^n``.  On the slow band ``t L <= 1`` at every lag, and the sum
    being approximated is at least ``|mu| / e``, so the relative error is at
    most ``4 e 16^-n / (2n)!``; n is the smallest count that puts this at or
    below ``target / 10``.
    """
    n = 1
    while math.log(4.0 * math.e) - n * math.log(16.0) - math.lgamma(2 * n + 1) > math.log(target / 10.0):
        n += 1
    return n


def _gauss_rule(rates: np.ndarray, weights: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss rule of the discrete measure ``sum_m weights_m delta(rates_m)``.

    Lanczos on ``diag(rates)`` from ``sqrt(weights / sum(weights))``, with full
    reorthogonalisation, gives the rule's Jacobi matrix; its eigenvalues are
    the nodes and ``sum(weights)`` times the squared first eigenvector
    components the weights.  The rule matches the first 2n moments.  Its nodes
    lie inside the band of ``rates`` in exact arithmetic; they are clipped to
    it, so roundoff cannot make a rate negative.
    """
    total = float(weights.sum())
    basis = np.empty((n, rates.size))
    diag = np.empty(n)
    off = np.empty(n - 1)
    q = np.sqrt(weights / total)
    for k in range(n):
        basis[k] = q
        w = rates * q
        diag[k] = q @ w
        for _ in range(2):  # twice is enough (Kahan-Parlett)
            w -= (basis[: k + 1] @ w) @ basis[: k + 1]
        if k + 1 < n:
            off[k] = np.linalg.norm(w)
            q = w / off[k]
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return np.clip(nodes, rates.min(), rates.max()), total * vecs[0] ** 2


def _worst_relative_error(rates: np.ndarray, weights: np.ndarray, b: np.ndarray, tau: float) -> float:
    """``max_j |sum_m weights_m exp(-rates_m j tau) - b_j| / b_j`` over ``j = 1..len(b)``.

    Lags are taken about ``_BLOCK_ENTRIES // len(rates)`` at a time, so the
    working memory does not grow with the mode count.
    """
    height = max(1, _BLOCK_ENTRIES // rates.size)
    worst = 0.0
    for lo in range(0, b.size, height):
        ref = b[lo : lo + height]
        j = np.arange(lo + 1, lo + 1 + ref.size, dtype=float)
        approx = np.exp(-np.outer(j * tau, rates)) @ weights
        worst = max(worst, float(np.max(np.abs(approx - ref) / ref)))
    return worst


def compress_history(weights: L1Weights, eps: float) -> CompressedHistory:
    """Build a :class:`CompressedHistory` for ``weights`` with tolerance ``eps``.

    Only uniform grids are supported: the convolution structure the
    exponential state update exploits does not exist on graded meshes.

    The modes come in two parts:

    1. A trapezoid ladder.  The rates form a geometric ladder
       ``lambda_m = e^{s_m}`` obtained by trapezoidal discretization of
       ``g_{1-a}(t) = sin(a pi)/pi * int exp(-t e^s + a s) ds``; each kernel
       mode is averaged over one step so that the surrogate matches the L1
       quadrature identity exactly in structure, and modes too light to
       matter at any lag are dropped.
    2. Gauss reduction of the slow band.  The ladder modes with
       ``lambda T < 1`` (T the horizon) are replaced by the n-point Gauss rule
       of their discrete measure ``sum_m omega_m delta(lambda_m)``.  Over the
       whole horizon their exponentials are nearly polynomials in lambda, so
       a rule matching 2n moments reproduces their sum to a bound fixed by
       n alone (see :func:`_gauss_size`); a few nodes replace the hundreds or
       thousands of slow ladder rungs.

    Verification runs on the reduced set only: its worst relative error over
    all lags is measured, a block of about ``_BLOCK_ENTRIES`` entries at a
    time, against ``eps/100`` (the safety factor keeps the run-level deviation
    of history sums well inside ``eps``) and stored as ``achieved``.  On a
    miss the Gauss rule is first doubled, then the ladder's node spacing is
    refined; after ``_MAX_REFINE`` spacings :class:`CompressionError` is raised.
    """
    if not weights.grid.is_uniform():
        raise ValueError("history compression requires a uniform time grid")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    alpha = weights.alpha
    tau = float(weights.grid.tau[0])
    lags = weights.grid.steps - 1
    if lags < 1:
        raise ValueError("the grid has no history to compress")
    target = eps / 100.0
    b = weights.lagged(weights.grid.steps)[::-1]  # b_j for the lags j = 1..M-1
    horizon = weights.grid.steps * tau
    h = 2.0 * math.pi / (math.log(1.0 / target) + 4.0)
    n_gauss = _gauss_size(target)
    achieved = math.inf
    for _ in range(_MAX_REFINE):
        eta = math.log(1.0 / target) + 12.0
        s_max = math.log(eta / tau)
        s_min = (math.log(target * alpha * math.gamma(alpha)) - alpha * math.log(horizon)) / alpha - 2.0
        n = int(math.ceil((s_max - s_min) / h)) + 1
        s = s_min + h * np.arange(n)
        lam = np.exp(s)
        om = h * np.exp(alpha * s) * math.sin(alpha * math.pi) / math.pi
        lt = lam * tau
        om = om * np.where(lt < 1e-8, 1.0 - 0.5 * lt, -np.expm1(-lt) / lt)
        keep = om * np.exp(-lam * tau) > target * b[-1] * 1e-4
        lam, om = lam[keep], om[keep]
        slow = lam * horizon < 1.0
        for nodes in (n_gauss, 2 * n_gauss):
            rates, wts = lam, om
            if np.count_nonzero(slow) > nodes:
                g_rates, g_wts = _gauss_rule(lam[slow], om[slow], nodes)
                rates, wts = np.concatenate([g_rates, lam[~slow]]), np.concatenate([g_wts, om[~slow]])
            achieved = _worst_relative_error(rates, wts, b, tau)
            if achieved <= target:
                return CompressedHistory(
                    alpha=alpha,
                    tau=tau,
                    lags=lags,
                    eps=eps,
                    rates=rates,
                    weights=wts,
                    achieved=achieved,
                )
            if rates is lam:
                break  # no slow band to reduce further
        h *= 0.7
    raise CompressionError(
        f"could not reach eps={eps:g} (weight-level target {target:g}) within "
        f"{_MAX_REFINE} refinements; achieved {achieved:g}",
        achieved=achieved,
    )
