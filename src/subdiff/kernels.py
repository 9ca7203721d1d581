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
(:meth:`L1Weights.blocks`) or row by row (:meth:`L1Weights.rows`); the
memory term of a marcher comes from a memory provider on any grid, exact
(:class:`DirectHistory`) or compressed (:class:`CompressedHistory`).
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
        return cls(horizon=horizon, nodes=nodes, r=1.0)

    @classmethod
    def graded(cls, horizon: float, steps: int, r: float) -> "TimeGrid":
        nodes = horizon * (np.arange(steps + 1) / steps) ** r
        return cls(horizon=horizon, nodes=nodes, r=float(r))

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
    reads the lower-triangular matrix ``W[n-1, k-1] = w_{n,k}``, either a
    dense slab of consecutive rows at a time (:meth:`block`, :meth:`blocks`;
    the blocked product behind :meth:`apply` and the convexity check) or one
    row after the other (:meth:`rows`, the exact memory provider).  Every
    off-diagonal entry is the mean of the kernel over one step, in one closed
    form in ``expm1``/``log1p`` that stays accurate when ``tau_k << t_n - t_k``.
    On uniform grids it runs once, at construction, for the sequence
    ``b_j = w_{n,n-j}`` that the rows are gathered from; on graded grids it
    runs per block.  The diagonal ``w_{n,n}`` comes from one table shared
    with :meth:`diag`, so :meth:`row`, :meth:`rows`, :meth:`diag` and
    :meth:`apply` agree with :meth:`block` bitwise.
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
            tau = self.grid.tau[0]
            # b_0 = 0 serves every entry on or above the diagonal; block() writes the diagonal over it
            object.__setattr__(self, "_uniform_b", self._step_means(tau * np.arange(self.grid.steps), tau))

    def _step_means(self, lag: np.ndarray, tau) -> np.ndarray:
        """Mean of ``g_{1-a}`` over ``[lag, lag + tau]``, zero where ``lag = 0``.

        ``((lag + tau)^p - lag^p) / (Gamma(2-a) tau)`` with ``p = 1 - a``,
        without the cancellation when ``tau << lag``.
        """
        p = 1.0 - self.alpha
        ratio = np.divide(tau, lag, out=np.zeros_like(lag), where=lag > 0.0)
        return lag**p * np.expm1(p * np.log1p(ratio)) / (math.gamma(2.0 - self.alpha) * tau)

    def block(self, n0: int, n1: int) -> np.ndarray:
        """Rows ``n = n0..n1-1`` of the weight matrix, shape ``(n1 - n0, n1 - 1)``.

        Entry ``[n - n0, k - 1]`` is ``w_{n,k}`` for ``k <= n`` and zero above
        the diagonal.
        """
        if not 1 <= n0 < n1 <= self.grid.steps + 1:
            raise ValueError(f"row range {n0}..{n1 - 1} outside 1..{self.grid.steps}")
        if self._uniform_b is not None:
            out = self._uniform_b[np.maximum(np.arange(n0, n1)[:, None] - np.arange(1, n1), 0)]
        else:
            t = self.grid.nodes
            out = self._step_means(np.maximum(t[n0:n1, None] - t[1:n1], 0.0), self.grid.tau[: n1 - 1])
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

    def rows(self):
        """Yield the lagged weights ``w_{n,k}``, ``k = 1..n-1``, for ``n = 1..M`` in order.

        On uniform grids each is a reversed view of ``b_j``; on graded grids a
        slice of the current slab of :meth:`blocks`, so a walk over all rows
        evaluates each weight once and holds one slab at a time.
        """
        if self._uniform_b is not None:
            for n in range(1, self.grid.steps + 1):
                yield self._uniform_b[n - 1 : 0 : -1]
            return
        for n0, n1, w in self.blocks(self.grid.steps):
            for n in range(n0, n1):
                yield w[n - n0, : n - 1]

    def row(self, n: int) -> np.ndarray:
        """Weights ``w_{n,k}`` for ``k = 1..n`` as an array of length n."""
        return self.block(n, n + 1)[0]

    def diag(self, n: int) -> float:
        """The local weight ``w_{n,n} = tau_n^(-alpha) / Gamma(2 - alpha)``."""
        if not 1 <= n <= self.grid.steps:
            raise ValueError(f"step index n={n} outside 1..{self.grid.steps}")
        return float(self._diag[n - 1])

    def _product(self, incs: np.ndarray) -> np.ndarray:
        """``sum_{k<=n} w_{n,k} incs[..., k-1]`` for ``n = 1..N``, steps on the last axis of both.

        The one blocked weight product: all sequences in ``incs`` go through
        one matrix product per block of weight rows.
        """
        N = incs.shape[-1]
        flat = incs.reshape(-1, N)
        out = np.empty(flat.shape)
        for n0, n1, w in self.blocks(N):
            # in place: copying each product out made the 48-step checks of `subdiff props` about 10% slower
            np.matmul(flat[:, : n1 - 1], w.T, out=out[:, n0 - 1 : n1 - 1])
        return out.reshape(incs.shape)

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
        return np.moveaxis(self._product(np.moveaxis(np.diff(history, axis=0), 0, -1)), -1, 0)


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
    d, d_abs, dw, dw_abs = L1Weights(alpha=alpha, grid=grid)._product(np.stack([dv, np.abs(dv), dV, np.abs(dV)]))
    margins = v[..., 1:] * d - 0.5 * dw
    gross = np.abs(v[..., 1:]) * d_abs + 0.5 * dw_abs
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
# trajectory is marched, by the PDE driver (one flat field per step) or by
# the scalar relaxation marcher (a batch of histories per step):
# ``reset(shape)`` starts a history of scalars (``shape == ()``) or flat
# fields (``shape == (n,)``), the shapes whose leading-axis contractions are
# plain ``np.dot`` calls; ``push(delta_n)`` absorbs the increment
# ``v_n - v_{n-1}`` after step n, and ``memory_term()`` then returns
# ``H_{n+1} = sum_{k<=n} w_{n+1,k} delta_k``, the sum without the local
# term, as often as it is asked.  ``DirectHistory`` is exact, reading the
# rows of :meth:`L1Weights.rows`; ``CompressedHistory`` approximates it with
# a sum of exponentials.


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
    lagged weights ``w_{n,k}``, ``k < n``, the current row of
    :meth:`L1Weights.rows`: a zero-copy view on uniform grids, a slice of
    the current slab of rows on graded ones.  :meth:`reset` restarts the
    walk over the rows and :meth:`push` moves it on by one row.
    """

    def __init__(self, weights: L1Weights):
        self.weights = weights
        self._deltas: np.ndarray | None = None
        self._count = 0

    def reset(self, shape=()) -> None:
        """Clear the stored increments for a new trajectory of fields of ``shape``."""
        self._deltas = np.empty((self.weights.grid.steps,) + _history_shape(shape))
        self._count = 0
        self._rows = self.weights.rows()
        self._row = next(self._rows)

    def push(self, delta) -> None:
        """Store the increment ``delta_n = v_n - v_{n-1}`` after step n."""
        if self._deltas is None:
            self.reset(np.shape(delta))
        self._deltas[self._count] = delta
        self._count += 1
        self._row = next(self._rows, None)  # None after the last step: no further query is defined

    def memory_term(self):
        """The lagged sum for the step after the last push."""
        if self._deltas is None:
            raise RuntimeError("reset or push before querying the memory term")
        out = np.dot(self._row, self._deltas[: self._count])
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
    """Sum-of-exponentials memory provider for the L1 history on any time grid.

    It serves the same ``reset``/``push``/``memory_term`` interface as
    :class:`DirectHistory`, at O(modes) work per step.  With the kernel fit
    ``g_{1-a}(t) ~ sum_m omega_m exp(-lambda_m t)`` on ``[tau_min, T]`` (see
    :func:`compress_history`), each lagged weight ``w_{n,k}``, the mean of the
    kernel over ``[t_n - t_k, t_n - t_{k-1}]``, becomes the mean of the fit,
    ``sum_m omega_m exp(-lambda_m (t_n - t_k)) phi(lambda_m tau_k)`` with
    ``phi(x) = (1 - e^-x) / x``; the local weight ``w_{n,n}`` is never
    compressed.  Conceptually each step applies the state update

        A_m <- exp(-lambda_m tau_n) A_m + phi(lambda_m tau_n) delta_n

    and ``memory_term()`` returns ``sum_m omega_m exp(-lambda_m tau_{n+1})
    A_m`` (Jiang, Zhang, Zhang & Zhang, CiCP 21, 2017).  The implementation
    buffers increments and folds the whole block into the mode table every
    ``_BLOCK`` steps; queries in between are served from per-block
    projections of the table plus a short correction dot over the buffer.
    That is the same recurrence rearranged (exact up to roundoff), but the
    table is traversed O(1/_BLOCK) times per step instead of several.  The
    block's tables come from its node differences: built once on a uniform
    grid, where every block shares them, and once per block on a graded one.

    ``achieved`` is the measured worst relative error of the kernel on
    ``[tau_min, T]``, which bounds that of every lagged weight; construction
    fails rather than return an object that misses ``eps``.
    """

    _BLOCK = 16

    alpha: float
    grid: TimeGrid
    eps: float
    rates: np.ndarray
    weights: np.ndarray
    achieved: float
    _state: np.ndarray | None = field(default=None, init=False, repr=False)
    _buffer: np.ndarray | None = field(default=None, init=False, repr=False)
    _proj: np.ndarray | None = field(default=None, init=False, repr=False)
    _fill: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        t = self.grid.nodes
        # the nodes go on past the horizon with the last step, so every block has _BLOCK + 1 of them
        self._nodes = np.concatenate([t, t[-1] + (t[-1] - t[-2]) * np.arange(1.0, self._BLOCK + 1)])
        self._shared = self._block_tables(0) if self.grid.is_uniform() else None

    @property
    def n_modes(self) -> int:
        return self.rates.size

    def _block_tables(self, b0: int) -> tuple:
        """``(decay, fold, proj, coef)`` of the block of pushes ``b0 + 1 .. b0 + _BLOCK``.

        Row ``j`` of ``proj`` (on the table) and of ``coef`` (on the buffer) serve the query after ``j`` pushes.
        """
        x = np.diff(self._nodes[b0 : b0 + self._BLOCK + 1])[:, None] * self.rates  # lambda tau, a row per step
        carry = np.ones(self.n_modes)  # exp(-lambda (t_j - t_0)) at the current node t_j
        run = _step_mean(x)  # row i: the mean over step i + 1, carried to the current node
        proj = np.empty_like(run)
        coef = np.zeros((self._BLOCK, self._BLOCK))
        for j, step in enumerate(np.exp(-x)):  # on to node t_{j+1}, where the query after j pushes falls
            carry = carry * step
            run[:j] *= step
            proj[j] = self.weights * carry
            coef[j, :j] = run[:j] @ self.weights
        return carry, run.T.copy(), proj, coef

    def reset(self, shape=()) -> None:
        """Clear the running state for a new trajectory of fields of ``shape``."""
        shape = _history_shape(shape)
        self._state = np.zeros((self.n_modes,) + shape)
        self._buffer = np.zeros((self._BLOCK,) + shape)
        self._proj = np.zeros((self._BLOCK,) + shape)
        self._fill = self._start = 0
        self._tables = self._shared or self._block_tables(0)

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
        s *= self._tables[0].reshape((-1,) + (1,) * (s.ndim - 1))
        s += np.dot(self._tables[1], self._buffer)
        self._start += self._BLOCK
        self._tables = self._shared or self._block_tables(self._start)
        np.dot(self._tables[2], s, out=self._proj)
        self._fill = 0

    def memory_term(self):
        """Current approximation of the lagged sum (excludes the local term)."""
        if self._state is None:
            raise RuntimeError("push at least one increment first")
        j = self._fill
        # a fresh array also at j = 0: the next fold overwrites the projection table in place
        out = np.dot(self._tables[3][j, :j], self._buffer[:j]) + self._proj[j]
        return float(out) if np.ndim(out) == 0 else out


def _step_mean(x: np.ndarray) -> np.ndarray:
    """The mean ``phi(x) = (1 - e^-x) / x`` of ``e^(-lambda s)`` over a step ``tau``, ``x = lambda tau``.

    Below 1e-8 it is ``1 - x/2``, so an ``x`` that underflowed to 0 gives 1, not 0/0.
    """
    small = x < 1e-8
    return np.where(small, 1.0 - 0.5 * x, -np.expm1(-x) / np.where(small, 1.0, x))


def _gauss_size(target: float) -> int:
    """Nodes of the Gauss rule that replaces the slow band of the ladder at kernel-level ``target``.

    The n-point Gauss rule of a positive measure ``mu`` on ``[0, L]``
    integrates ``exp(-lambda t)`` with error at most
    ``|mu| 4 (t L / 4)^(2n) / (2n)!``: the 2n-th lambda-derivative is at most
    ``t^(2n)``, and the orthogonal polynomial's squared norm is at most that of
    the monic Chebyshev polynomial, whose sup norm on ``[0, L]`` is
    ``2 (L/4)^n``.  On the slow band ``t L <= 1`` for every ``t <= T``, and the sum
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


def _worst_relative_error(rates: np.ndarray, weights: np.ndarray, t: np.ndarray, g: np.ndarray) -> float:
    """``max_i |sum_m weights_m exp(-rates_m t_i) - g_i| / g_i``.

    Points are taken about ``_BLOCK_ENTRIES // len(rates)`` at a time, so the
    working memory does not grow with the mode count.
    """
    height = max(1, _BLOCK_ENTRIES // rates.size)
    worst = 0.0
    for lo in range(0, t.size, height):
        ref = g[lo : lo + height]
        approx = np.exp(-np.outer(t[lo : lo + height], rates)) @ weights
        worst = max(worst, float(np.max(np.abs(approx - ref) / ref)))
    return worst


def compress_history(weights: L1Weights, eps: float) -> CompressedHistory:
    """Build a :class:`CompressedHistory` for ``weights`` with tolerance ``eps``, on any time grid.

    It fits the kernel ``g_{1-a}`` on ``[tau_min, T]``, with ``tau_min`` the
    shortest step after the first (the shortest lag ``t_n - t_{n-1}``,
    ``n >= 2``, of a lagged weight) and ``T`` the horizon.  Every lagged
    weight is the mean of the kernel over part of that interval, so the
    kernel's relative error there bounds every lagged weight's.

    The modes come in two parts:

    1. A trapezoid ladder.  The rates form a geometric ladder
       ``lambda_m = e^{s_m}`` obtained by trapezoidal discretization of
       ``g_{1-a}(t) = sin(a pi)/pi * int exp(-t e^s + a s) ds``, from
       ``s_max = log(eta / tau_min)`` down to where the rungs below weigh
       at most ``target / 10`` of ``g_{1-a}(T)``; modes too light to matter
       anywhere on the interval are dropped.
    2. Gauss reduction of the slow band.  The ladder modes with
       ``lambda T < 1`` are replaced by the n-point Gauss rule of their
       discrete measure ``sum_m omega_m delta(lambda_m)``.  On the whole
       interval their exponentials are nearly polynomials in lambda, so a
       rule matching 2n moments reproduces their sum to a bound fixed by n
       alone (see :func:`_gauss_size`).

    Verification runs on the reduced set only: its relative error against
    :func:`rl_kernel` at 16 log-spaced points per decade of ``[tau_min, T]``,
    both ends included, is measured against ``eps/100`` (the safety factor
    keeps the run-level deviation of history sums well inside ``eps``) and
    stored as ``achieved``.  The ladder's own
    error oscillates in ``log t`` far below the target; the samples see the
    smooth error of the truncated ends and of the Gauss rule.  On a miss the
    Gauss rule is first doubled, then the ladder's node spacing is refined;
    after ``_MAX_REFINE`` spacings :class:`CompressionError` is raised.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    grid = weights.grid
    if grid.steps < 2:
        raise ValueError("the grid has no history to compress")
    # fit the order that rl_kernel(1 - alpha) and L1Weights evaluate: 1 - alpha rounds for alpha < 1/2,
    # and over the ten decades of a graded grid that rounding alone moves the kernel by 1e-15
    alpha = 1.0 - (1.0 - weights.alpha)
    target = eps / 100.0
    tau_min = float(grid.tau[1:].min())
    horizon = float(grid.nodes[-1])
    t = np.geomspace(tau_min, horizon, max(2, math.ceil(16 * math.log10(horizon / tau_min)) + 1))
    kernel = rl_kernel(1.0 - alpha, t)
    h = 2.0 * math.pi / (math.log(1.0 / target) + 4.0)
    eta = math.log(1.0 / target) + 12.0
    s_max = math.log(eta / tau_min)
    s_min = (math.log(target / 10.0 * alpha * math.gamma(alpha)) - alpha * math.log(horizon)) / alpha
    n_gauss = _gauss_size(target)
    achieved = math.inf
    for _ in range(_MAX_REFINE):
        s = s_min + h * np.arange(int(math.ceil((s_max - s_min) / h)) + 1)
        lam = np.exp(s)
        om = h * np.exp(alpha * s) * math.sin(alpha * math.pi) / math.pi
        keep = om * np.exp(-lam * tau_min) > target * kernel[-1] * 1e-4
        lam, om = lam[keep], om[keep]
        slow = lam * horizon < 1.0
        for nodes in (n_gauss, 2 * n_gauss):
            rates, wts = lam, om
            if np.count_nonzero(slow) > nodes:
                g_rates, g_wts = _gauss_rule(lam[slow], om[slow], nodes)
                rates, wts = np.concatenate([g_rates, lam[~slow]]), np.concatenate([g_wts, om[~slow]])
            achieved = _worst_relative_error(rates, wts, t, kernel)
            if achieved <= target:
                return CompressedHistory(alpha=weights.alpha, grid=grid, eps=eps, rates=rates, weights=wts, achieved=achieved)
            if rates is lam:
                break  # no slow band to reduce further
        h *= 0.7
    raise CompressionError(
        f"could not reach eps={eps:g} (kernel-level target {target:g}) within "
        f"{_MAX_REFINE} refinements; achieved {achieved:g}",
        achieved=achieved,
    )
