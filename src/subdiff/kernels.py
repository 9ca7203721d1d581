"""Riemann-Liouville kernels and the L1 discretization of the fractional derivative.

The central object is :class:`L1Weights`: on a time grid ``0 = t_0 < ... < t_M``
the fractional derivative of order ``alpha`` of a piecewise-linear history
``v_0, ..., v_n`` is discretized as

    (D^a v)_n = sum_{k=1}^{n} w_{n,k} (v_k - v_{k-1}),

where ``w_{n,k}`` is the average of the kernel ``g_{1-a}(t_n - s)`` over the
step ``[t_{k-1}, t_k]``.  This quadrature is exact for piecewise-linear
functions, its weights are positive, and within each row they increase toward
the diagonal on any admissible mesh.  Those three facts carry all the
structure the rest of the package relies on (convexity inequality,
comparison principle, maximum principle); a run's convexity certificate
checks the last two (:meth:`L1Weights.row_margins`, O(M) on uniform grids),
up to the rounding that a stated error bound of the weights allows
(:meth:`L1Weights.margin_allowance`).  Every O(M^2) consumer reads the
weights a slab of rows at a time (:meth:`L1Weights.block`): the blocked
product behind :meth:`L1Weights.apply` and the convexity check, and the walk
of the exact memory provider :class:`DirectHistory`, which reads one slab per
block of queries and one product over its stored increments per block.  On
a graded grid the weights keep the row margins of the slabs that
:meth:`L1Weights.block` builds in row order, so the certificate of a direct
run, whose walk built every slab, reads them instead of evaluating the
weights again; the blocked product keeps none.  The memory term of a
marcher comes from a memory provider on any grid, exact
(:class:`DirectHistory`) or compressed (:class:`CompressedHistory`); both
serve their queries through one blocked walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

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
    "ladder_rungs",
    "MAX_LADDER_RUNGS",
]

_EPS = float(np.finfo(float).eps)
# entries per weight block of a blocked product (256 KiB of float64)
_BLOCK_ENTRIES = 1 << 15
# node-spacing refinements compress_history tries before it gives up
_MAX_REFINE = 10
# The most rates a trapezoid ladder of compress_history may hold.  The ladders that reached their tolerance
# in trials (alpha 0.0005 to 0.05, eps 1e-8 and 1e-13, uniform and graded grids) held at most 2.3e5 rates;
# at alpha = 1e-6 the first one would hold 1.1e8, gigabytes with the Gauss step's Lanczos basis.  A ladder of
# 2^20 rates and that basis take a few hundred MB.
MAX_LADDER_RUNGS = 1 << 20
_UNIFORM_RTOL = 1e-12  # relative spread of the steps of a uniform TimeGrid


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


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Time nodes ``0 = t_0 < ... < t_M`` and their steps ``tau``, both read-only.

    The grid decides once, here, its step count ``steps = M`` and whether it is uniform
    (:meth:`is_uniform`): every step within ``_UNIFORM_RTOL`` relative of the first.  A uniform
    grid has one step, ``t_1 - t_0``, in every entry of ``tau``, and every consumer reads it; on
    other grids ``tau`` holds the node differences.
    """

    nodes: np.ndarray
    tau: np.ndarray = field(init=False, repr=False)
    steps: int = field(init=False, repr=False)
    _uniform: bool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        nodes = np.array(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2 or nodes[0] != 0.0 or not np.all(np.isfinite(nodes)):
            raise ValueError("time grids have two or more finite nodes and start at t = 0")
        tau = np.diff(nodes)
        if not np.all(tau > 0.0):
            raise ValueError("time nodes must be strictly increasing")
        uniform = bool(np.all(np.abs(tau - tau[0]) <= _UNIFORM_RTOL * tau[0]))
        if uniform:
            tau = np.full(tau.size, tau[0])
        nodes.flags.writeable = tau.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "steps", tau.size)
        object.__setattr__(self, "_uniform", uniform)

    @classmethod
    def uniform(cls, horizon: float, steps: int) -> "TimeGrid":
        return cls.graded(horizon, steps, 1.0)

    @classmethod
    def graded(cls, horizon: float, steps: int, r: float) -> "TimeGrid":
        """Nodes ``t_n = T (n/M)^r`` on ``[0, T]``; ``r = 1`` is the uniform grid."""
        if not (steps >= 1 and steps % 1 == 0):
            raise ValueError(f"steps must be a whole number >= 1, got steps={steps}")
        if not 0.0 < horizon < math.inf:
            raise ValueError(f"horizon must be finite and > 0, got horizon={horizon}")
        if not 1.0 <= r < math.inf:
            raise ValueError(f"r must be finite and >= 1, got r={r}")
        return cls(horizon * (np.arange(steps + 1) / steps) ** r)

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    def is_uniform(self) -> bool:
        """Whether every step is the first one, as decided at construction."""
        return self._uniform


@dataclass(frozen=True, eq=False)
class L1Weights:
    """L1 quadrature weights for the fractional derivative of order ``alpha``.

    This is the one history operator of the package: every O(M^2) consumer
    reads the lower-triangular matrix ``W[n-1, k-1] = w_{n,k}`` a dense slab
    of consecutive rows at a time (:meth:`block`): the blocked product behind
    :meth:`apply` and the convexity check, and the walk of
    :class:`DirectHistory`, one slab per block of its queries.
    :meth:`row_margins` gives the convexity certificate the rows' margins.
    Every off-diagonal entry is the mean of the kernel over one step, in one
    closed form in ``expm1``/``log1p`` that stays accurate when
    ``tau_k << t_n - t_k`` (:meth:`_step_means` states its error bound).  On
    uniform grids it runs once, at construction, for the sequence
    ``b_j = w_{n,n-j}`` that the rows are gathered from; on graded grids it
    runs per slab.  The diagonal ``w_{n,n}`` comes from the grid's steps
    ``tau``, one power on a uniform grid, whose steps are all one, into a
    table shared with :meth:`diag`; every reader agrees with :meth:`block`
    bitwise.

    The weights own the row margins of a graded grid: :meth:`block` hands
    each slab it builds to :meth:`_keep_margins`, which keeps the slab's row
    scan while the slabs extend the rows kept so far, whichever walk built
    them; :meth:`row_margins` builds only the rows no slab has reached.  The
    blocked product keeps none (:meth:`_slab`): the certificate reads the
    margins of a run's weights, which its memory walk built, and the
    product serves weights built for one product.  The
    scan of a slab makes the float subtractions of a scan over whole rows,
    so the kept margins do not depend on how the rows were cut into slabs.
    """

    alpha: float
    grid: TimeGrid
    _uniform_b: np.ndarray | None = field(default=None, init=False, repr=False)
    _diag: np.ndarray = field(default=None, init=False, repr=False)
    # rows 1.._reached of the slabs built in row order on a graded grid: their w_{n,1} and least increment
    _kept: np.ndarray | None = field(default=None, init=False, repr=False)
    _reached: int = field(default=0, init=False, repr=False)
    # the increments of the slab being scanned, reused from slab to slab until the last row is kept
    _scan: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        tau = self.grid.tau
        # scalar powers: numpy's vectorized pow may round differently; a uniform grid's one step takes one
        pows = [tk ** (-self.alpha) for tk in (tau[:1] if self.grid.is_uniform() else tau).tolist()]
        object.__setattr__(self, "_diag", np.broadcast_to(np.array(pows) / math.gamma(2.0 - self.alpha), tau.shape))
        if self.grid.is_uniform():
            # b_0 = 0 serves every entry on or above the diagonal; block() writes the diagonal over it
            object.__setattr__(self, "_uniform_b", self._step_means(tau[0] * np.arange(self.grid.steps), tau[0]))

    def _step_means(self, lag: np.ndarray, tau, out: np.ndarray | None = None) -> np.ndarray:
        """Mean of ``g_{1-a}`` over ``[lag, lag + tau]``, zero where ``lag = 0``, into ``out`` if given (zeros).

        ``((lag + tau)^p - lag^p) / (Gamma(2-a) tau)`` with ``p = 1 - a``,
        without the cancellation when ``tau << lag``.

        Error bound.  With ``rho = tau / lag`` and ``eps`` the machine epsilon,
        a lagged weight (``lag > 0``) is within ``(16 + 4 max(rho, 1)) eps``
        relative of the exact mean at the same ``p`` and the same float
        ``Gamma(2-a)``, for ``lag`` and ``tau`` each the rounded difference of
        two exact nodes (or ``lag = j tau`` rounded, the uniform sequence).
        The count takes ``pow``, ``log1p`` and ``expm1`` within 4 ulp (numpy's
        AVX-512 routines; glibc's are within 2) and every other operation
        correctly rounded: the rounding of ``lag`` and ``tau`` moves the mean
        by at most ``(2 + rho) eps / 2`` (its relative sensitivity to them is
        at most ``(1 + rho)^a`` and 1); ``log1p(rho)`` carries ``4.5 eps``,
        its product with ``p`` ``5 eps``, which ``expm1`` amplifies by at most
        ``1 + p log1p(rho) <= 1 + max(rho, 1) log 2`` and to which it adds
        ``4 eps``; the power carries ``4 eps``, and the product and the
        division by ``Gamma(2-a) tau`` ``1.5 eps``.  Within a row
        ``rho <= tau_k / tau_{k+1}``, so ``rho <= 1`` on grids whose steps
        never shrink, uniform and graded.  ``tests/test_kernels.py`` checks
        the bound against mpmath.
        """
        p = 1.0 - self.alpha
        out = np.divide(tau, lag, out=np.zeros_like(lag) if out is None else out, where=lag > 0.0)
        np.log1p(out, out=out)
        out *= p
        np.expm1(out, out=out)
        out *= lag**p
        out /= math.gamma(2.0 - self.alpha) * tau
        return out

    def margin_allowance(self) -> float:
        """How far below zero rounding alone can put a margin of :meth:`row_margins` whose row increases.

        Each increment ``w_{n,k+1} - w_{n,k}`` of a row that increases in
        exact arithmetic is computed at least ``-delta (w_{n,k} + w_{n,k+1})``,
        ``delta`` the relative error bound of :meth:`_step_means` with ``rho``
        the grid's largest ratio of consecutive steps (at least 1), and both
        weights are at most ``w_{n,n}``, so the margin is at least ``-2 delta``
        up to the rounding of the subtraction and of the division by the
        diagonal (the factor ``1 + 4 eps``).  The diagonal's own increment
        ``w_{n,n} - w_{n,n-1}`` is at least ``a w_{n,n}``: ``w_{n,n-1}`` is at
        most ``g_{1-a}(tau_n) = (1 - a) w_{n,n}``, far from any tie.
        """
        tau = self.grid.tau
        rho = max(1.0, float(np.max(tau[:-1] / tau[1:], initial=1.0)))
        return 2.0 * (16.0 + 4.0 * rho) * _EPS * (1.0 + 4.0 * _EPS)

    def block(self, n0: int, n1: int) -> np.ndarray:
        """Rows ``n = n0..n1-1`` of the weight matrix, shape ``(n1 - n0, n1 - 1)``.

        Entry ``[n - n0, k - 1]`` is ``w_{n,k}`` for ``k <= n`` and zero above
        the diagonal.  On a graded grid the slab's row margins are kept
        (:meth:`_keep_margins`).
        """
        out = self._slab(n0, n1)
        if self._uniform_b is None:
            self._keep_margins(n0, out)
        return out

    def _slab(self, n0: int, n1: int) -> np.ndarray:
        """:meth:`block` without keeping margins: the slab of a walk whose margins nothing reads."""
        if not 1 <= n0 < n1 <= self.grid.steps + 1:
            raise ValueError(f"row range {n0}..{n1 - 1} outside 1..{self.grid.steps}")
        if self._uniform_b is not None:
            # row n reads b_{n-1}, ..., b_1, b_0 = 0 and zeros: b reversed from b_{n1-2} and padded, read from
            # one entry further on for each row up (a strided view, copied once)
            h = n1 - n0
            window = np.concatenate([self._uniform_b[n1 - 2 :: -1], np.zeros(h - 1)])
            step = window.itemsize
            out = np.ndarray((h, n1 - 1), float, window, (h - 1) * step, (-step, step)).copy()
        else:
            t, tau = self.grid.nodes, self.grid.tau[: n1 - 1]
            out = np.zeros((n1 - n0, n1 - 1))
            # _BLOCK_ENTRIES at a time, so that the temporaries stay in cache
            height = max(1, _BLOCK_ENTRIES // (n1 - 1))
            for i in range(n0, n1, height):
                j = min(i + height, n1)
                lag = np.subtract(t[i:j, None], t[1:n1])
                self._step_means(np.maximum(lag, 0.0, out=lag), tau, out[i - n0 : j - n0])
        # entry (n - n0, n - 1) sits at flat index n0 - 1 + (n - n0) * n1
        out.reshape(-1)[n0 - 1 :: n1] = self._diag[n0 - 1 : n1 - 1]
        return out

    def blocks(self, steps: int, first: int = 1):
        """Yield ``(n0, n1, block(n0, n1))`` covering rows ``first..steps`` in order.

        Each block holds about ``_BLOCK_ENTRIES`` entries, so a blocked product
        needs the same working memory at any step count.
        """
        for n0, n1 in _spans(steps, first):
            yield n0, n1, self.block(n0, n1)

    def _keep_margins(self, n0: int, w: np.ndarray) -> None:
        """Keep ``w_{n,1}`` and the least increment ``w_{n,k+1} - w_{n,k}``, ``k < n``, of each row of a slab.

        ``w = block(n0, n1)``; only a slab that extends the rows kept so far is scanned.  Every
        increment left of column ``n0 - 1`` lies below the diagonal, so only
        the triangle at the slab's right edge is masked (:func:`_edge_mask`).
        The increments go into one buffer, reused from slab to slab and
        dropped once the last row is kept.  The scan makes the
        float subtractions of a scan over whole rows, so its values equal
        one's bitwise, whatever the slab.
        """
        if n0 != self._reached + 1:
            return
        M = self.grid.steps
        if self._kept is None:
            object.__setattr__(self, "_kept", np.empty((2, M)))
        h, width = w.shape[0], w.shape[1] - 1
        if self._scan is None or self._scan.size < h * width:
            object.__setattr__(self, "_scan", np.empty(2 * h * width))  # room for the wider slabs that follow
        first, inc = self._kept[:, n0 - 1 : n0 - 1 + h]
        first[:] = w[:, 0]
        # column k - 1 of the increments is w_{n,k+1} - w_{n,k}, an increment of row n while k < n
        d = np.subtract(w[:, 1:], w[:, :-1], out=self._scan[: h * width].reshape(h, width))
        left = d[:, : n0 - 1].min(axis=1, initial=np.inf)
        edge = d[:, n0 - 1 :].min(axis=1, initial=np.inf, where=_edge_mask(h))
        np.minimum(left, edge, out=inc)
        object.__setattr__(self, "_reached", n0 - 1 + h)
        if self._reached == M:  # no slab is left to scan
            object.__setattr__(self, "_scan", None)

    def row_margins(self) -> tuple[np.ndarray, bool]:
        """The margins of the rows ``n = 1..M``, and whether every ``w_{n,1}`` is positive.

        Row ``n``'s margin is ``min(w_{n,1}, min_{k<n} (w_{n,k+1} - w_{n,k})) / w_{n,n}``.
        On uniform grids row ``n`` holds no weight of its own but the
        diagonal: its increments are ``b_j - b_{j+1}`` for ``j = 1..n-2`` and
        ``w_{n,n} - b_1``, so one running minimum over ``b`` and the diagonal
        table serve every row, O(M).  On graded grids :meth:`blocks` builds
        the rows that no slab has reached, each slab keeping its rows' scan
        (:meth:`_keep_margins`), and the kept scan is read.  Both make the float
        subtractions of a scan over whole rows, so the margins equal its
        bitwise.  Rounding alone can make a margin as low as
        ``-``:meth:`margin_allowance`.
        """
        M = self.grid.steps
        if self._uniform_b is not None:
            b = self._uniform_b
            first = np.concatenate([self._diag[:1], b[1:]])  # w_{n,1}: the diagonal in row 1, b_{n-1} after it
            inc = np.full(M, np.inf)
            inc[1:] = self._diag[1:] - b[1:2]
            inc[2:] = np.minimum(inc[2:], np.minimum.accumulate(b[1:-1] - b[2:]))
        else:
            for _ in self.blocks(M, self._reached + 1):  # each slab keeps its rows' scan
                pass
            first, inc = self._kept
        return np.minimum(first, inc) / self._diag, bool(np.all(first > 0.0))

    def diagonal(self) -> list[float]:
        """The local weights ``w_{n,n}``, ``n = 1..M``, as floats: entry ``n - 1`` is :meth:`diag` ``(n)``."""
        return self._diag.tolist()

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
        for n0, n1 in _spans(N):  # the slabs of blocks(N), keeping no row margins
            # in place: copying each product out made the 48-step checks of `subdiff props` about 10% slower
            np.matmul(flat[:, : n1 - 1], self._slab(n0, n1).T, out=out[:, n0 - 1 : n1 - 1])
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


def _spans(steps: int, first: int = 1):
    """The row ranges ``(n0, n1)`` of :meth:`L1Weights.blocks`, each slab about ``_BLOCK_ENTRIES`` entries."""
    height = max(1, _BLOCK_ENTRIES // steps)
    for n0 in range(first, steps + 1, height):
        yield n0, min(n0 + height, steps + 1)


@lru_cache(maxsize=16)
def _edge_mask(h: int) -> np.ndarray:
    """The increments below the diagonal in the right-edge triangle of an ``h``-row slab, read-only."""
    mask = np.tri(h, h - 1, -1, dtype=bool)
    mask.setflags(write=False)
    return mask


# ---------------------------------------------------------------------------
# discrete convexity inequality


@dataclass(frozen=True, eq=False)
class ConvexityReport:
    """Margins of the discrete convexity inequality along scalar histories.

    For each step n the margin is

        margin_n = v_n (D^a v)_n - 1/2 (D^a v^2)_n ,

    which is nonnegative for the L1 scheme (Abel summation plus monotone
    weights).  ``roundoff`` holds a per-step bound on the floating-point noise
    of the two sums; the verdict tolerates exactly that much.  For a batch of
    histories ``margins`` and ``roundoff`` carry a leading history axis,
    ``passed`` holds when every history passed, and :attr:`violations` counts
    the histories that did not.  ``times`` is a read-only view of the grid's nodes.
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
        times=grid.nodes[1 : N + 1],
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
# ``reset(shape)``, the one way to start a history, starts one of scalars
# (``shape == ()``) or flat fields (``shape == (n,)``), the shapes whose
# leading-axis contractions are plain ``np.dot`` calls; ``push(delta_n)``
# absorbs the increment ``v_n - v_{n-1}`` after step n, and
# ``memory_term()`` then returns ``H_{n+1} = sum_{k<=n} w_{n+1,k} delta_k``,
# the sum without the local term, as often as it is asked.  Both providers
# serve these three through one blocked walk, :class:`_BlockedHistory`:
# ``DirectHistory`` is exact, reading the slabs of :meth:`L1Weights.block`;
# ``CompressedHistory`` approximates it with a sum of exponentials.


def _history_shape(shape) -> tuple:
    """``shape`` as a tuple; raises ``ValueError`` unless it has at most one axis."""
    shape = tuple(shape)
    if len(shape) > 1:
        # np.dot would contract a field axis instead of the history axis
        raise ValueError(f"memory providers take scalars or flat fields, got field shape {shape}")
    return shape


class _BlockedHistory:
    """The walk of a memory provider: ``reset``, ``push`` and ``memory_term``, a block of queries at a time.

    The queries after ``_start`` pushes up to the one after ``_end`` pushes
    form a block.  Opening it sets ``_coef``, whose row ``j`` weighs the
    increments pushed since the block opened for the query after
    ``_start + j`` pushes, ``_recent``, where those increments are stored,
    and ``_older``, whose entry ``j`` is that query's sum over the increments
    older than the block, read only when there are some (``_start > 0``).
    A query is then one short dot plus that entry.  A provider defines where
    its increments are stored (``_begin(shape)``) and how a block opens
    (``_open(c0)``, after ``c0`` pushes); a push opens the next block when it
    ends one, unless no query follows (the last step).
    """

    _BLOCK = 16
    _recent = None  # until reset: a push has nowhere to go, and a query raises
    _count = _start = 0

    def reset(self, shape) -> None:
        """Start a new trajectory of fields of ``shape``, with no increment pushed."""
        self._begin(_history_shape(shape))
        self._count = 0
        self._open(0)

    def push(self, delta) -> None:
        """Absorb the increment ``delta_n = v_n - v_{n-1}`` after step n."""
        n = self._count
        self._recent[n - self._start] = delta
        self._count = n = n + 1
        if n == self._end < self.grid.steps:
            self._open(n)

    def memory_term(self):
        """The lagged sum for the step after the last push, a fresh value that later pushes leave alone."""
        if self._recent is None:
            raise RuntimeError("reset before querying the memory term")
        j = self._count - self._start
        out = np.dot(self._coef[j, :j], self._recent[:j])
        if self._start:
            out += self._older[j]
        return float(out) if out.ndim == 0 else out


class DirectHistory(_BlockedHistory):
    """Exact memory provider: keeps every increment and serves its queries a block at a time.

    The queries after ``c0`` pushes and the next ones, ``_BLOCK`` of them
    (``_FIRST`` from ``c0 = 0``), form a block.  Opening it reads one slab,
    the block's weight rows ``L1Weights.block(c0 + 1, ...)``: its columns
    from ``c0 + 1`` on weigh the increments pushed since, and one matrix
    product of its columns ``1..c0`` with the stored increments gives the
    block's sums over the older ones.  So the stored increments are read
    once per block of queries, not once per query, and every weight is
    evaluated once per walk.  The first block has no older increments and
    makes no product: a march of at most ``_FIRST`` steps, like the property
    sweeps' 48, reads one slab with per-row dots.  :meth:`reset` restarts
    the walk at row 1.
    """

    _FIRST = 64

    def __init__(self, weights: L1Weights):
        self.weights = weights
        self.grid = weights.grid

    def _begin(self, shape: tuple) -> None:
        self._deltas = np.empty((self.grid.steps,) + shape)

    def _open(self, c0: int) -> None:
        n1 = min(c0 + (self._BLOCK if c0 else self._FIRST), self.grid.steps) + 1
        slab = self.weights.block(c0 + 1, n1)
        self._start, self._end = c0, n1 - 1
        self._coef, self._recent = slab[:, c0:], self._deltas[c0:]
        self._older = slab[:, :c0] @ self._deltas[:c0] if c0 else None


# ---------------------------------------------------------------------------
# sum-of-exponentials compression of the history weights


class CompressionError(RuntimeError):
    """Raised when the mode budget cannot reach the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


@dataclass(eq=False)
class CompressedHistory(_BlockedHistory):
    """Sum-of-exponentials memory provider for the L1 history on any time grid.

    It serves the blocked walk of :class:`DirectHistory` at O(modes) work
    per step.  With the kernel fit ``g_{1-a}(t) ~ sum_m omega_m
    exp(-lambda_m t)`` on ``[tau_min, T]`` (see :func:`compress_history`),
    each lagged weight ``w_{n,k}``, the mean of the kernel over
    ``[t_n - t_k, t_n - t_{k-1}]``, becomes the mean of the fit,
    ``sum_m omega_m exp(-lambda_m (t_n - t_k)) phi(lambda_m tau_k)`` with
    ``phi(x) = (1 - e^-x) / x``; the local weight ``w_{n,n}`` is never
    compressed.  Conceptually each step applies the state update

        A_m <- exp(-lambda_m tau_n) A_m + phi(lambda_m tau_n) delta_n

    and ``memory_term()`` returns ``sum_m omega_m exp(-lambda_m tau_{n+1})
    A_m`` (Jiang, Zhang, Zhang & Zhang, CiCP 21, 2017).  The implementation
    walks in blocks of ``_BLOCK`` pushes: it stores a block's increments and,
    when the next block opens, folds them into the mode table at once and
    projects the table onto the new block's queries; a query adds a short
    dot over the increments stored since.  That is the same recurrence
    rearranged (exact up to roundoff), but the table is traversed
    O(1/_BLOCK) times per step instead of several.  The block's tables come
    from the grid's steps ``tau``: built once on a uniform grid, whose
    blocks share its one step, and once per block on a graded one.

    ``achieved`` is the measured worst relative error of the kernel on
    ``[tau_min, T]``, which bounds that of every lagged weight; construction
    fails rather than return an object that misses ``eps``.
    """

    grid: TimeGrid
    rates: np.ndarray
    weights: np.ndarray
    achieved: float

    def __post_init__(self) -> None:
        # the steps go on past the horizon with the last one, so every block has _BLOCK of them
        self._tau = np.pad(self.grid.tau, (0, self._BLOCK), mode="edge")
        self._shared = self._block_tables(0) if self.grid.is_uniform() else None

    @property
    def n_modes(self) -> int:
        return self.rates.size

    def _block_tables(self, b0: int) -> tuple:
        """``(decay, fold, proj, coef)`` of the block of pushes ``b0 + 1 .. b0 + _BLOCK``.

        Row ``j`` of ``proj`` (on the table) and of ``coef`` (on the block's increments) serve the query after
        ``j`` pushes.
        """
        x = self._tau[b0 : b0 + self._BLOCK, None] * self.rates  # lambda tau, a row per step
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

    def _begin(self, shape: tuple) -> None:
        self._state = np.zeros((self.n_modes,) + shape)
        self._recent = np.empty((self._BLOCK,) + shape)
        self._older = np.empty((self._BLOCK,) + shape)

    def _open(self, c0: int) -> None:
        s = self._state
        if c0:  # fold the finished block into the mode table
            s *= self._tables[0].reshape((-1,) + (1,) * (s.ndim - 1))
            s += np.dot(self._tables[1], self._recent)
        self._tables = tables = self._shared or self._block_tables(c0)
        self._start, self._end, self._coef = c0, c0 + self._BLOCK, tables[3]
        np.dot(tables[2], s, out=self._older)  # the table projected onto the block's queries


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


def _ladder(alpha: float, target: float, tau_min: float, horizon: float) -> tuple[float, float, float, float]:
    """``(s_min, s_max, h, eta)`` of :func:`compress_history`'s first trapezoid ladder at kernel-level ``target``.

    ``s_min`` is ``-inf`` when ``Gamma(alpha)`` cannot be evaluated: for
    alpha below about 5.6e-309, or 0 once rounded as ``1 - (1 - alpha)``.
    """
    h = 2.0 * math.pi / (math.log(1.0 / target) + 4.0)
    eta = math.log(1.0 / target) + 12.0
    s_max = math.log(eta / tau_min)
    try:
        s_min = (math.log(target / 10.0 * alpha * math.gamma(alpha)) - alpha * math.log(horizon)) / alpha
    except (OverflowError, ValueError):  # math.gamma's overflow, or its domain error at alpha = 0
        s_min = -math.inf
    return s_min, s_max, h, eta


def _rungs(s_min: float, s_max: float, h: float):
    """The rate count of the ladder from ``s_min`` to ``s_max`` at spacing ``h``: an int, or ``inf``."""
    span = (s_max - s_min) / h
    return int(math.ceil(span)) + 1 if span < math.inf else math.inf


def ladder_rungs(alpha: float, eps: float, grid: TimeGrid):
    """The rate count of the first trapezoid ladder that :func:`compress_history` builds for these settings.

    It grows like ``|log eps| / alpha``.  Above ``MAX_LADDER_RUNGS``
    compression is refused before the ladder is allocated.  ``grid`` needs
    at least 2 steps.
    """
    alpha = 1.0 - (1.0 - alpha)  # the order compress_history fits
    return _rungs(*_ladder(alpha, eps / 100.0, float(grid.tau[1:].min()), grid.horizon)[:3])


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
    after ``_MAX_REFINE`` spacings :class:`CompressionError` is raised.  It is
    raised at once when the top rate ``eta / tau_min`` overflows when squared,
    and before a ladder is built that would hold more than
    ``MAX_LADDER_RUNGS`` rates (see :func:`ladder_rungs`), as at tiny alpha.
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
    horizon = grid.horizon
    t = np.geomspace(tau_min, horizon, max(2, math.ceil(16 * math.log10(horizon / tau_min)) + 1))
    kernel = rl_kernel(1.0 - alpha, t)
    s_min, s_max, h, eta = _ladder(alpha, target, tau_min, horizon)
    if eta / tau_min > math.sqrt(np.finfo(float).max):  # the Gauss rule's Lanczos step squares the rates
        top = f"the top rate {eta / tau_min:g} overflows when squared"
        raise CompressionError(f"the shortest step after the first, {tau_min:g}, is too short: {top}", achieved=math.inf)
    n_gauss = _gauss_size(target)
    achieved = math.inf
    for _ in range(_MAX_REFINE):
        rungs = _rungs(s_min, s_max, h)
        if rungs > MAX_LADDER_RUNGS:  # refused before it is allocated
            raise CompressionError(
                f"alpha={weights.alpha:g} at eps={eps:g} needs a ladder of {rungs:.3g} rates, above the "
                f"{MAX_LADDER_RUNGS} it may hold; direct history has no such limit",
                achieved=achieved,
            )
        s = s_min + h * np.arange(rungs)
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
                return CompressedHistory(grid=grid, rates=rates, weights=wts, achieved=achieved)
            if rates is lam:
                break  # no slow band to reduce further
        h *= 0.7
    raise CompressionError(
        f"could not reach eps={eps:g} (kernel-level target {target:g}) within "
        f"{_MAX_REFINE} refinements; achieved {achieved:g}",
        achieved=achieved,
    )
