"""Correction for the drifting speed of a shared CPU core.

On a small shared machine the core a run lands on slows down and speeds up
as neighbours come and go: by 10-20% over seconds to minutes, and by up to
1.7x in bursts of a few hundred milliseconds.  The cores drift
independently.  Wall times of the same code then spread far more than any
regression bound worth gating on.

``SpeedProbe`` samples a fixed calibration kernel every ``TICK_S`` seconds
on the benchmark's own thread, through ``SIGALRM``, while a repetition
runs.  Python runs the handler between bytecodes of the main thread, so each
sample measures the core the workload is on at that moment.
``reference_seconds(t0, t1)`` converts the wall interval ``[t0, t1]`` into
the time it would have taken at the speed where the kernel takes
``REFERENCE_S``: every stretch of wall time is weighted by ``REFERENCE_S``
over the median of the five samples nearest to it, and the time spent in
the handler is taken out.  The kernel does not call subdiff, so a change to
the program cannot move it.  It mixes interpreter work and small numpy
calls with a small sparse LU solve, in about equal parts, because a busy
neighbour slows the interpreter-bound steps of the program more than its
compiled sparse solves.  It avoids BLAS, whose wide vector units respond to
a busy neighbour more than the program does.
"""

from __future__ import annotations

import contextlib
import signal
from time import perf_counter

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

TICK_S = 0.025
REFERENCE_S = 350e-6
_SMOOTH = 5  # samples per rolling median; one sample can catch an interrupt


class SpeedProbe:
    def __init__(self):
        self._vec = np.linspace(0.0, 1.0, 257)
        n = 12
        side = sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(n, n))
        self._lap = (sp.kron(sp.identity(n), side) + sp.kron(side, sp.identity(n))).tocsc()
        self._rhs = np.ones(n * n)
        self._starts: list[float] = []
        self._handler: list[float] = []
        self._durations: list[float] = []
        for _ in range(50):
            self._kernel()

    def _kernel(self) -> float:
        t0 = perf_counter()
        acc = 0.0
        table = {}
        for i in range(300):
            table[i % 17] = acc
            acc += 0.5 * i
        x = self._vec.copy()
        for _ in range(10):
            x = np.where(x > 0.5, 0.9 * x, x + 0.01)
            x.sum()
        spsolve(self._lap, self._rhs)
        return perf_counter() - t0

    def _tick(self, signum, frame):
        # The first call refills the caches the workload evicted; only the
        # second is timed, so the sample tracks the core, not the cache state.
        t0 = perf_counter()
        self._kernel()
        self._durations.append(self._kernel())
        self._starts.append(t0)
        self._handler.append(perf_counter() - t0)

    @contextlib.contextmanager
    def sampling(self):
        """Sample the kernel every TICK_S seconds for the length of the block."""
        self._starts, self._handler, self._durations = [], [], []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            while len(self._durations) < _SMOOTH:  # a block shorter than a few ticks
                self._tick(None, None)

    def reference_seconds(self, t0: float, t1: float) -> float:
        """Wall interval [t0, t1] of the last sampled block, at reference speed."""
        starts = np.asarray(self._starts)
        handler = np.asarray(self._handler)
        pad = _SMOOTH // 2
        padded = np.pad(np.asarray(self._durations), pad, mode="edge")
        kernel = np.median(np.lib.stride_tricks.sliding_window_view(padded, _SMOOTH), axis=1)
        # sample i stands for the wall time between the midpoints to its neighbours
        mids = 0.5 * (starts[1:] + starts[:-1])
        lo = np.maximum(t0, np.concatenate(([-np.inf], mids)))
        hi = np.minimum(t1, np.concatenate((mids, [np.inf])))
        wall = np.clip(hi - lo, 0.0, None)
        inside = (starts >= t0) & (starts + handler <= t1)
        return float(np.sum((wall - inside * handler) * REFERENCE_S / kernel))
