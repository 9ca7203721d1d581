"""Implicit L1 stepping for quasilinear subdiffusion problems.

Each time step solves the nonlinear system

    w_nn (u_n - u_{n-1}) + H_n - div_h(a(u_n) grad_h u_n) = f(t_n)

on interior nodes, with ``H_n`` the lagged part of the L1 derivative and
Dirichlet data held on boundary rows.  With ``K(v) = w_nn I_int + A(v)``, the
step matrix that :func:`~subdiff.spatial.assemble_quasilinear_operator`
returns for ``shift=w_nn``, the system reads ``K(u_n) u_n = rhs``.  One
correction loop serves both inner iterations: from a start ``v`` it solves
``M delta = rhs - K(v) v`` and sets ``v <- v + theta delta``.  Each iterate
evaluates its face coefficients once, in ``K(v)`` (coefficient frozen at the
iterate, the discrete analogue of the linearized fixed-point map behind the
existence theory), and both modes read their residual off it.  Picard takes
``M = K(v)``.  Newton, a 1D mode, takes the analytic Jacobian including the a'(u) terms:
:func:`~subdiff.spatial.newton_jacobian` shares the face coefficients of
``K(v)``, reads the face means ``K(v)`` keeps, and evaluates only the ``a'``
face terms, and only when a correction follows, never at the accepted
iterate.  So each iterate forms its face means once, and in 1D its face
differences once too: one 1D state's ``K(v)`` is a
:class:`~subdiff.spatial.LineOperator`, which keeps ``v[1:] - v[:-1]`` for
its product with ``v`` (``K.at_state(v)``) and for the Jacobian.  Every one
of these products is the face-flux sum of
:class:`~subdiff.spatial.StencilOperator`, which a ``LineOperator`` makes on
plain slices in the same operations and order.  A constant law
(``nu == lam``, so ``a(u) = nu``) has one ``K`` for every iterate, bitwise
equal to its Newton Jacobian: the driver assembles it once per distinct
``w_nn`` (once per run on a uniform time grid, whose steps all equal its one
step, once per step on a graded one), and both iterations solve with it; its
arrays are read-only.  Such a step also keeps the product ``K v`` of its
accepted iterate: the next step starts from ``u_{n-1}``, that same iterate,
and while its step matrix is the same ``K`` it takes that product for its
start's residual instead of forming it again.  A linear step that converges
in one correction thus costs one product and one solve.  The loop runs
undamped and, when the residual stops decreasing, returns to the best
iterate and halves ``theta``, up to three times before giving up.
``Trajectory.halvings`` records the halvings of every step.

The start is ``u_{n-1}`` until a step has needed more than one correction;
from the next step on it is the linear extrapolation ``u_{n-1} + (tau_n /
tau_{n-1}) (u_{n-1} - u_{n-2})``, standard for nonlinear L1 schemes (Jin, Li
& Zhou 2018).  On the porous runs that saves a third of the corrections.  It
moves the converged field within the tolerance only: the scheme and its fixed
point stay as they are.  A linear step converges in one correction from any
start, so a constant-law run never extrapolates and keeps every bit.  A step
that fails from the extrapolated start runs once more from ``u_{n-1}``, the
start it had before, so no step that converged from there fails now; its
iteration and halving counts cover both attempts.

Boundary rows are identity rows and every iterate holds the Dirichlet data
exactly (the extrapolated start too: ``u_{n-1} - u_{n-2}`` is exactly zero
there), so the boundary residual is exactly zero and every correction solves
for the interior unknowns only (:func:`spsolve`); the boundary values stay
bitwise equal to the data.  In 1D the interior block is tridiagonal, for
Picard and Newton alike: an operator's first solve is one LAPACK ``dgtsv``
call, its second factors it with ``dgttrf``, the operator keeps the factors,
and every later solve is one ``dgttrs`` back-substitution, so a constant
law's step matrix is factored once per distinct ``w_nn`` and an operator
solved once is never factored.  All three are imported from
``scipy.linalg.lapack`` on the first 1D solve, so a 2D run loads no scipy
module.  2D runs are Picard only (:func:`run_trajectory` refuses a 2D
problem in Newton mode): 2D Picard converged wherever 2D Newton did, and
faster.  Its interior block is symmetric positive definite and spectrally
equivalent to ``w_nn I + nu (-Delta_h)`` within the factor ``lam / nu`` of
the law's bounds, so conjugate gradients preconditioned by that
constant-coefficient operator converge in a few iterations on any mesh
(Concus & Golub 1973).  The preconditioner is a fast diagonalisation by the
dense sine matrices of the two axes.  CG solves inexactly (Dembo, Eisenstat
& Steihaug 1982): it stops when its recursively updated residual's 2-norm is
at most ``max(0.1 * tol, _FORCING ||r||_2)``, with ``r`` the step's current
nonlinear residual.  A correction need not be more accurate than the
residual the next one starts from, so the forcing term trades a few more
corrections for far fewer CG iterations; near convergence ``0.1 * tol``
takes over, which bounds the max-norm the correction loop tests.  That test,
on the nonlinear residual, is the acceptance.  The 1D solve is exact and
needs no norm, and its LAPACK calls copy nothing: ``dgtsv`` takes the band
``LineOperator.band()`` has just formed and may overwrite it, and ``dgtsv``
and ``dgttrs`` solve in place in :func:`spsolve`'s own result.  The 2D
preconditioner is built once per step: the corrections of a step share its
``w_nn``.  A solve that reaches the iteration cap fails the step.

What one step computes, and the ``Trajectory.timings`` entry that covers
each part:

- ``memory``: the push of the last step's increment and the query of
  ``H_n``, one interval;
- the step loop itself, untimed: ``rhs = w_nn u_{n-1} - H_n + f_n`` with
  the data written over its boundary entries (in 1D two scalars, and
  ``w_nn`` read off a per-run list of the weights' diagonal), each update
  ``v + theta delta`` and each residual's max-norm;
- ``assembly``: per iterate ``K(v)`` (the face means of every axis and one
  call of the law ``a`` on them; a constant law's ``K`` is built before the
  step, once per distinct ``w_nn``), its product ``K(v) v`` and
  ``r = K(v) v - rhs``, and before a Newton correction the ``a'`` face
  terms, at the means ``K(v)`` keeps.  In 1D that is, in order:
  ``D = v[1:] - v[:-1]``, the means ``m`` and ``c = a(m) / h^2``, once
  each; the product ``D c``, ``w_nn v``, the two slice updates and the two
  boundary scalars; ``r``; and ``d = 0.5 a'(m)``, ``d *= D``, ``d /= h^2``;
- ``linear_solve``: ``-r`` and :func:`spsolve`.  In 1D it copies ``-r``
  into its result, zeroes its ends, forms the band when the operator has
  no factors yet (``LineOperator.band()``: ``c - d`` and ``c + d``, the
  main diagonal ``(c - d)[1:] + (c + d)[:-1] + w_nn`` and the two outer
  ones negated) and makes one LAPACK call that solves in that result,
  copying no array.  In 2D it builds the right-hand side with its
  boundary entries zeroed, and CG updates its residual there, without a
  copy; each CG iteration is one product ``K p`` and one preconditioner
  solve.

Every 2D product runs on the operator's flat face arrays, two
contiguous slices per axis: on 65^2 nodes a 2D product takes about 20 us
with one BLAS thread, and a 2D assembly about 44 us, most of it the law.

So a linear step on a constant law's step matrix is one product plus one
back-substitution (``dgttrs``), and a Newton correction is ``K(v)``, its
product, the ``a'`` faces, the band and one ``dgtsv`` (each Jacobian is
solved once): on 65 nodes about 20 us with one BLAS thread, the update and
the max-norm included.  The loop binds what its steps share once per run
(:class:`_Run`), builds no closure per step and reads the clock once at
each layer boundary.

A run keeps every field, or with ``keep`` (:func:`run_trajectory`) only
the fields of the listed steps and of the final one.  Such a streamed run
writes each accepted field into a reused window of rows, ``U[n % rows]``
with about ``_WINDOW_VALUES`` values in all, which still holds ``u_{n-1}``
and ``u_{n-2}``, and once the window is full reduces it to per-step norms
and copies out its kept rows: one reduction per window of steps, not per
step.  So its fields take memory that does not grow with the step count.

Trajectories involve no randomness, so a rerun on the same machine with the
same BLAS thread count reproduces them bitwise.  They are not bitwise
identical across BLAS thread counts: the history sums and the CG inner
products use BLAS dot products, whose reduction order follows the thread
count.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from time import perf_counter
from typing import NamedTuple

import numpy as np

from .kernels import DirectHistory, L1Weights, TimeGrid, compress_history
from .spatial import (
    DiffusionLaw,
    LineOperator,
    SpatialGrid,
    assemble_quasilinear_operator,
    newton_jacobian,
)

# The largest step-matrix diagonal, and decay rate times max(1, T)^alpha, a problem may have: 2^10 below the
# float maximum.  A residual row sums the diagonal term and the face fluxes, up to twice the diagonal times
# max|u|, and a step forms further sums of that size; SpatialGrid's rule alone (1 / h^2 finite) let through
# boxes whose step matrix overflowed and whose decay envelope came out NaN.
_SCALE_LIMIT = float(np.finfo(float).max) / 1024.0

__all__ = [
    "ProblemSpec",
    "SolverOptions",
    "Trajectory",
    "NormSeries",
    "StepFailure",
    "run_trajectory",
    "check_scales",
]


def check_scales(alpha: float, grid: SpatialGrid, time_grid: TimeGrid, law: DiffusionLaw) -> None:
    """Raise ``ValueError`` when a problem's scales come within ``2^10`` of the float maximum (``_SCALE_LIMIT``).

    The scales are the step matrix's largest diagonal, at most
    ``w_nn + sum_d 2 lam / h_d^2`` with ``w_nn`` the L1 weight of the
    shortest time step, and the decay certificate's rate ``2 nu lambda_1``
    (``lambda_1`` the box's first Dirichlet eigenvalue) times
    ``max(1, T)^alpha``, which bounds its envelope's arguments.
    """
    tau = time_grid.tau.min()
    with np.errstate(over="ignore"):  # an overflow is inf, which the limit refuses
        diagonal = tau**-alpha / math.gamma(2.0 - alpha) + np.sum(2.0 * law.lam / np.square(grid.spacing))
        rate = 2.0 * law.nu * np.sum(np.square(np.pi / np.array(grid.lengths))) * max(1.0, time_grid.horizon) ** alpha
    for what, value in (("step matrix's largest diagonal", diagonal), ("decay rate times max(1, T)^alpha", rate)):
        if not value <= _SCALE_LIMIT:
            raise ValueError(f"the box {grid.extents} on {grid.shape} nodes, with time steps from {tau:.4g}, gives a "
                             f"{what} of {value:.4g}, above {_SCALE_LIMIT:.4g}, 2^10 below the float maximum")


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """A complete subdiffusion problem instance, checked once, when it is built.

    ``source`` is None (zero forcing) or a callable ``f(t, points) -> values``
    over the flattened node set, called once per step.  ``boundary`` is the
    time-constant Dirichlet datum, given as a scalar or an array over the
    boundary nodes (in flattened node order) and stored expanded over them,
    read-only.  Construction refuses an initial state that does not match it
    on the boundary (the compatibility condition), a law that leaves its
    declared bounds ``[nu, lam]`` at 513 equispaced points of the data's
    range, padded by half its width plus 1 on each side, and scales that
    come within ``2^10`` of the float maximum (:func:`check_scales`).
    """

    alpha: float
    time_grid: TimeGrid
    grid: SpatialGrid
    law: DiffusionLaw
    u0: np.ndarray
    source: object = None
    boundary: object = 0.0
    label: str = "custom"

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        u0 = np.asarray(self.u0, dtype=float).ravel()
        if u0.size != self.grid.n_nodes:
            raise ValueError("u0 does not match the grid")
        if not np.all(np.isfinite(u0)):
            raise ValueError("u0 contains non-finite values")
        if self.source is not None and not callable(self.source):
            raise ValueError(f"source must be None or a callable f(t, points), got {type(self.source).__name__}")
        n_bdry = int(self.grid.boundary_mask.sum())
        g = np.array(self.boundary, dtype=float).ravel()
        if g.size not in (1, n_bdry):
            raise ValueError(f"boundary data has {g.size} values for {n_bdry} boundary nodes")
        g = np.broadcast_to(g, n_bdry)  # a read-only view
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "boundary", g)
        mismatch = float(np.max(np.abs(u0[self.grid.boundary_mask] - g), initial=0.0))
        scale = max(1.0, float(np.max(np.abs(u0))), float(np.max(np.abs(g), initial=0.0)))
        if mismatch > 1e-12 * scale:
            raise ValueError(
                f"initial state and boundary data disagree on the boundary "
                f"(max mismatch {mismatch:.3e}); the compatibility condition fails"
            )
        lo = min(float(u0.min()), float(g.min(initial=0.0)))
        hi = max(float(u0.max()), float(g.max(initial=0.0)))
        pad = 0.5 * (hi - lo) + 1.0
        lo, hi = lo - pad, hi + pad
        vals = np.asarray(self.law.a(np.linspace(lo, hi, 513)), dtype=float)
        tol = 1e-12 * max(1.0, self.law.lam)
        if not (vals.min() >= self.law.nu - tol and vals.max() <= self.law.lam + tol):
            raise ValueError(
                f"diffusion law '{self.law.tag}' leaves its declared bounds [{self.law.nu}, {self.law.lam}] on "
                f"[{lo:.3g}, {hi:.3g}]: observed [{vals.min():.6g}, {vals.max():.6g}]"
            )
        check_scales(self.alpha, self.grid, self.time_grid, self.law)

    def source_at(self, n: int, points: np.ndarray) -> np.ndarray | None:
        if self.source is None:
            return None
        vals = np.asarray(self.source(float(self.time_grid.nodes[n]), points), dtype=float).ravel()
        if vals.size != self.grid.n_nodes:
            raise ValueError("source callable returned the wrong number of values")
        return vals

    def has_zero_data(self) -> bool:
        """True when f == 0 and g == 0 (the decay-theory setting)."""
        return self.source is None and bool(np.all(self.boundary == 0.0))


@dataclass(frozen=True)
class SolverOptions:
    """How a run solves its steps; a config's ``[solver]`` section is one.

    ``mode`` is ``picard`` (the step matrix frozen at the iterate) or
    ``newton`` (its analytic Jacobian, 1D only: :func:`run_trajectory`
    refuses it on a 2D problem).
    """

    mode: str = "picard"  # "picard" | "newton" (1D only)
    tol: float = 1e-10
    max_iter: int = 50
    history: str = "direct"  # "direct" | "compressed"
    eps_compress: float = 1e-8

    def __post_init__(self) -> None:
        if self.mode not in ("picard", "newton"):
            raise ValueError(f"unknown solver mode {self.mode!r}")
        if self.history not in ("direct", "compressed"):
            raise ValueError(f"unknown history mode {self.history!r}")
        if self.tol <= 0.0 or self.max_iter < 1 or not 0.0 < self.eps_compress < 1.0:
            raise ValueError("tol must be positive, eps_compress in (0, 1) and max_iter >= 1")


class StepFailure(RuntimeError):
    """The inner iteration failed; carries the state needed for a report."""

    def __init__(
        self,
        step: int,
        t: float,
        residual: float,
        iterations: int,
        last_iterate: np.ndarray,
        message: str,
        halvings: int = 0,
    ):
        super().__init__(message)
        self.step = step
        self.t = t
        self.residual = residual
        self.iterations = iterations
        self.halvings = halvings
        self.last_iterate = last_iterate


@dataclass(frozen=True, eq=False)
class NormSeries:
    """Per-step norms of a trajectory: ``l2[n]`` the trapezoid L2 norm and ``sup[n]`` the max-norm of field ``n``.

    ``times`` are the time grid's nodes, shared, not copied.
    """

    times: np.ndarray
    l2: np.ndarray
    sup: np.ndarray

    @property
    def energy(self) -> np.ndarray:
        """W_n = ||u_n||_{L2}^2, the quantity the decay theory controls."""
        return self.l2 * self.l2


# Field values per window: a streamed run keeps its latest fields in a window of about this many values, and
# the per-step norms are reduced one window at a time, so no temporary grows with the step count.
_WINDOW_VALUES = 2**16


def _window_rows(n_nodes: int) -> int:
    """Rows per window: about ``_WINDOW_VALUES`` values, and at least 3, so that ``u_{n-1}`` and ``u_{n-2}`` stay."""
    return max(3, _WINDOW_VALUES // n_nodes)


def _reduce_norms(window: np.ndarray, q: np.ndarray, l2: np.ndarray, sup: np.ndarray) -> None:
    """Write the trapezoid L2 norm (weights ``q``) and the max-norm of each row of ``window`` into ``l2`` and ``sup``.

    These are the per-row formulas of a whole field array ``U``,
    ``sqrt(einsum("ni,i,ni->n", U, q, U))`` and ``max(abs(U), axis=1)``, on
    a block of its rows; every row's norms are bitwise those of the whole
    array, and the temporary ``abs`` is the size of the window.
    """
    np.einsum("ni,i,ni->n", window, q, window, out=l2)
    np.sqrt(l2, out=l2)
    np.max(np.abs(window), axis=1, out=sup)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Kept fields and per-step norms of a run, plus per-step solver bookkeeping.

    ``weights`` are the run's L1 weights.  A direct run's memory walk has
    evaluated them, and on a graded grid they keep the row margins of that
    walk for the convexity certificate.

    A full record (``kept`` None) holds the field of every step, ``fields[n]``
    at step ``n``.  A streamed record holds only the steps listed in
    ``kept``, ascending and always ending with the final step ``M``, so
    ``fields[-1]`` is the final field on either; :meth:`field` finds a step's
    row on both.  A streamed run reduced each window of fields to its norms
    as it went, and the record carries them (``streamed_norms``).

    A finished run is read-only: the record is frozen, and
    :func:`run_trajectory` returns ``fields``, ``kept``, ``iterations``,
    ``halvings``, ``residuals`` and the norms read-only.  So every reader
    shares one norm record (:attr:`norms`): a streamed run's, or on a full
    record one computed on first read.  ``dataclasses.replace(traj,
    fields=...)`` of a full record builds a new record, whose norms are its
    own; a streamed record's norms are its run's.
    """

    spec: ProblemSpec
    options: SolverOptions
    weights: L1Weights
    fields: np.ndarray  # (steps + 1, n_nodes), or (kept.size, n_nodes) on a streamed record
    iterations: np.ndarray  # (steps + 1,), [0] == 0
    halvings: np.ndarray  # (steps + 1,), damping halvings per step, [0] == 0
    residuals: np.ndarray  # (steps + 1,), [0] == 0
    timings: dict
    kept: np.ndarray | None = None  # the steps of the rows of ``fields``; None: every step
    streamed_norms: NormSeries | None = None  # a streamed run's norms, reduced as it ran

    @property
    def times(self) -> np.ndarray:
        return self.spec.time_grid.nodes

    def field(self, n: int) -> np.ndarray:
        """The field of step ``n``, ``0 <= n <= M``; ``ValueError`` when the record did not keep it."""
        if self.kept is None:
            return self.fields[n]
        row = int(np.searchsorted(self.kept, n))
        if row == self.kept.size or self.kept[row] != n:
            raise ValueError(f"step {n} is not kept; this record keeps steps {self.kept.tolist()}")
        return self.fields[row]

    @cached_property
    def norms(self) -> NormSeries:
        """The per-step L2 and sup norms of the run, read-only.

        This is the one reduction of the fields to per-step norms: ``norms.tsv``,
        the boundedness and decay certificates and the weak form's solution
        scale all read it.  A streamed record's are its run's; a full
        record's are computed on first read, one window of ``fields`` at a
        time, with the same formulas (:func:`_reduce_norms`).  It uses the
        accepted fields and the grid's quadrature alone, no weight, memory
        provider or operator of the stepper, so the certificates that read
        it stay independent of it.
        """
        if self.streamed_norms is not None:
            return self.streamed_norms
        U = self.fields
        q = self.spec.grid.quadrature_weights()
        l2, sup = np.empty(len(U)), np.empty(len(U))
        rows = _window_rows(U.shape[1])
        for k in range(0, len(U), rows):
            _reduce_norms(U[k : k + rows], q, l2[k : k + rows], sup[k : k + rows])
        l2.flags.writeable = sup.flags.writeable = False
        return NormSeries(times=self.times, l2=l2, sup=sup)


# Iteration cap of the 2D CG solves; reaching it fails the step.  With the
# sine-transform preconditioner the count grows like sqrt(lam / nu) and not
# with the mesh.  Stopped at the forcing term, the solves take 1 per solve for
# a constant law; for the porous law (lam / nu = 1.5) at most 2 per solve on
# 65^2 nodes (32 steps, T = 10) and on 129^2 nodes at alpha = 0.8.  For
# a = 1 + 50 sin^2(3y) (lam / nu = 51) on [0, pi]^2 with 33^2 nodes, data
# sin x sin y and 4 steps to T = 10, CG takes up to 14 per solve.
_KRYLOV_MAXITER = 500
# Each 2D correction's CG solve stops at _FORCING times the 2-norm of the step's nonlinear
# residual (or at 0.1 * tol, whichever is larger).  0.1 takes more corrections and fewer CG
# iterations (609 against 535 corrections on 65^2 nodes, 128 steps, T = 10) and ran 3-13%
# faster on the 2D porous runs measured; 0.01 keeps every 2D trajectory as it is.
_FORCING = 0.01
# max |r| as ``_max(abs(r))``, without ndarray.max's Python wrapper
_max = np.maximum.reduce


def spsolve(M, b, *, nu: float, atol: float) -> np.ndarray:
    """Solve ``M x = b`` for the interior unknowns of ``M.grid``; ``x`` is zero on the boundary.

    ``M`` is a step matrix or, in 1D, a Jacobian as the :mod:`subdiff.spatial`
    builders return it, with ``M.shift`` on its interior diagonal and
    coefficients at least ``nu``; the boundary entries of ``b`` are ignored.
    In 1D ``M`` is a :class:`~subdiff.spatial.LineOperator` and its interior
    block's three diagonals (``M.band()``) go to LAPACK: ``M``'s first solve
    is one ``dgtsv`` call (Gaussian elimination with partial pivoting) that
    keeps nothing, so an operator solved once pays for one call.  Its second
    solve factors it with ``dgttrf`` and ``M.factors`` keeps the read-only
    factors; that solve and every later one is one exact ``dgttrs``
    back-substitution with them.  ``dgttrf`` pivots as ``dgtsv`` does, and
    without row interchanges, as on the diagonally dominant step matrices,
    the two paths make the same operations, so every solve gives the bits
    of ``dgtsv``.  Both LAPACK calls solve in place in the interior of the
    result, a new copy of ``b``, and ``dgtsv`` overwrites the band
    ``band()`` has just formed, so f2py copies no array; ``b`` and ``M``'s
    arrays and factors are never written, and the result shares memory with
    none of them.  A singular block is not kept, so each solve with it
    raises; any other 1D operator (a stacked one) raises ``ValueError``.  In
    2D ``M`` is a symmetric step matrix, solved by conjugate
    gradients preconditioned by the sine-transform solve of
    ``M.shift I + nu (-Delta_h)`` and stopped once the recursively updated
    residual's 2-norm is at most ``atol``; its vectors keep the full length
    with zero boundary entries, so the face-flux product ``M @ p`` is the
    interior-block product.  Raises ``numpy.linalg.LinAlgError`` for an
    exactly singular tridiagonal block or when CG reaches
    ``_KRYLOV_MAXITER`` iterations.

    This is the package's one linear-solve call, and its name marks the
    boundary of the linear-solve layer: ``bench/tracing.py`` times the
    layer by wrapping ``subdiff.solver.spsolve``.
    """
    grid = M.grid
    if grid.dim == 1:
        if not isinstance(M, LineOperator):
            raise ValueError(f"a 1D solve needs the LineOperator of one state, got a {type(M).__name__}: "
                             "a stacked operator supports only the product")
        dgtsv, dgttrf, dgttrs = _tridiagonal_lapack()
        x = np.array(b, dtype=float)  # the result's own buffer: LAPACK solves in its interior, in place
        x[0] = x[-1] = 0.0
        interior = x[1:-1]
        factors, info = M.factors, 0
        if factors is None:  # the first solve: one call, and () marks the operator as solved once
            # overwrite_dl, _d, _du and _b, passed by position (f2py parses keywords slowly): the band is
            # band()'s fresh temporaries, so f2py copies none of the four arrays
            *_, info = dgtsv(*M.band(), interior, 1, 1, 1, 1)
            factors = ()
        elif not factors:  # the second solve factors it, for this solve and every later one
            *factors, info = dgttrf(*M.band())
            for f in factors:
                f.setflags(write=False)
            factors = tuple(factors)
        if info > 0:
            raise np.linalg.LinAlgError(f"tridiagonal interior block is singular (zero pivot {info})")
        if factors:
            dgttrs(*factors, interior, "N", 1)  # trans, overwrite_b
        M.factors = factors
        return x
    b = np.where(grid.boundary_mask, 0.0, b)
    return _pcg(M, b, _sine_preconditioner(grid, M.shift, nu), atol, _KRYLOV_MAXITER)[0]


@cache
def _tridiagonal_lapack():
    """LAPACK's tridiagonal solve, factorisation and back-substitution, imported on the first 1D solve.

    The 2D path loads no scipy.
    """
    from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs

    return dgtsv, dgttrf, dgttrs


@cache
def _sine_matrix(n: int) -> np.ndarray:
    """``S[j, k] = sin(pi (j + 1) (k + 1) / (n + 1))``, symmetric with ``S @ S = (n + 1) / 2 I``.  Read-only.

    The product ``(j + 1) (k + 1)`` is reduced modulo ``2 (n + 1)`` (the
    period) before the sine, so every entry is within about an ulp of 1 of the exact value.
    """
    jk = np.multiply.outer(np.arange(1, n + 1), np.arange(1, n + 1)) % (2 * (n + 1))
    S = np.sin(jk * (np.pi / (n + 1)))
    S.setflags(write=False)
    return S


@lru_cache(maxsize=1)
def _sine_preconditioner(grid: SpatialGrid, shift: float, nu: float):
    """``r -> (shift I + nu (-Delta_h))^{-1} r`` on the interior nodes of a 2D grid, zero on the boundary.

    Fast diagonalisation (Lynch, Rice & Thomas 1964): the sine matrices
    ``S_0, S_1`` of the two axes (:func:`_sine_matrix`) hold the
    eigenvectors of the interior Laplacian, so with ``R`` the interior of
    ``r`` the solve is ``c S_0 ((S_0 R S_1) / (shift + nu lambda)) S_1``, with
    ``lambda`` the grid's :attr:`~subdiff.spatial.SpatialGrid.dirichlet_eigenvalues`
    and ``c = 4 / ((n_0 + 1) (n_1 + 1))``.  That is four dense matmuls, with
    no FFT.  Their O(n^3) cost beats a fast sine transform up to about 257
    nodes per axis and loses beyond.  The solve is pure in its arguments, so
    the last one built is kept: the corrections of a step share its shift
    ``w_nn`` and build it once.
    """
    n0, n1 = grid.dirichlet_eigenvalues.shape
    S0, S1 = _sine_matrix(n0), _sine_matrix(n1)
    scaled_inverse = (4.0 / ((n0 + 1) * (n1 + 1))) / (shift + nu * grid.dirichlet_eigenvalues)

    def apply(r):
        z = np.zeros(grid.shape)
        z[1:-1, 1:-1] = S0 @ ((S0 @ r.reshape(grid.shape)[1:-1, 1:-1] @ S1) * scaled_inverse) @ S1
        return z.ravel()

    return apply


def _pcg(M, r, precond, atol: float, maxiter: int):
    """Preconditioned conjugate gradients for ``M x = r`` from ``x = 0``; returns ``(x, iterations)``.

    Stops once the (recursively updated) residual's 2-norm is at most
    ``atol``; raises ``numpy.linalg.LinAlgError`` after ``maxiter`` iterations.
    The residual is updated in place in ``r``, the right-hand side
    :func:`spsolve` has just built, so it is not copied.
    """
    x = np.zeros_like(r)
    if np.sqrt(r @ r) <= atol:
        return x, 0
    p = z = precond(r)
    rz = r @ z
    for it in range(1, maxiter + 1):
        q = M @ p
        step = rz / (p @ q)
        x += step * p
        r -= step * q
        res = np.sqrt(r @ r)
        if res <= atol:
            return x, it
        z = precond(r)
        rz, rz_prev = r @ z, rz
        p = z + (rz / rz_prev) * p
    raise np.linalg.LinAlgError(f"CG reached {maxiter} iterations at residual {res:.3e} > {atol:.3e}")


class _Run(NamedTuple):
    """What every step of one run reads, bound once by :func:`run_trajectory`."""

    spec: ProblemSpec
    grid: SpatialGrid
    law: DiffusionLaw
    ends: tuple | None  # 1D: the boundary data of nodes 0 and n - 1, as floats; 2D: None (the boundary mask)
    newton: bool  # Newton corrections: mode newton and a law that is not constant
    tol: float
    max_iter: int
    timers: dict


def _solve_step(run, w_nn, memory, f_n, n, step_matrix, product, u_prev, start):
    """One step of the correction loop; returns ``(field, iterations, residual, halvings, product)``.

    ``run`` is what the steps of the run share (:class:`_Run`).  The loop
    starts from the iterate ``start``, which holds the boundary data exactly
    (``u_prev`` or its extrapolation).  ``step_matrix`` is the
    iterate-independent ``K`` of a constant law, which every correction then
    uses as its matrix, or None to assemble per iterate.  ``product`` is
    ``K @ start`` when the caller already has it (None to compute it); the
    returned ``product`` is ``K @ field``, the accepted iterate's product.
    Each iterate's state is ``(v, K, K v, r)``: ``K = K(v)``, assembled here
    unless the law is constant, is the residual's operator, Picard's matrix
    and the face coefficients of Newton's Jacobian, and ``r = K v - rhs`` is
    exactly 0 on the boundary, where ``v`` holds the data.  An operator
    assembled at ``v`` forms ``K v`` from the face differences it keeps
    (``K.at_state(v)``).
    """
    spec, grid, law, ends, newton, tol, max_iter, timers = run
    rhs = w_nn * u_prev
    rhs -= memory
    if f_n is not None:
        rhs += f_n
    if ends is None:
        rhs[grid.boundary_mask] = spec.boundary
    else:
        rhs[0], rhs[-1] = ends
    atol = 0.1 * tol

    t0 = perf_counter()
    v, K, Kv = start, step_matrix, product
    if K is None:
        K = assemble_quasilinear_operator(grid, law, v, shift=w_nn)
        Kv = K.at_state(v)
    elif Kv is None:
        Kv = K @ v
    r = Kv - rhs
    timers["assembly"] += perf_counter() - t0
    theta, halvings = 1.0, 0
    best, best_res = (v, K, Kv, r), np.inf
    for it in range(1, max_iter + 1):
        if grid.dim > 1:  # CG stops at a forcing term relative to the step residual
            atol = max(0.1 * tol, _FORCING * np.sqrt(r @ r))
        t0 = perf_counter()
        # only the a' terms are new; a constant law's K is its Jacobian
        M = newton_jacobian(law, v, K) if newton else K
        t1 = perf_counter()
        try:
            delta = spsolve(M, -r, nu=law.nu, atol=atol)
        except np.linalg.LinAlgError as exc:
            raise _failure(spec, n, best[0], float(_max(abs(r))), it, halvings, f"linear solve failed: {exc}") from exc
        t2 = perf_counter()
        timers["assembly"] += t1 - t0
        timers["linear_solve"] += t2 - t1
        v = v + delta if theta == 1.0 else v + theta * delta
        t0 = perf_counter()
        if step_matrix is None:
            K = assemble_quasilinear_operator(grid, law, v, shift=w_nn)
            Kv = K.at_state(v)
        else:
            Kv = K @ v
        r = Kv - rhs
        timers["assembly"] += perf_counter() - t0
        res = float(_max(abs(r)))
        if res <= tol:
            return v, it, res, halvings, Kv
        if res < best_res:
            best, best_res = (v, K, Kv, r), res
            continue
        if halvings == 3:
            break
        halvings += 1
        theta *= 0.5
        v, K, Kv, r = best
    raise _failure(
        spec, n, best[0], res, it, halvings,
        f"no convergence in {it} iterations, {halvings} halvings (residual {res:.3e} > tol {tol:g})",
    )


def _failure(spec, n, last_iterate, residual, iterations, halvings, message) -> StepFailure:
    return StepFailure(
        step=n,
        t=float(spec.time_grid.nodes[n]),
        residual=residual,
        iterations=iterations,
        last_iterate=last_iterate,
        message=f"step {n}: {message}",
        halvings=halvings,
    )


def _drain(window, base, q, l2, sup, kept, out, j) -> int:
    """Reduce ``window``, the fields of steps ``base, base + 1, ...``, to their norms and copy out its kept rows.

    The norms go to ``l2`` and ``sup`` at those steps; ``out[j]`` and the
    rows after it take the fields of the steps ``kept[j], ...`` that lie in
    the window.  Returns the index into ``kept`` of the next row to keep.
    """
    end = base + len(window)
    _reduce_norms(window, q, l2[base:end], sup[base:end])
    while j < len(kept) and kept[j] < end:
        out[j] = window[kept[j] - base]
        j += 1
    return j


def run_trajectory(spec: ProblemSpec, options: SolverOptions | None = None, keep=None) -> Trajectory:
    """March the full trajectory.

    The memory term comes from one memory provider, chosen before the loop:
    :class:`~subdiff.kernels.DirectHistory` (exact, O(M^2) total) or the
    sum-of-exponentials :class:`~subdiff.kernels.CompressedHistory` (O(modes)
    per step), both on any grid.  Timings for assembly, memory accumulation,
    and linear solves are recorded separately so the two providers can be
    compared honestly.  ``assembly`` covers the step matrices and Jacobians
    and also the residual products ``K(v) v``, which are most of it for a
    constant law.

    ``keep`` None returns a full record, every step's field.  Step indices
    return a streamed record: the loop writes each accepted field into a
    reused window of about ``_WINDOW_VALUES`` values (at least 3 rows, so
    ``u_{n-1}`` and ``u_{n-2}`` carry over), reduces each full window to its
    per-step L2 and sup norms, and copies out only the fields of the steps
    in ``keep`` and of the final step.  The fields then take memory that
    does not grow with the step count, and every kept field and norm is
    bitwise that of the full record.  Raises ``ValueError`` before any step
    for a 2D problem in Newton mode and for a step in ``keep`` outside
    ``0..M``.
    """
    options = options or SolverOptions()
    if options.mode == "newton" and spec.grid.dim > 1:
        raise ValueError(f"solver mode 'newton' solves 1D problems only; this problem is {spec.grid.dim}D")
    tg = spec.time_grid
    grid, law = spec.grid, spec.law
    M = tg.steps
    n_nodes = grid.n_nodes
    streamed = keep is not None
    if streamed:
        kept = sorted({operator.index(n) for n in keep} | {M})
        if kept[0] < 0 or kept[-1] > M:
            raise ValueError(f"keep names step {kept[0] if kept[0] < 0 else kept[-1]}, outside the run's steps 0..{M}")
    weights = L1Weights(alpha=spec.alpha, grid=tg)

    timers = {"assembly": 0.0, "memory": 0.0, "linear_solve": 0.0, "compression_build": 0.0, "total": 0.0}
    if options.history == "compressed":
        t0 = perf_counter()
        history = compress_history(weights, options.eps_compress)
        history.reset((n_nodes,))
        timers["compression_build"] = perf_counter() - t0
        timers["compression_modes"] = history.n_modes
    else:
        history = DirectHistory(weights)
        history.reset((n_nodes,))

    t_start = perf_counter()
    points = grid.points()
    # a(u) == nu: the step matrix w_nn I_int + A is the same for every iterate
    constant = law.nu == law.lam
    ends = tuple(spec.boundary.tolist()) if grid.dim == 1 else None  # 1D: the data of nodes 0 and n - 1
    run = _Run(spec, grid, law, ends, options.mode == "newton" and not constant, options.tol, options.max_iter, timers)
    memory_term, push, source_at = history.memory_term, history.push, spec.source_at
    # the field of step n sits in row n % rows: a full record's rows are every step, a streamed one's a window
    rows = min(M + 1, _window_rows(n_nodes)) if streamed else M + 1
    last = rows - 1 if streamed else -1  # a streamed run drains its window after the step in its last row
    U = np.empty((rows, n_nodes))
    U[0] = spec.u0
    U[0][grid.boundary_mask] = spec.boundary
    if streamed:
        q = grid.quadrature_weights()
        l2, sup, out, drained = np.empty(M + 1), np.empty(M + 1), np.empty((len(kept), n_nodes)), 0
    iterations, halvings, residuals = [0] * (M + 1), [0] * (M + 1), [0.0] * (M + 1)

    w_last, K = None, None  # w_nn of the last step matrix of a constant law, and that matrix
    product = None  # K @ u_prev, the accepted product of the last step, while K stays the step matrix
    # Extrapolate the start only once a step has needed more than one correction:
    # a linear step converges in one from any start, so a predictor there changes rounding only.
    predict = False
    tau = tg.tau.tolist()
    diagonal = weights.diagonal()  # w_nn of step n at n - 1

    t0 = perf_counter()
    memory = memory_term()
    timers["memory"] += perf_counter() - t0
    u_prev = U[0]
    for n in range(1, M + 1):
        w_nn = diagonal[n - 1]
        if constant and w_nn != w_last:
            t0 = perf_counter()
            K = assemble_quasilinear_operator(grid, law, u_prev, shift=w_nn)
            timers["assembly"] += perf_counter() - t0
            w_last, product = w_nn, None

        f_n = source_at(n, points)
        args = (run, w_nn, memory, f_n, n, K)
        predict = predict or iterations[n - 1] > 1
        # u_{n-1} - u_{n-2} is exactly 0 on the boundary, so the extrapolation holds the data bitwise
        start = u_prev + (tau[n - 1] / tau[n - 2]) * (u_prev - U[(n - 2) % rows]) if predict else u_prev
        slot = n % rows
        try:
            U[slot], iterations[n], residuals[n], halvings[n], accepted = _solve_step(
                *args, product if start is u_prev else None, u_prev, start
            )
        except StepFailure as exc:
            if start is u_prev:
                raise
            # the unpredicted start is the fallback; the step's counts cover both attempts
            U[slot], its, residuals[n], halves, accepted = _solve_step(*args, product, u_prev, u_prev)
            iterations[n], halvings[n] = exc.iterations + its, exc.halvings + halves
        product = accepted if constant else None

        # the push of step n and the query of step n + 1, one memory interval
        t0 = perf_counter()
        push(U[slot] - u_prev)
        if n < M:
            memory = memory_term()
        timers["memory"] += perf_counter() - t0
        u_prev = U[slot]
        if slot == last:
            drained = _drain(U, n - last, q, l2, sup, kept, out, drained)

    if streamed:
        if M % rows != last:  # the last window, not full
            _drain(U[: M % rows + 1], M - M % rows, q, l2, sup, kept, out, drained)
        fields, kept, norms = out, np.array(kept), NormSeries(tg.nodes, l2, sup)
        l2.flags.writeable = sup.flags.writeable = kept.flags.writeable = False
    else:
        fields, kept, norms = U, None, None
    timers["total"] = perf_counter() - t_start + timers["compression_build"]
    arrays = [fields, np.array(iterations), np.array(halvings), np.array(residuals)]
    for a in arrays:
        a.flags.writeable = False
    return Trajectory(spec, options, weights, *arrays, timings=timers, kept=kept, streamed_norms=norms)
