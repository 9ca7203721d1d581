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
``K(v)`` and evaluates only the ``a'`` face terms, and only when a correction
follows, never at the accepted iterate.  Every one of these products is the
face-flux sum of :class:`~subdiff.spatial.StencilOperator`.  A constant law
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
needs no norm.  A solve that reaches the iteration cap fails the step.

Trajectories involve no randomness, so a rerun on the same machine with the
same BLAS thread count reproduces them bitwise.  They are not bitwise
identical across BLAS thread counts: the history sums and the CG inner
products use BLAS dot products, whose reduction order follows the thread
count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cache

import numpy as np

from .kernels import DirectHistory, L1Weights, TimeGrid, compress_history
from .spatial import (
    DiffusionLaw,
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


@dataclass(eq=False)
class Trajectory:
    """Fields at every time node plus per-step solver bookkeeping.

    ``weights`` are the run's L1 weights.  A direct run's memory walk has
    evaluated them, and on a graded grid they keep the row margins of that
    walk for the convexity certificate.
    """

    spec: ProblemSpec
    options: SolverOptions
    weights: L1Weights
    fields: np.ndarray  # (steps + 1, n_nodes)
    iterations: np.ndarray  # (steps + 1,), [0] == 0
    halvings: np.ndarray  # (steps + 1,), damping halvings per step, [0] == 0
    residuals: np.ndarray  # (steps + 1,), [0] == 0
    timings: dict

    @property
    def times(self) -> np.ndarray:
        return self.spec.time_grid.nodes


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


def spsolve(M, b, *, nu: float, atol: float) -> np.ndarray:
    """Solve ``M x = b`` for the interior unknowns of ``M.grid``; ``x`` is zero on the boundary.

    ``M`` is a step matrix or, in 1D, a Jacobian as the :mod:`subdiff.spatial`
    builders return it (a :class:`~subdiff.spatial.StencilOperator`), with
    ``M.shift`` on its interior diagonal and coefficients at least ``nu``;
    the boundary entries of ``b`` are ignored.  In 1D the interior block's
    three diagonals (``M.tridiagonal()``) go to LAPACK: ``M``'s first solve
    is one ``dgtsv`` call (Gaussian elimination with partial pivoting) that
    keeps nothing, so an operator solved once pays for one call.  Its second
    solve factors it with ``dgttrf`` and ``M`` keeps the read-only factors;
    that solve and every later one is one exact ``dgttrs``
    back-substitution with them.  ``dgttrf`` pivots as ``dgtsv`` does, and
    without row interchanges, as on the diagonally dominant step matrices,
    the two paths make the same operations, so every solve gives the bits
    of ``dgtsv``.  A singular block is not kept, so each solve with it
    raises.  In 2D ``M`` is a symmetric step matrix, solved by conjugate
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
        dgtsv, dgttrf, dgttrs = _tridiagonal_lapack()
        x = np.zeros(grid.n_nodes)
        factors, info = M._factors, 0
        if factors is None:  # the first solve: one call, and () marks the operator as solved once
            *_, x[1:-1], info = dgtsv(*M.tridiagonal(), b[1:-1])
            factors = ()
        elif not factors:  # the second solve factors it, for this solve and every later one
            *factors, info = dgttrf(*M.tridiagonal())
            for f in factors:
                f.setflags(write=False)
            factors = tuple(factors)
        if info > 0:
            raise np.linalg.LinAlgError(f"tridiagonal interior block is singular (zero pivot {info})")
        if factors:
            x[1:-1], _ = dgttrs(*factors, b[1:-1])
        M._factors = factors
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


def _sine_preconditioner(grid: SpatialGrid, shift: float, nu: float):
    """``r -> (shift I + nu (-Delta_h))^{-1} r`` on the interior nodes of a 2D grid, zero on the boundary.

    Fast diagonalisation (Lynch, Rice & Thomas 1964): the sine matrices
    ``S_0, S_1`` of the two axes (:func:`_sine_matrix`) hold the
    eigenvectors of the interior Laplacian, so with ``R`` the interior of
    ``r`` the solve is ``c S_0 ((S_0 R S_1) / (shift + nu lambda)) S_1``, with
    ``lambda`` the grid's :attr:`~subdiff.spatial.SpatialGrid.dirichlet_eigenvalues`
    and ``c = 4 / ((n_0 + 1) (n_1 + 1))``.  That is four dense matmuls, with
    no FFT.  Their O(n^3) cost beats a fast sine transform up to about 257
    nodes per axis and loses beyond.
    """
    n0, n1 = grid.dirichlet_eigenvalues.shape
    S0, S1 = _sine_matrix(n0), _sine_matrix(n1)
    scaled_inverse = (4.0 / ((n0 + 1) * (n1 + 1))) / (shift + nu * grid.dirichlet_eigenvalues)

    def apply(r):
        z = np.zeros(grid.shape)
        z[1:-1, 1:-1] = S0 @ ((S0 @ r.reshape(grid.shape)[1:-1, 1:-1] @ S1) * scaled_inverse) @ S1
        return z.ravel()

    return apply


def _pcg(M, b, precond, atol: float, maxiter: int):
    """Preconditioned conjugate gradients from ``x = 0``; returns ``(x, iterations)``.

    Stops once the (recursively updated) residual's 2-norm is at most
    ``atol``; raises ``numpy.linalg.LinAlgError`` after ``maxiter`` iterations.
    """
    x = np.zeros_like(b)
    r = b.copy()
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


def _solve_step(spec, w_nn, memory, u_prev, f_n, options, timers, n, step_matrix, product, start):
    """One step of the correction loop; returns ``(field, iterations, residual, halvings, product)``.

    The loop starts from the iterate ``start``, which holds the boundary data
    exactly (``u_prev`` or its extrapolation).  ``step_matrix`` is the
    iterate-independent ``K`` of a constant law, which every correction then
    uses as its matrix, or None to assemble per iterate.  ``product`` is
    ``K @ start`` when the caller already has it (None to compute it); the
    returned ``product`` is ``K @ field``, the accepted iterate's product.
    """
    grid, law = spec.grid, spec.law
    rhs = w_nn * u_prev
    rhs -= memory
    if f_n is not None:
        rhs += f_n
    rhs[grid.boundary_mask] = spec.boundary

    def state(v, Kv=None):
        # K(v), assembled here unless the law is constant: the residual's operator, Picard's matrix
        # and the face coefficients of Newton's Jacobian
        t0 = time.perf_counter()
        K = assemble_quasilinear_operator(grid, law, v, shift=w_nn) if step_matrix is None else step_matrix
        if Kv is None:
            Kv = K @ v
        r = Kv - rhs  # exactly 0 on the boundary, where v holds the data
        timers["assembly"] += time.perf_counter() - t0
        return v, K, Kv, r

    def failure(res, it, message):
        return StepFailure(
            step=n,
            t=float(spec.time_grid.nodes[n]),
            residual=res,
            iterations=it,
            last_iterate=best[0],
            message=f"step {n}: {message}",
            halvings=halvings,
        )

    theta = 1.0
    halvings = 0
    current = best = state(start, product)
    best_res = np.inf
    for it in range(1, options.max_iter + 1):
        v, M, _, r = current
        if options.mode == "newton" and step_matrix is None:  # only the a' terms are new; a constant law's K is its Jacobian
            t0 = time.perf_counter()
            M = newton_jacobian(law, v, M)
            timers["assembly"] += time.perf_counter() - t0
        atol = 0.1 * options.tol
        if grid.dim > 1:  # CG stops at a forcing term relative to the step residual
            atol = max(atol, _FORCING * np.sqrt(r @ r))
        t0 = time.perf_counter()
        try:
            delta = spsolve(M, -r, nu=law.nu, atol=atol)
        except np.linalg.LinAlgError as exc:
            raise failure(float(np.abs(r).max()), it, f"linear solve failed: {exc}") from exc
        timers["linear_solve"] += time.perf_counter() - t0
        current = state(v + delta if theta == 1.0 else v + theta * delta)
        res = float(np.abs(current[3]).max())
        if res <= options.tol:
            return current[0], it, res, halvings, current[2]
        if res < best_res:
            best, best_res = current, res
            continue
        if halvings == 3:
            break
        halvings += 1
        theta *= 0.5
        current = best
    raise failure(
        res, it, f"no convergence in {it} iterations, {halvings} halvings (residual {res:.3e} > tol {options.tol:g})"
    )


def run_trajectory(spec: ProblemSpec, options: SolverOptions | None = None) -> Trajectory:
    """March the full trajectory.

    The memory term comes from one memory provider, chosen before the loop:
    :class:`~subdiff.kernels.DirectHistory` (exact, O(M^2) total) or the
    sum-of-exponentials :class:`~subdiff.kernels.CompressedHistory` (O(modes)
    per step), both on any grid.  Timings for assembly, memory accumulation,
    and linear solves are recorded separately so the two providers can be
    compared honestly.  ``assembly`` covers the step matrices and Jacobians
    and also the residual products ``K(v) v``, which are most of it for a
    constant law.  Raises ``ValueError`` before any step for a 2D problem in
    Newton mode.
    """
    options = options or SolverOptions()
    if options.mode == "newton" and spec.grid.dim > 1:
        raise ValueError(f"solver mode 'newton' solves 1D problems only; this problem is {spec.grid.dim}D")
    tg = spec.time_grid
    grid = spec.grid
    M = tg.steps
    n_nodes = grid.n_nodes
    weights = L1Weights(alpha=spec.alpha, grid=tg)

    timers = {"assembly": 0.0, "memory": 0.0, "linear_solve": 0.0, "compression_build": 0.0, "total": 0.0}
    if options.history == "compressed":
        t0 = time.perf_counter()
        history = compress_history(weights, options.eps_compress)
        history.reset((n_nodes,))
        timers["compression_build"] = time.perf_counter() - t0
        timers["compression_modes"] = history.n_modes
    else:
        history = DirectHistory(weights)
        history.reset((n_nodes,))

    t_start = time.perf_counter()
    points = grid.points()
    U = np.empty((M + 1, n_nodes))
    U[0] = spec.u0
    U[0][grid.boundary_mask] = spec.boundary
    iterations = np.zeros(M + 1, dtype=int)
    halvings = np.zeros(M + 1, dtype=int)
    residuals = np.zeros(M + 1)

    # a(u) == nu: the step matrix w_nn I_int + A is the same for every iterate
    constant = spec.law.nu == spec.law.lam
    w_last, K = None, None  # w_nn of the last step matrix of a constant law, and that matrix
    product = None  # K @ U[n - 1], the accepted product of the last step, while K stays the step matrix
    # Extrapolate the start only once a step has needed more than one correction:
    # a linear step converges in one from any start, so a predictor there changes rounding only.
    predict = False
    tau = tg.tau

    for n in range(1, M + 1):
        t0 = time.perf_counter()
        memory = history.memory_term()
        timers["memory"] += time.perf_counter() - t0

        w_nn = weights.diag(n)
        if constant and w_nn != w_last:
            t0 = time.perf_counter()
            K = assemble_quasilinear_operator(grid, spec.law, U[n - 1], shift=w_nn)
            timers["assembly"] += time.perf_counter() - t0
            w_last, product = w_nn, None

        f_n = spec.source_at(n, points)
        u_prev = U[n - 1]
        args = (spec, w_nn, memory, u_prev, f_n, options, timers, n, K)
        predict = predict or iterations[n - 1] > 1
        # u_{n-1} - u_{n-2} is exactly 0 on the boundary, so the extrapolation holds the data bitwise
        start = u_prev + (tau[n - 1] / tau[n - 2]) * (u_prev - U[n - 2]) if predict else u_prev
        try:
            U[n], iterations[n], residuals[n], halvings[n], accepted = _solve_step(
                *args, product if start is u_prev else None, start
            )
        except StepFailure as exc:
            if start is u_prev:
                raise
            # the unpredicted start is the fallback; the step's counts cover both attempts
            U[n], its, residuals[n], halves, accepted = _solve_step(*args, product, u_prev)
            iterations[n], halvings[n] = exc.iterations + its, exc.halvings + halves
        product = accepted if constant else None

        t0 = time.perf_counter()
        history.push(U[n] - U[n - 1])
        timers["memory"] += time.perf_counter() - t0

    timers["total"] = time.perf_counter() - t_start + timers["compression_build"]
    return Trajectory(
        spec=spec,
        options=options,
        weights=weights,
        fields=U,
        iterations=iterations,
        halvings=halvings,
        residuals=residuals,
        timings=timers,
    )
