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
``M = K(v)``.  Newton takes the analytic Jacobian including the a'(u) terms:
:func:`~subdiff.spatial.newton_jacobian` shares the face coefficients of
``K(v)`` and evaluates only the ``a'`` face terms, and only when a correction
follows, never at the accepted iterate.  Every one of these products is the
face-flux sum of :class:`~subdiff.spatial.StencilOperator`.  A constant law
(``nu == lam``, so ``a(u) = nu``) has one ``K`` for every iterate, bitwise
equal to its Newton Jacobian: the driver assembles it once per distinct
``w_nn`` (once per run on a uniform time grid, once per step on a graded
one), and both iterations solve with it; its arrays are read-only.  The loop
runs undamped and, when the residual stops decreasing, returns to the best
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
bitwise equal to the data.  In 1D the interior block is tridiagonal and goes
to LAPACK's tridiagonal solver ``dgtsv``, for Picard and Newton alike; it is
imported from ``scipy.linalg.lapack`` on the first 1D solve, so a 2D run
loads no scipy module.  In 2D the interior Picard block is symmetric positive
definite and spectrally equivalent to ``w_nn I + nu (-Delta_h)`` within the
factor ``lam / nu`` of the law's bounds, so conjugate gradients
preconditioned by that constant-coefficient operator converge in a few
iterations on any mesh (Concus & Golub 1973).  The preconditioner is a fast
diagonalisation by the dense sine matrices of the two axes.  Newton's
Jacobian is not symmetric and uses the package's restarted GMRES with the
same preconditioner.  Both solve inexactly (Dembo, Eisenstat & Steihaug
1982): they stop when their tracked estimate of the linear residual's 2-norm
is at most ``max(0.1 * tol, _FORCING ||r||_2)``, with ``r`` the step's
current nonlinear residual.  A correction need not be more accurate than the
residual the next one starts from, so the forcing term trades a few more
corrections for far fewer Krylov iterations; near convergence ``0.1 * tol``
takes over, which bounds the max-norm the correction loop tests.  That test,
on the nonlinear residual, is the acceptance.  The 1D solve is exact and
needs no norm.  A solve that reaches the iteration cap fails the step.

Trajectories involve no randomness, so a rerun on the same machine with the
same BLAS thread count reproduces them bitwise.  They are not bitwise
identical across BLAS thread counts: the history sums and the Krylov inner
products use BLAS dot products, whose reduction order follows the thread
count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache

import numpy as np

from .kernels import DirectHistory, L1Weights, TimeGrid, compress_history
from .spatial import (
    DiffusionLaw,
    SpatialGrid,
    assemble_quasilinear_operator,
    ellipticity_check,
    newton_jacobian,
)

__all__ = [
    "ProblemSpec",
    "SolverOptions",
    "Trajectory",
    "StepFailure",
    "run_trajectory",
]


@dataclass(frozen=True)
class ProblemSpec:
    """A complete subdiffusion problem instance.

    ``source`` is None (zero forcing), a callable ``f(t, points) -> values``
    over the flattened node set, or a precomputed array of shape
    ``(steps + 1, n_nodes)``.  ``boundary`` is the time-constant Dirichlet
    datum: a scalar or an array over the boundary nodes (in flattened node
    order).  The initial state must match it on the boundary; ``validate``
    checks that compatibility condition and the declared ellipticity range.
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
        object.__setattr__(self, "u0", u0)

    def boundary_values(self) -> np.ndarray:
        """Dirichlet data expanded over the boundary nodes."""
        n_bdry = int(self.grid.boundary_mask.sum())
        g = np.asarray(self.boundary, dtype=float).ravel()
        if g.size == 1:
            return np.full(n_bdry, float(g[0]))
        if g.size != n_bdry:
            raise ValueError(f"boundary data has {g.size} values for {n_bdry} boundary nodes")
        return g

    def source_at(self, n: int, points: np.ndarray) -> np.ndarray | None:
        if self.source is None:
            return None
        if callable(self.source):
            t = float(self.time_grid.nodes[n])
            vals = np.asarray(self.source(t, points), dtype=float).ravel()
            if vals.size != self.grid.n_nodes:
                raise ValueError("source callable returned the wrong number of values")
            return vals
        arr = np.asarray(self.source, dtype=float)
        if arr.shape != (self.time_grid.steps + 1, self.grid.n_nodes):
            raise ValueError(
                "source array must have shape (steps + 1, n_nodes) = "
                f"({self.time_grid.steps + 1}, {self.grid.n_nodes}), got {arr.shape}"
            )
        return arr[n]

    def has_zero_data(self) -> bool:
        """True when f == 0 and g == 0 (the decay-theory setting)."""
        g_zero = bool(np.all(self.boundary_values() == 0.0))
        if self.source is None:
            return g_zero
        if callable(self.source):
            return False
        return g_zero and bool(np.all(np.asarray(self.source) == 0.0))

    def validate(self) -> None:
        """Compatibility and ellipticity preconditions for a run."""
        g = self.boundary_values()
        mismatch = float(np.max(np.abs(self.u0[self.grid.boundary_mask] - g), initial=0.0))
        scale = max(1.0, float(np.max(np.abs(self.u0))), float(np.max(np.abs(g), initial=0.0)))
        if mismatch > 1e-12 * scale:
            raise ValueError(
                f"initial state and boundary data disagree on the boundary "
                f"(max mismatch {mismatch:.3e}); the compatibility condition fails"
            )
        lo = min(float(self.u0.min()), float(g.min(initial=0.0)))
        hi = max(float(self.u0.max()), float(g.max(initial=0.0)))
        pad = 0.5 * (hi - lo) + 1.0
        report = ellipticity_check(self.law, (lo - pad, hi + pad))
        if not report.passed:
            raise ValueError(
                f"diffusion law '{self.law.tag}' leaves its declared bounds "
                f"[{self.law.nu}, {self.law.lam}] on [{report.y_range[0]:.3g}, "
                f"{report.y_range[1]:.3g}]: observed [{report.min_a:.6g}, {report.max_a:.6g}]"
            )


@dataclass(frozen=True)
class SolverOptions:
    mode: str = "picard"  # "picard" | "newton"
    tol: float = 1e-10
    max_iter: int = 50
    history: str = "direct"  # "direct" | "compressed"
    eps_compress: float = 1e-8

    def __post_init__(self) -> None:
        if self.mode not in ("picard", "newton"):
            raise ValueError(f"unknown solver mode {self.mode!r}")
        if self.history not in ("direct", "compressed"):
            raise ValueError(f"unknown history mode {self.history!r}")
        if self.tol <= 0.0 or self.max_iter < 1 or self.eps_compress <= 0.0:
            raise ValueError("tol and eps_compress must be positive, max_iter >= 1")


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


@dataclass
class Trajectory:
    """Fields at every time node plus per-step solver bookkeeping."""

    spec: ProblemSpec
    options: SolverOptions
    fields: np.ndarray  # (steps + 1, n_nodes)
    iterations: np.ndarray  # (steps + 1,), [0] == 0
    halvings: np.ndarray  # (steps + 1,), damping halvings per step, [0] == 0
    residuals: np.ndarray  # (steps + 1,), [0] == 0
    timings: dict

    @property
    def times(self) -> np.ndarray:
        return self.spec.time_grid.nodes


# Iteration cap of the 2D Krylov solves; reaching it fails the step.  With the
# sine-transform preconditioner the count grows like sqrt(lam / nu) and not
# with the mesh.  Stopped at the forcing term, the solves take 1 per solve for
# a constant law; for the porous law (lam / nu = 1.5) at most 2 per solve, CG
# and GMRES alike, on 65^2 nodes (32 steps, T = 10) and on 129^2 nodes at
# alpha = 0.8.  For a = 1 + 50 sin^2(3y) (lam / nu = 51) on [0, pi]^2 with
# 33^2 nodes, data sin x sin y and 4 steps to T = 10, CG takes up to 14 per
# solve and Picard stops at max_iter on step 1 (residual 2.3e-6); GMRES takes
# 25 on the first Newton correction and then stalls at the cap.
# GMRES counts every inner iteration towards the cap.
_KRYLOV_MAXITER = 500
_GMRES_RESTART = 20
# Each 2D correction's Krylov solve stops at _FORCING times the 2-norm of the step's
# nonlinear residual (or at 0.1 * tol, whichever is larger).  0.1 leaves Picard one CG
# iteration per correction but slows 2D Newton; 0.01 speeds up both.
_FORCING = 0.01


def spsolve(M, b, *, nu: float, atol: float, symmetric: bool) -> np.ndarray:
    """Solve ``M x = b`` for the interior unknowns of ``M.grid``; ``x`` is zero on the boundary.

    ``M`` is a step matrix or Jacobian as the :mod:`subdiff.spatial`
    builders return it (a :class:`~subdiff.spatial.StencilOperator`), with
    ``M.shift`` on its interior diagonal and coefficients at least ``nu``;
    the boundary entries of ``b`` are ignored.  In 1D the interior block's
    three diagonals (``M.tridiagonal()``) go to LAPACK ``dgtsv`` (Gaussian
    elimination with partial pivoting), which is exact.  It works on copies,
    so ``M`` is left as it was.  In 2D ``symmetric`` selects preconditioned
    CG (Picard) or GMRES (Newton), both preconditioned by the sine-transform
    solve of ``M.shift I + nu (-Delta_h)`` and stopped once their tracked
    estimate of the 2-norm of ``b - M x`` is at most ``atol`` (CG's
    recursively updated residual, GMRES's least-squares residual; GMRES
    restarts every ``_GMRES_RESTART`` iterations); their vectors keep the
    full length with zero boundary entries, so the face-flux product
    ``M @ p`` is the interior-block product.  Raises
    ``numpy.linalg.LinAlgError`` for an exactly singular tridiagonal block or
    when a Krylov solve reaches ``_KRYLOV_MAXITER`` iterations.

    This is the package's one linear-solve call, and its name marks the
    boundary of the linear-solve layer: ``bench/tracing.py`` times the
    layer by wrapping ``subdiff.solver.spsolve``.
    """
    grid = M.grid
    if grid.dim == 1:
        x = np.zeros(grid.n_nodes)
        *_, x[1:-1], info = _dgtsv()(*M.tridiagonal(), b[1:-1])
        if info > 0:
            raise np.linalg.LinAlgError(f"tridiagonal interior block is singular (zero pivot {info})")
        return x
    b = np.where(grid.boundary_mask, 0.0, b)
    precond = _sine_preconditioner(grid, M.shift, nu)
    if symmetric:
        return _pcg(M, b, precond, atol, _KRYLOV_MAXITER)[0]
    return _gmres(M, b, precond, atol, _KRYLOV_MAXITER)[0]


@cache
def _dgtsv():
    """LAPACK's tridiagonal solver, imported on the first 1D solve: the 2D path loads no scipy."""
    from scipy.linalg.lapack import dgtsv

    return dgtsv


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


def _gmres(M, b, precond, atol: float, maxiter: int):
    """Right-preconditioned restarted GMRES from ``x = 0``; returns ``(x, iterations)``.

    A cycle of at most ``_GMRES_RESTART`` iterations builds an orthonormal
    basis of the Krylov space of ``M P`` (``P`` the preconditioner) by
    classical Gram-Schmidt, applied twice, and tracks the least-squares
    residual by Givens rotations.  The solve returns after the cycle whose
    estimate is at most ``atol``; a cycle that reaches ``_GMRES_RESTART``
    iterations first restarts from the true residual ``b - M x``.  Like
    :func:`_pcg`, it stops on the tracked residual and not the true one: at
    roundoff level the true residual of a large ``x`` can stall just above
    ``atol``, and the correction loop's max-norm test is the acceptance.
    Raises ``numpy.linalg.LinAlgError`` after ``maxiter`` iterations in all.
    """
    x = np.zeros_like(b)
    iterations = 0
    while True:
        r = b - M @ x
        beta = np.sqrt(r @ r)
        if beta <= atol:
            return x, iterations
        if iterations == maxiter:
            raise np.linalg.LinAlgError(f"GMRES reached {maxiter} iterations at residual {beta:.3e} > {atol:.3e}")
        m = min(_GMRES_RESTART, maxiter - iterations)
        V = np.empty((m + 1, b.size))  # the Krylov basis
        Z = np.empty((m, b.size))  # its preconditioned vectors, which x is combined from
        H = np.zeros((m + 1, m))  # the Hessenberg matrix, rotated into a triangle column by column
        g = np.zeros(m + 1)  # the rotated right-hand side beta e_1
        g[0] = beta
        V[0] = r / beta
        rotations = []
        for j in range(m):
            iterations += 1
            Z[j] = precond(V[j])
            w = M @ Z[j]
            for _ in range(2):
                h = V[: j + 1] @ w
                w -= h @ V[: j + 1]
                H[: j + 1, j] += h
            H[j + 1, j] = np.sqrt(w @ w)
            if H[j + 1, j] > 0.0:
                V[j + 1] = w / H[j + 1, j]
            col = H[:, j]
            for i, (c, s) in enumerate(rotations):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            d = np.hypot(col[j], col[j + 1])
            c, s = col[j] / d, col[j + 1] / d
            rotations.append((c, s))
            col[j], col[j + 1] = d, 0.0
            g[j], g[j + 1] = c * g[j], -s * g[j]
            if abs(g[j + 1]) <= atol:
                break
        k = len(rotations)
        x += np.linalg.solve(H[:k, :k], g[:k]) @ Z[:k]
        if abs(g[k]) <= atol:
            return x, iterations


def _solve_step(spec, w_nn, memory, u_prev, f_n, g_vals, options, timers, n, step_matrix, start):
    """One step of the correction loop; returns ``(field, iterations, residual, halvings)``.

    The loop starts from the iterate ``start``, which holds the boundary data
    exactly (``u_prev`` or its extrapolation).  ``step_matrix`` is the
    iterate-independent ``K`` of a constant law, which every correction then
    uses as its matrix, or None to assemble per iterate.
    """
    grid, law = spec.grid, spec.law
    newton = options.mode == "newton"
    rhs = w_nn * u_prev - memory + (0.0 if f_n is None else f_n)
    rhs[grid.boundary_mask] = g_vals

    def state(v):
        # K(v), assembled here unless the law is constant: the residual's operator, Picard's matrix
        # and the face coefficients of Newton's Jacobian
        t0 = time.perf_counter()
        K = assemble_quasilinear_operator(grid, law, v, shift=w_nn) if step_matrix is None else step_matrix
        r = K @ v - rhs  # exactly 0 on the boundary, where v holds the data
        timers["assembly"] += time.perf_counter() - t0
        return v, K, r, float(np.abs(r).max())

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
    current = best = state(start)
    best_res = np.inf
    for it in range(1, options.max_iter + 1):
        v, M, r, res = current
        if newton and step_matrix is None:  # only the a' terms are new; a constant law's K is its Jacobian
            t0 = time.perf_counter()
            M = newton_jacobian(grid, law, v, shift=w_nn, frozen=M)
            timers["assembly"] += time.perf_counter() - t0
        atol = 0.1 * options.tol
        if grid.dim > 1:  # the Krylov solves stop at a forcing term relative to the step residual
            atol = max(atol, _FORCING * np.sqrt(r @ r))
        t0 = time.perf_counter()
        try:
            delta = spsolve(M, -r, nu=law.nu, atol=atol, symmetric=not newton)
        except np.linalg.LinAlgError as exc:
            raise failure(res, it, f"linear solve failed: {exc}") from exc
        timers["linear_solve"] += time.perf_counter() - t0
        current = state(v + theta * delta)
        res = current[3]
        if res <= options.tol:
            return current[0], it, res, halvings
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
    compared honestly.
    """
    options = options or SolverOptions()
    spec.validate()
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
    g_vals = spec.boundary_values()
    U = np.empty((M + 1, n_nodes))
    U[0] = spec.u0
    U[0][grid.boundary_mask] = g_vals
    iterations = np.zeros(M + 1, dtype=int)
    halvings = np.zeros(M + 1, dtype=int)
    residuals = np.zeros(M + 1)

    # a(u) == nu: the step matrix w_nn I_int + A is the same for every iterate
    constant = spec.law.nu == spec.law.lam
    w_last, K = None, None  # w_nn of the last step matrix of a constant law, and that matrix
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
            w_last = w_nn

        f_n = spec.source_at(n, points)
        u_prev = U[n - 1]
        args = (spec, w_nn, memory, u_prev, f_n, g_vals, options, timers, n, K)
        predict = predict or iterations[n - 1] > 1
        # u_{n-1} - u_{n-2} is exactly 0 on the boundary, so the extrapolation holds the data bitwise
        start = u_prev + (tau[n - 1] / tau[n - 2]) * (u_prev - U[n - 2]) if predict else u_prev
        try:
            U[n], iterations[n], residuals[n], halvings[n] = _solve_step(*args, start)
        except StepFailure as exc:
            if start is u_prev:
                raise
            # the unpredicted start is the fallback; the step's counts cover both attempts
            U[n], its, residuals[n], halves = _solve_step(*args, u_prev)
            iterations[n], halvings[n] = exc.iterations + its, exc.halvings + halves

        t0 = time.perf_counter()
        history.push(U[n] - U[n - 1])
        timers["memory"] += time.perf_counter() - t0

    timers["total"] = time.perf_counter() - t_start + timers["compression_build"]
    return Trajectory(
        spec=spec,
        options=options,
        fields=U,
        iterations=iterations,
        halvings=halvings,
        residuals=residuals,
        timings=timers,
    )
