"""Tensor-product box grids and divergence-form diffusion operators.

Scalar isotropic laws only: the flux is ``a(u) grad u`` with a face
coefficient evaluated at the arithmetic mean of the two adjacent nodes, which
keeps the assembled interior block symmetric for frozen u and second-order
accurate.  Dirichlet rows are identity rows so that one matrix serves both the
implicit solve and residual evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

__all__ = [
    "SpatialGrid",
    "build_grid",
    "DiffusionLaw",
    "constant_law",
    "porous_law",
    "EllipticityReport",
    "ellipticity_check",
    "assemble_quasilinear_operator",
    "newton_jacobian",
    "first_eigenvalue",
    "PoincareResult",
    "poincare_lambda1",
]


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform tensor grid on a box in one or two dimensions.

    ``shape`` counts nodes per axis including boundaries; ``boundary_mask``
    marks exactly the outermost layer on the flattened (C-order) node set.
    """

    dim: int
    extents: tuple[tuple[float, float], ...]
    shape: tuple[int, ...]
    axes: tuple[np.ndarray, ...]
    spacing: tuple[float, ...]
    boundary_mask: np.ndarray

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    @property
    def lengths(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in self.extents)

    def points(self) -> np.ndarray:
        """Node coordinates, shape (n_nodes, dim), C-ordered."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def interior_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.boundary_mask)

    def quadrature_weights(self) -> np.ndarray:
        """Trapezoidal weights on the flattened node set."""
        w = 1.0
        for ax, h in zip(self.shape, self.spacing):
            w1 = np.full(ax, h)
            w1[0] = w1[-1] = 0.5 * h
            w = np.multiply.outer(w, w1)
        return np.asarray(w).ravel()


def build_grid(dimension: int, extents, resolution) -> SpatialGrid:
    """Build a :class:`SpatialGrid`.

    Parameters
    ----------
    dimension : 1 or 2
    extents : (a, b) or sequence of per-axis (a, b) pairs with a < b
    resolution : int or per-axis ints, nodes per axis including boundaries;
        at least 4 per axis.
    """
    if dimension not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {dimension}")
    ext = np.asarray(extents, dtype=float)
    if ext.ndim == 1:
        ext = np.tile(ext, (dimension, 1))
    if ext.shape != (dimension, 2) or np.any(ext[:, 1] <= ext[:, 0]):
        raise ValueError(f"extents must be {dimension} pairs (a, b) with a < b")
    res = np.broadcast_to(np.asarray(resolution, dtype=int), (dimension,))
    if np.any(res < 4):
        raise ValueError(f"resolution must be at least 4 nodes per axis, got {tuple(res)}")
    axes = tuple(np.linspace(a, b, n) for (a, b), n in zip(ext, res))
    spacing = tuple(float(ax[1] - ax[0]) for ax in axes)
    mask = np.zeros(tuple(res), dtype=bool)
    for d in range(dimension):
        sl: list = [slice(None)] * dimension
        sl[d] = 0
        mask[tuple(sl)] = True
        sl[d] = -1
        mask[tuple(sl)] = True
    return SpatialGrid(
        dim=dimension,
        extents=tuple((float(a), float(b)) for a, b in ext),
        shape=tuple(int(n) for n in res),
        axes=axes,
        spacing=spacing,
        boundary_mask=mask.ravel(),
    )


@dataclass(frozen=True)
class DiffusionLaw:
    """Scalar diffusion coefficient ``a(y)`` with declared bounds ``[nu, lam]``.

    ``deriv`` is the analytic derivative a'(y), used by the Newton path.
    """

    a: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    nu: float
    lam: float
    tag: str = "custom"

    def __post_init__(self) -> None:
        if not 0.0 < self.nu <= self.lam:
            raise ValueError(f"need 0 < nu <= lam, got nu={self.nu}, lam={self.lam}")

    def probe_derivative(self, y_range: tuple[float, float], samples: int = 257) -> float:
        """Max mismatch between ``deriv`` and a central difference (smoke probe)."""
        y = np.linspace(y_range[0], y_range[1], samples)
        h = 1e-6 * max(1.0, float(np.max(np.abs(y))))
        fd = (self.a(y + h) - self.a(y - h)) / (2.0 * h)
        return float(np.max(np.abs(fd - self.deriv(y))))


def constant_law(value: float = 1.0) -> DiffusionLaw:
    return DiffusionLaw(
        a=lambda y: np.full_like(np.asarray(y, dtype=float), value),
        deriv=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
        nu=value,
        lam=value,
        tag=f"constant({value:g})",
    )


def porous_law() -> DiffusionLaw:
    """The quasilinear demo law ``a(y) = 1 + y^2 / (2 (1 + y^2))``.

    Bounded between 1 and 1.5 with ``a'(y) = y / (1 + y^2)^2``.
    """

    def a(y):
        y = np.asarray(y, dtype=float)
        return 1.0 + 0.5 * y * y / (1.0 + y * y)

    def deriv(y):
        y = np.asarray(y, dtype=float)
        return y / (1.0 + y * y) ** 2

    return DiffusionLaw(a=a, deriv=deriv, nu=1.0, lam=1.5, tag="porous")


@dataclass(frozen=True)
class EllipticityReport:
    law_tag: str
    y_range: tuple[float, float]
    min_a: float
    max_a: float
    passed: bool


def ellipticity_check(law: DiffusionLaw, y_range: tuple[float, float], samples: int = 513) -> EllipticityReport:
    """Sample ``a`` on ``y_range`` and test the declared bounds ``[nu, lam]``."""
    lo, hi = float(y_range[0]), float(y_range[1])
    if not lo < hi:
        raise ValueError(f"empty range {y_range}")
    vals = np.asarray(law.a(np.linspace(lo, hi, samples)), dtype=float)
    min_a, max_a = float(vals.min()), float(vals.max())
    tol = 1e-12 * max(1.0, law.lam)
    passed = (min_a >= law.nu - tol) and (max_a <= law.lam + tol)
    return EllipticityReport(law.tag, (lo, hi), min_a, max_a, passed)


def _assemble(grid: SpatialGrid, law: DiffusionLaw, u: np.ndarray, with_deriv: bool) -> sp.csr_matrix:
    n = grid.n_nodes
    shape = grid.shape
    u_nd = np.asarray(u, dtype=float).reshape(shape)
    idx = np.arange(n).reshape(shape)
    interior = ~grid.boundary_mask.reshape(shape)

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    diag = np.zeros(shape)
    for d in range(grid.dim):
        h2 = grid.spacing[d] ** 2
        lo = [slice(None)] * grid.dim
        hi = [slice(None)] * grid.dim
        lo[d] = slice(None, -1)
        hi[d] = slice(1, None)
        lo, hi = tuple(lo), tuple(hi)
        face_u = 0.5 * (u_nd[lo] + u_nd[hi])
        coeff = np.asarray(law.a(face_u), dtype=float) / h2
        if with_deriv:
            jump = u_nd[hi] - u_nd[lo]
            dterm = 0.5 * np.asarray(law.deriv(face_u), dtype=float) * jump / h2
        else:
            dterm = np.zeros_like(coeff)

        # lower node of each face: face is its "plus" face
        m = interior[lo]
        rows.append(idx[lo][m])
        cols.append(idx[hi][m])
        vals.append((-coeff - dterm)[m])
        # upper node of each face: face is its "minus" face
        m2 = interior[hi]
        rows.append(idx[hi][m2])
        cols.append(idx[lo][m2])
        vals.append((-coeff + dterm)[m2])

        # diagonal contributions
        dlo = np.zeros(shape)
        dlo[lo] = coeff - dterm
        dhi = np.zeros(shape)
        dhi[hi] = coeff + dterm
        diag += dlo + dhi

    diag_flat = np.where(grid.boundary_mask, 1.0, diag.ravel())
    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals.append(diag_flat)

    A = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    A.sum_duplicates()
    return A


def assemble_quasilinear_operator(grid: SpatialGrid, law: DiffusionLaw, u) -> sp.csr_matrix:
    """Assemble ``-div_h(a(u) grad_h .)`` with the coefficient frozen at ``u``.

    Interior rows hold the divergence stencil with face coefficients
    ``a((u_left + u_right)/2)``; boundary rows are identity.  For a constant
    law this is exactly ``const`` times the negative discrete Laplacian.
    """
    u = np.asarray(u, dtype=float).ravel()
    if u.size != grid.n_nodes:
        raise ValueError("coefficient state does not match the grid")
    return _assemble(grid, law, u, with_deriv=False)


def newton_jacobian(grid: SpatialGrid, law: DiffusionLaw, u) -> sp.csr_matrix:
    """Jacobian of ``u -> -div_h(a(u) grad_h u)``, including the a'(u) terms."""
    u = np.asarray(u, dtype=float).ravel()
    if u.size != grid.n_nodes:
        raise ValueError("state does not match the grid")
    return _assemble(grid, law, u, with_deriv=True)


def first_eigenvalue(grid: SpatialGrid) -> float:
    """Principal Dirichlet eigenvalue sum((pi / L_d)^2) of the box."""
    return float(sum((np.pi / L) ** 2 for L in grid.lengths))


@dataclass(frozen=True)
class PoincareResult:
    """Sharp continuous constant plus the discrete cross-check.

    ``continuous`` is :func:`first_eigenvalue`, the smallest Dirichlet
    eigenvalue of the Laplacian on the box; ``discrete`` is the smallest
    eigenvalue of the assembled (a == 1) operator restricted to interior
    nodes.  The discrete value sits slightly below the continuous one and
    converges to it at second order.
    """

    continuous: float
    discrete: float


def poincare_lambda1(grid: SpatialGrid) -> PoincareResult:
    A = assemble_quasilinear_operator(grid, constant_law(1.0), np.zeros(grid.n_nodes))
    interior = grid.interior_indices()
    A_int = A[np.ix_(interior, interior)].tocsc()
    if A_int.shape[0] <= 2:
        lam_disc = float(np.linalg.eigvalsh(A_int.toarray())[0])
    else:
        vals = eigsh(A_int, k=1, sigma=0.0, which="LM", return_eigenvectors=False)
        lam_disc = float(vals[0])
    return PoincareResult(continuous=first_eigenvalue(grid), discrete=lam_disc)
