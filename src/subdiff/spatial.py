"""Tensor-product box grids and divergence-form diffusion operators.

Scalar isotropic laws only: the flux is ``a(u) grad u`` with a face
coefficient evaluated at the arithmetic mean of the two adjacent nodes, which
keeps the interior block symmetric for frozen u and second-order accurate.
Dirichlet rows are identity rows, so a step matrix leaves the Dirichlet data
unchanged.
The Picard operator and the Newton Jacobian are :class:`StencilOperator`
objects, stored as what their assembly computes: per axis, the face
coefficients ``a(face mean) / h^2`` and, for the Jacobian, the face terms of
``a'``; given the operator frozen at the same state, :func:`newton_jacobian`
shares its face coefficients and evaluates only the ``a'`` terms.  Their
product is the face-flux sum over the grid's face slices
(:attr:`SpatialGrid.faces`), on one field or on a stack of fields, and it is
the package's one product with such an operator: residuals, Krylov solves
and the weak form all go through it.  The builders' ``shift`` adds to the
interior diagonal, so the step matrix ``w I_int + A(u)`` is one assembly.
Frozen at a stack of states, the operator is one operator per state, which
the weak form applies to its time rows in one product.  Each grid also
caches the eigenvalues of the sine modes that diagonalise the discrete
Dirichlet Laplacian (:attr:`SpatialGrid.dirichlet_eigenvalues`), which the
2D interior solves need.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "SpatialGrid",
    "build_grid",
    "StencilOperator",
    "DiffusionLaw",
    "constant_law",
    "porous_law",
    "EllipticityReport",
    "ellipticity_check",
    "assemble_quasilinear_operator",
    "newton_jacobian",
    "first_eigenvalue",
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

    @cached_property
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

    @cached_property
    def faces(self) -> tuple:
        """Per axis, the slices ``(lo, hi)`` of the faces' two nodes in a field shaped like the grid.

        Each slice is led by an ``Ellipsis``, so it also indexes a stack of
        fields shaped ``(S,) + shape``.
        """
        faces = []
        for d in range(self.dim):
            lo = (Ellipsis,) + tuple(slice(None, -1) if k == d else slice(None) for k in range(self.dim))
            hi = (Ellipsis,) + tuple(slice(1, None) if k == d else slice(None) for k in range(self.dim))
            faces.append((lo, hi))
        return tuple(faces)

    @cached_property
    def dirichlet_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the discrete Dirichlet Laplacian ``-Delta_h``, shaped like the interior nodes.

        With ``n_d`` interior nodes on axis ``d``, entry ``k`` is the sum over
        axes of ``(4 / h_d^2) sin^2(k_d pi / (2 (n_d + 1)))`` (``k_d`` from 1),
        the eigenvalue of the sine mode ``sin(pi j k_d / (n_d + 1))`` (over the
        interior nodes ``j = 1..n_d``), the mode that a type-1 discrete sine
        transform picks out.  Entry 0 is the smallest.  Read-only.
        """
        lam = 0.0
        for n, h in zip(self.shape, self.spacing):
            k = np.arange(1, n - 1)
            lam = np.add.outer(lam, 4.0 / h**2 * np.sin(k * np.pi / (2.0 * (n - 1))) ** 2)
        lam.setflags(write=False)
        return lam


def build_grid(dimension: int, extents, resolution) -> SpatialGrid:
    """Build a :class:`SpatialGrid`.

    Parameters
    ----------
    dimension : 1 or 2
    extents : 2 or ``2 * dimension`` numbers, flat or in pairs: one interval
        ``(a, b)`` for every axis, or ``a_1, b_1, a_2, b_2``; each a < b
    resolution : int or per-axis ints, nodes per axis including boundaries;
        at least 4 per axis.
    """
    if dimension not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {dimension}")
    flat = np.asarray(extents, dtype=float).ravel()
    if flat.size not in (2, 2 * dimension):
        raise ValueError(f"extents needs 2 or {2 * dimension} numbers for dimension {dimension}, got {flat.size}")
    ext = (np.tile(flat, dimension) if flat.size == 2 else flat).reshape(dimension, 2)
    if np.any(ext[:, 1] <= ext[:, 0]):
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


class StencilOperator:
    """``shift I_int - div_h(c grad_h .)`` on ``grid``, with identity boundary rows, stored by its faces.

    Per axis ``d``, ``coeffs[d]`` holds the face coefficients
    ``c = a(face mean) / h_d^2``, indexed like the faces of
    :attr:`SpatialGrid.faces`.  A Newton Jacobian also holds ``derivs[d]``,
    the face terms ``a'(face mean) (u_hi - u_lo) / (2 h_d^2)``; a frozen
    coefficient has ``derivs`` None.  ``@`` is the face-flux sum: the flux
    ``c (x_hi - x_lo) + d (x_hi + x_lo)`` of each face leaves its lower node
    and enters its upper one, interior entries add ``shift * x``, and boundary
    entries equal ``x`` bitwise.  It takes one field ``(n_nodes,)`` or a stack
    ``(S, n_nodes)``; the coefficients may carry the same leading stack axis,
    one operator per field, and then ``@`` is its only method.  The arrays
    are read-only.
    """

    __slots__ = ("grid", "coeffs", "derivs", "shift", "_tridiagonal")

    def __init__(self, grid: SpatialGrid, coeffs, shift: float = 0.0, derivs=None):
        self.grid = grid
        self.coeffs = tuple(_read_only(c) for c in coeffs)
        self.derivs = None if derivs is None else tuple(_read_only(d) for d in derivs)
        self.shift = shift
        self._tridiagonal = None

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x_nd = x.reshape(x.shape[:-1] + self.grid.shape)
        out = self.shift * x_nd
        for d, (lo, hi) in enumerate(self.grid.faces):
            flux = self.coeffs[d] * (x_nd[hi] - x_nd[lo])
            if self.derivs is not None:
                flux += self.derivs[d] * (x_nd[hi] + x_nd[lo])
            out[lo] -= flux
            out[hi] += flux
        out = out.ravel() if x.ndim == 1 else out.reshape(x.shape)  # ravel: the cheaper view on the per-step path
        np.copyto(out, x, where=self.grid.boundary_mask)
        return out

    def tridiagonal(self) -> tuple:
        """The sub-, main and superdiagonal of a 1D operator's interior block, the inputs of ``dgtsv``.

        Row ``j`` reads ``(-c_{j-1} + d_{j-1}, (c_j - d_j) + (c_{j-1} + d_{j-1}) + shift, -c_j - d_j)``
        with ``c, d`` the face arrays (``d = 0`` without ``derivs``).  Computed
        on the first call and kept, read-only, so an operator reused across
        steps computes them once.
        """
        if self._tridiagonal is None:
            if self.coeffs[0].ndim > 1:
                raise ValueError("a stacked operator has no tridiagonal form")
            (c,) = self.coeffs
            d = 0.0 if self.derivs is None else self.derivs[0]
            main = (c - d)[1:] + (c + d)[:-1] + self.shift
            self._tridiagonal = tuple(_read_only(v) for v in ((-c + d)[1:-1], main, (-c - d)[1:-1]))
        return self._tridiagonal

    def toarray(self) -> np.ndarray:
        """The dense matrix, column by column through the product: ``n_nodes^2`` entries, for small grids."""
        if self.coeffs[0].ndim > self.grid.dim:
            raise ValueError("a stacked operator has no matrix form")
        return (self @ np.eye(self.grid.n_nodes)).T

    def tocsr(self):
        """The matrix in ``scipy.sparse`` CSR form via :meth:`toarray`, for small grids; imports ``scipy.sparse``."""
        import scipy.sparse as sp

        return sp.csr_matrix(self.toarray())


def _read_only(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


def _checked_state(grid: SpatialGrid, u, what: str) -> np.ndarray:
    """``u`` as a flat state; a 2-D ``(S, n_nodes)`` array is kept as a stack of states."""
    u = np.asarray(u, dtype=float)
    if u.ndim == 2 and u.shape[1] == grid.n_nodes:
        return u
    u = u.ravel()
    if u.size != grid.n_nodes:
        raise ValueError(f"{what} does not match the grid")
    return u


def assemble_quasilinear_operator(grid: SpatialGrid, law: DiffusionLaw, u, shift: float = 0.0) -> StencilOperator:
    """Assemble ``shift I_int - div_h(a(u) grad_h .)`` with the coefficient frozen at ``u``.

    Interior rows hold the divergence stencil with face coefficients
    ``a((u_left + u_right)/2)`` plus ``shift`` on the diagonal; boundary rows
    are identity.  For a constant law and ``shift = 0`` this is exactly
    ``const`` times the negative discrete Laplacian.  The result is a
    :class:`StencilOperator`: it supports products and conversions, but no
    indexing.  A stack of states ``(S, n_nodes)`` gives one operator per state.
    """
    u = _checked_state(grid, u, "coefficient state")
    u_nd = u.reshape(u.shape[:-1] + grid.shape)
    coeffs = [
        np.asarray(law.a(0.5 * (u_nd[lo] + u_nd[hi])), dtype=float) / h**2
        for h, (lo, hi) in zip(grid.spacing, grid.faces)
    ]
    return StencilOperator(grid, coeffs, shift)


def newton_jacobian(
    grid: SpatialGrid, law: DiffusionLaw, u, shift: float = 0.0, frozen: StencilOperator | None = None
) -> StencilOperator:
    """Jacobian of ``u -> -div_h(a(u) grad_h u)``, including the a'(u) terms, plus ``shift I_int``.

    Same boundary rows and ``shift`` as :func:`assemble_quasilinear_operator`.
    ``frozen`` is that operator, already assembled at ``u``: the Jacobian
    shares its face coefficients and evaluates only the ``a'`` face terms.
    """
    u_nd = _checked_state(grid, u, "state").reshape(grid.shape)  # one state: a stack does not reshape
    if frozen is None:
        frozen = assemble_quasilinear_operator(grid, law, u_nd, shift)
    derivs = [
        0.5 * np.asarray(law.deriv(0.5 * (u_nd[lo] + u_nd[hi])), dtype=float) * (u_nd[hi] - u_nd[lo]) / h**2
        for h, (lo, hi) in zip(grid.spacing, grid.faces)
    ]
    return StencilOperator(grid, frozen.coeffs, shift, derivs)


def first_eigenvalue(grid: SpatialGrid) -> float:
    """Principal Dirichlet eigenvalue sum((pi / L_d)^2) of the box."""
    return float(sum((np.pi / L) ** 2 for L in grid.lengths))
