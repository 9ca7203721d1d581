"""Tensor-product box grids and divergence-form diffusion operators.

Scalar isotropic laws only: the flux is ``a(u) grad u`` with a face
coefficient evaluated at the arithmetic mean of the two adjacent nodes, which
keeps the assembled interior block symmetric for frozen u and second-order
accurate.  Dirichlet rows are identity rows, so a step matrix leaves the
Dirichlet data unchanged.
The Picard operator and the Newton Jacobian are :class:`DiaOperator`
objects: square matrices in diagonal (DIA) storage, one ``data`` row per
diagonal with the offsets ascending, in the layout of
``scipy.sparse.dia_matrix``.  Each grid builds those offsets and its face
slices once (:attr:`SpatialGrid.operator_pattern`), and every assembly only
fills a new ``data`` array.  The operator's product needs numpy alone;
``tocsr()`` imports ``scipy.sparse`` when called, for callers that want a
scipy matrix.  The builders' ``shift`` adds to the interior diagonal, so the
step matrix ``w I_int + A(u)`` is one assembly.
:func:`apply_quasilinear_operator` evaluates the product of the same
operator with ``u`` without building a matrix, for residuals that no solve
needs the matrix of, on one state or on a stack of states in one pass; it
takes its face coefficients from the same helper as the assembly.  Each grid
also caches the eigenvalues of the sine modes that diagonalise the discrete
Dirichlet Laplacian (:attr:`SpatialGrid.dirichlet_eigenvalues`), which the 2D
interior solves need.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "SpatialGrid",
    "build_grid",
    "DiaOperator",
    "DiffusionLaw",
    "constant_law",
    "porous_law",
    "EllipticityReport",
    "ellipticity_check",
    "assemble_quasilinear_operator",
    "apply_quasilinear_operator",
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
    def operator_pattern(self) -> tuple:
        """Diagonal structure shared by every operator on this grid: ``(offsets, faces)``.

        ``offsets`` are the diagonals of the DIA storage, ascending:
        ``-stride_0, ..., -1, 0, +1, ..., +stride_0`` with ``stride_d`` the
        C-order stride of axis ``d``, so row ``dim`` of the data is the main
        diagonal.  Ascending is the column order of a row, the order in which
        :class:`DiaOperator` and scipy's sparse products sum it.  Per axis,
        ``faces`` holds the node slices ``lo, hi`` of every face (led by an
        ``Ellipsis``, so they also index stacked fields) and the masks of the
        faces whose lower (upper) node is interior.  Read-only.
        """
        strides = np.array([np.prod(self.shape[d + 1 :], dtype=int) for d in range(self.dim)])
        offsets = np.concatenate((-strides, [0], strides[::-1])).astype(np.int32)
        offsets.setflags(write=False)
        interior = ~self.boundary_mask.reshape(self.shape)
        interior.setflags(write=False)
        faces = []
        for d in range(self.dim):
            lo = (Ellipsis,) + tuple(slice(None, -1) if k == d else slice(None) for k in range(self.dim))
            hi = (Ellipsis,) + tuple(slice(1, None) if k == d else slice(None) for k in range(self.dim))
            faces.append((lo, hi, interior[lo], interior[hi]))
        return offsets, tuple(faces)

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


class DiaOperator:
    """Square matrix in diagonal (DIA) storage: ``data[k, j]`` is entry ``(j - offsets[k], j)``.

    The layout of ``scipy.sparse.dia_matrix``, with the offsets ascending.
    ``@`` takes a vector and sums each row over the diagonals in storage
    order, which is the row's column order, starting from zero: the order of
    scipy's DIA and CSR products, so it equals them bitwise.  ``data`` may be
    changed in place; ``offsets`` belongs to the grid and is read-only.
    """

    __slots__ = ("data", "offsets", "shape", "_bands")

    def __init__(self, data: np.ndarray, offsets: np.ndarray):
        self.data = data
        self.offsets = offsets
        n = data.shape[1]
        self.shape = (n, n)
        # per diagonal: its row of `data` and the slices of the rows and columns it covers
        self._bands = [
            (k, slice(max(-offset, 0), n - max(offset, 0)), slice(max(offset, 0), n + min(offset, 0)))
            for k, offset in enumerate(offsets.tolist())
        ]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        products = self.data * x  # products[k, j] = entry (j - offsets[k], j) times x[j]
        y = np.zeros(self.shape[0])
        for k, rows, cols in self._bands:
            y[rows] += products[k, cols]
        return y

    def tocsr(self):
        """The same matrix as a ``scipy.sparse`` CSR matrix; imports ``scipy.sparse``."""
        import scipy.sparse as sp

        return sp.dia_matrix((self.data, self.offsets), shape=self.shape).tocsr()

    def toarray(self) -> np.ndarray:
        """The same matrix as a dense array, through :meth:`tocsr`."""
        return self.tocsr().toarray()


def _face_coefficients(grid: SpatialGrid, law: DiffusionLaw, u_nd: np.ndarray):
    """Per axis: ``(h^2, faces, face_u, a(face_u) / h^2)``.

    ``faces`` is the axis entry of :attr:`SpatialGrid.operator_pattern` and
    ``face_u`` the face means ``(u_lo + u_hi) / 2``.  ``u_nd`` is shaped like
    the grid, or carries leading stack axes before the grid axes; the node
    slices ``lo, hi`` of ``faces`` index the trailing axes either way.
    """
    for h, faces in zip(grid.spacing, grid.operator_pattern[1]):
        lo, hi = faces[0], faces[1]
        h2 = h**2
        face_u = 0.5 * (u_nd[lo] + u_nd[hi])
        yield h2, faces, face_u, np.asarray(law.a(face_u), dtype=float) / h2


def _assemble(grid: SpatialGrid, law: DiffusionLaw, u: np.ndarray, with_deriv: bool, shift: float) -> DiaOperator:
    offsets = grid.operator_pattern[0]
    u_nd = u.reshape(grid.shape)
    data = np.zeros((offsets.size,) + grid.shape)
    diag = data[grid.dim]
    for d, (h2, (lo, hi, lo_interior, hi_interior), face_u, coeff) in enumerate(_face_coefficients(grid, law, u_nd)):
        dterm = 0.0
        if with_deriv:
            dterm = 0.5 * np.asarray(law.deriv(face_u), dtype=float) * (u_nd[hi] - u_nd[lo]) / h2
        # the face is the "plus" face of its lower node and the "minus" face of its upper node; entry
        # (lo, hi) sits in column hi of the superdiagonal, (hi, lo) in column lo of the subdiagonal,
        # and entries of boundary rows keep their 0.0
        np.subtract(-coeff, dterm, out=data[-1 - d][hi], where=lo_interior)
        np.add(-coeff, dterm, out=data[d][lo], where=hi_interior)
        diag[lo] += coeff - dterm
        diag[hi] += coeff + dterm
    diag += shift
    diag[grid.boundary_mask.reshape(grid.shape)] = 1.0
    return DiaOperator(data.reshape(offsets.size, -1), offsets)


def _checked_state(grid: SpatialGrid, u, what: str, stacked: bool = False) -> np.ndarray:
    """``u`` as a flat state, or, with ``stacked``, a 2-D ``(S, n_nodes)`` array kept as a stack of states."""
    u = np.asarray(u, dtype=float)
    if stacked and u.ndim == 2 and u.shape[1] == grid.n_nodes:
        return u
    u = u.ravel()
    if u.size != grid.n_nodes:
        raise ValueError(f"{what} does not match the grid")
    return u


def assemble_quasilinear_operator(grid: SpatialGrid, law: DiffusionLaw, u, shift: float = 0.0) -> DiaOperator:
    """Assemble ``shift I_int - div_h(a(u) grad_h .)`` with the coefficient frozen at ``u``.

    Interior rows hold the divergence stencil with face coefficients
    ``a((u_left + u_right)/2)`` plus ``shift`` on the diagonal; boundary rows
    are identity.  For a constant law and ``shift = 0`` this is exactly
    ``const`` times the negative discrete Laplacian.  The result is a
    :class:`DiaOperator` on the grid's :attr:`~SpatialGrid.operator_pattern`,
    so it supports products and conversions but no indexing; off-diagonal
    entries of boundary rows are stored as exact zeros.
    """
    return _assemble(grid, law, _checked_state(grid, u, "coefficient state"), with_deriv=False, shift=shift)


def apply_quasilinear_operator(grid: SpatialGrid, law: DiffusionLaw, u, shift: float = 0.0) -> np.ndarray:
    """``assemble_quasilinear_operator(grid, law, u, shift) @ u`` without building the matrix.

    Each face flux ``a(face mean) (u_hi - u_lo) / h^2`` leaves its lower node
    and enters its upper one; interior entries add ``shift * u``, and the
    boundary entries equal ``u`` bitwise, as the identity rows give.  Agrees
    with the matrix product to rounding (the sums run in another order).

    ``u`` is one state (``n_nodes`` values, flat or shaped like the grid;
    returns ``(n_nodes,)``) or a stack of states ``(S, n_nodes)``, each with
    its own frozen coefficient (returns ``(S, n_nodes)``, row ``s`` equal to
    the call on ``u[s]``): one vectorised pass over every row's faces.
    """
    u = _checked_state(grid, u, "state", stacked=True)
    u_nd = u.reshape(u.shape[:-1] + grid.shape)
    out = shift * u_nd
    for _, (lo, hi, *_), _, coeff in _face_coefficients(grid, law, u_nd):
        flux = coeff * (u_nd[hi] - u_nd[lo])
        out[lo] -= flux
        out[hi] += flux
    out = out.ravel() if u.ndim == 1 else out.reshape(u.shape)  # ravel: the cheaper view on the per-step path
    np.copyto(out, u, where=grid.boundary_mask)
    return out


def newton_jacobian(grid: SpatialGrid, law: DiffusionLaw, u, shift: float = 0.0) -> DiaOperator:
    """Jacobian of ``u -> -div_h(a(u) grad_h u)``, including the a'(u) terms, plus ``shift I_int``.

    Same :class:`DiaOperator` layout, boundary rows and ``shift`` as
    :func:`assemble_quasilinear_operator`.
    """
    return _assemble(grid, law, _checked_state(grid, u, "state"), with_deriv=True, shift=shift)


def first_eigenvalue(grid: SpatialGrid) -> float:
    """Principal Dirichlet eigenvalue sum((pi / L_d)^2) of the box."""
    return float(sum((np.pi / L) ** 2 for L in grid.lengths))
