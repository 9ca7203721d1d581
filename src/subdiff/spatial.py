"""Tensor-product box grids and divergence-form diffusion operators.

A grid is its box and its node counts (:class:`SpatialGrid`), checked when
it is built; its coordinates, spacing and boundary mask derive from them.
Scalar isotropic laws only: the flux is ``a(u) grad u`` with a face
coefficient evaluated at the arithmetic mean of the two adjacent nodes, which
keeps the interior block symmetric for frozen u and second-order accurate.
Dirichlet rows are identity rows, so a step matrix leaves the Dirichlet data
unchanged.
The Picard operator and the Newton Jacobian are :class:`StencilOperator`
objects, stored as what their assembly computes: per axis, the face
coefficients ``a(face mean) / h^2`` and, for the Jacobian, the face terms of
``a'``.  Assembled at one state, the step matrix also keeps its face means.
Every face array is flat, in one layout for every dimension: axis ``d`` has
the flat node stride ``s_d`` (:attr:`SpatialGrid.strides`, ``(n_1, 1)`` in
2D), and entry ``j`` of its arrays is the face between the flat nodes ``j``
and ``j + s_d``.  In 2D, axis 1's arrays thus also hold an entry at each row
end, ``j % n_1 == n_1 - 1``, which joins two boundary nodes: it only ever
writes boundary entries of a product, which the product then sets to ``x``.
The assembly forms the face means of every axis into one buffer and
evaluates the law once on it.
``newton_jacobian(law, u, frozen)`` extends the operator frozen at the same
state: it takes that operator's grid and shift, shares its face
coefficients, and evaluates only the ``a'`` terms, at the face means that
operator keeps, so a Newton iterate forms its face means once.  Their
product is the face-flux sum over two contiguous slices per axis,
``x[..., :-s]`` and ``x[..., s:]``, on one field or on a stack of fields, and
it is the package's one product with such an operator: residuals, Krylov
solves and the weak form all go through it.
One 1D state, every step of a 1D run, gives a :class:`LineOperator`
instead: the same face arrays, one per quantity, formed and applied on
plain slices in the face loop's operations and order, so its bits are the
loop's.  Its step matrix also keeps the state's face differences, which its
Jacobian and its product with that state read, so an iterate forms them
once, and it holds what the 1D solve keeps of its LU factors.  The
assembly's ``shift`` adds to the interior diagonal, so the step matrix
``w I_int + A(u)`` is one assembly.
Frozen at a stack of states, the operator is one operator per state, which
the weak form applies to its time rows in one product.  Each grid also
caches the eigenvalues of the sine modes that diagonalise the discrete
Dirichlet Laplacian (:attr:`SpatialGrid.dirichlet_eigenvalues`), which the
2D interior solves need.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Callable

import numpy as np

__all__ = [
    "SpatialGrid",
    "build_grid",
    "StencilOperator",
    "LineOperator",
    "DiffusionLaw",
    "constant_law",
    "porous_law",
    "assemble_quasilinear_operator",
    "newton_jacobian",
    "first_eigenvalue",
]

# A Python float operand costs numpy 2 a conversion on every call, about 0.4 us, as much as the arithmetic on
# 64 values; a 0-d float array costs none and gives the same bits.  The 1D one-state path, whose arrays have one
# entry per node or face, takes its constants so: these two, and each grid's h^2 (SpatialGrid._spacing_squared).
_HALF, _ONE = np.array(0.5), np.array(1.0)
_HALF.setflags(write=False)
_ONE.setflags(write=False)


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform tensor grid on a box in one or two dimensions: its ``extents`` and its node counts.

    ``extents`` holds one interval ``(a, b)`` per axis and ``shape`` the nodes
    per axis including boundaries.  The constructor refuses, naming the
    argument, anything but 1 or 2 axes, an interval that is not finite with
    ``a < b``, fewer than 4 nodes on an axis, and an axis spacing ``h`` whose
    ``h^2`` or ``1 / h^2`` is not finite and positive.  Everything else is
    derived on first use and read-only: ``dim``, the node coordinates ``axes``,
    the ``spacing``, the flat node ``strides`` and the ``boundary_mask``,
    which marks exactly the outermost layer on the flattened (C-order) node
    set.  Grids compare and hash by their two fields.
    """

    extents: tuple[tuple[float, float], ...]
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "extents", tuple((float(a), float(b)) for a, b in self.extents))
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        if not len(self.extents) == len(self.shape) in (1, 2):
            raise ValueError(f"extents and shape need 1 or 2 axes each, got {self.extents} and {self.shape}")
        if not all(-np.inf < a < b < np.inf for a, b in self.extents):
            raise ValueError(f"extents must be finite intervals (a, b) with a < b, got {self.extents}")
        if min(self.shape) < 4:
            raise ValueError(f"shape must have at least 4 nodes per axis, got {self.shape}")
        for h in self.spacing:
            if not (0.0 < h * h < np.inf and 1.0 / (h * h) < np.inf):
                raise ValueError(f"extents {self.extents} on shape {self.shape} give an axis spacing h = {h!r} "
                                 "whose h^2 or 1/h^2 is not finite and positive")

    @cached_property
    def dim(self) -> int:
        return len(self.shape)

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        return tuple(_read_only(np.linspace(a, b, n)) for (a, b), n in zip(self.extents, self.shape))

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        # ``axes[d][1] - axes[d][0]`` as np.linspace places the two nodes, without building the axis
        return tuple((a + (b - a) / (n - 1)) - a for (a, b), n in zip(self.extents, self.shape))

    @cached_property
    def _spacing_squared(self) -> tuple[np.ndarray, ...]:
        """Per axis, ``h_d**2`` as a read-only 0-d array, an operand numpy takes without a conversion (``_HALF``)."""
        return tuple(_read_only(h**2) for h in self.spacing)

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        mask = np.ones(self.shape, dtype=bool)
        mask[(slice(1, -1),) * self.dim] = False
        return _read_only(mask.ravel(), bool)

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
    def strides(self) -> tuple[int, ...]:
        """Per axis, the distance in the flattened (C-order) node set between two neighbours along it.

        ``(1,)`` in 1D and ``(n_1, 1)`` in 2D.  Axis ``d``'s face arrays in a
        :class:`StencilOperator` have one entry per ``j`` below
        ``n_nodes - strides[d]``, which joins the flat nodes ``j`` and
        ``j + strides[d]``.
        """
        return tuple(int(np.prod(self.shape[d + 1 :])) for d in range(self.dim))

    @cached_property
    def _face_cuts(self) -> tuple:
        """Per axis, the index of its ``n_nodes - strides[d]`` face entries in a buffer of every axis's in turn."""
        ends = list(accumulate(self.n_nodes - s for s in self.strides))
        return tuple((Ellipsis, slice(start, end)) for start, end in zip([0] + ends, ends))

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


def build_grid(dimension: int, extents, resolution: int) -> SpatialGrid:
    """The :class:`SpatialGrid` of a run's settings.

    ``extents`` is 2 numbers, one interval ``a, b`` for every axis, or
    ``2 * dimension`` numbers ``a_1, b_1, a_2, b_2``; ``resolution`` is the
    node count of every axis.  Any other box is a :class:`SpatialGrid`.
    """
    flat = tuple(float(x) for x in extents)
    if len(flat) not in (2, 2 * dimension):
        raise ValueError(f"extents needs 2 numbers or 2 per axis of dimension {dimension}, got {len(flat)}")
    flat = flat * (2 * dimension // len(flat))
    return SpatialGrid(tuple(zip(flat[::2], flat[1::2])), (resolution,) * dimension)


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

    # Each formula is the bits of its one-expression form, 1 + 0.5 * y * y / (1 + y * y) and
    # y / (1 + y * y) ** 2, on fewer arrays: numpy's ** 2 is q * q.  a keeps (0.5 * y) * y, not
    # 0.5 * (y * y): for 1.34e154 < |y| < 1.9e154 only y * y overflows, and the quotient must be 0, not NaN.
    # the constants are 0-d arrays (_HALF says why)
    def a(y):
        y = np.asarray(y, dtype=float)
        p = _HALF * y
        p *= y
        q = y * y
        q += _ONE
        p /= q
        p += _ONE
        return p

    def deriv(y):
        y = np.asarray(y, dtype=float)
        q = y * y
        q += _ONE
        q *= q
        return y / q

    return DiffusionLaw(a=a, deriv=deriv, nu=1.0, lam=1.5, tag="porous")


class StencilOperator:
    """``shift I_int - div_h(c grad_h .)`` on ``grid``, with identity boundary rows, stored by its faces.

    Per axis ``d``, with ``s`` its flat node stride (``grid.strides[d]``),
    ``coeffs[d]`` holds ``n_nodes - s`` face coefficients
    ``c = a(face mean) / h_d^2`` along its last axis: entry ``j`` is the face
    between the flat nodes ``j`` (lo) and ``j + s`` (hi).  In 1D these are the
    grid's faces.  In 2D, axis 0's entries are the faces row after row, and
    axis 1's include one entry at each row end (``j % n_1 == n_1 - 1``) that
    joins the last node of a row to the first of the next: both are boundary
    nodes, so that entry writes boundary entries of a product only, and never
    reaches a result.  The builders evaluate the law there too, on the mean of
    two boundary values.  An operator assembled at one state also
    holds ``means[d]``, the face means ``0.5 (u_lo + u_hi)`` that ``a`` was
    evaluated at, which the Newton Jacobian built from it reads; other
    operators have ``means`` None.  A Newton Jacobian holds ``derivs[d]``,
    the face terms ``a'(face mean) (u_hi - u_lo) / (2 h_d^2)``; a frozen
    coefficient has ``derivs`` None.  ``@`` is the face-flux sum: per axis, in
    axis order, the flux ``c (x_hi - x_lo) + d (x_hi + x_lo)`` of each face is
    formed on the two contiguous slices ``x[..., s:]`` and ``x[..., :-s]``,
    leaves its lower node and enters its upper one; interior entries add
    ``shift * x``, and boundary entries equal ``x`` bitwise.  It takes one field ``(n_nodes,)`` or a stack
    ``(S, n_nodes)``; the coefficients may carry the same leading stack axis,
    one operator per field, and then ``@`` is its only method.  On 65^2 nodes
    one 2D product takes about 20 us (one BLAS thread), against 37 us for the
    same sums on the two-dimensional face slices, whose axis-1 rows break
    their stride at every row end.  The arrays are read-only.  One 1D state
    assembles a :class:`LineOperator` instead, which makes the same
    operations on plain slices.
    """

    __slots__ = ("grid", "coeffs", "derivs", "means", "shift")

    def __init__(self, grid: SpatialGrid, coeffs, shift: float = 0.0, derivs=None, means=None):
        self.grid, self.shift = grid, shift
        self.coeffs, self.derivs, self.means = (
            None if a is None else tuple(map(_read_only, a)) for a in (coeffs, derivs, means)
        )

    def at_state(self, u: np.ndarray) -> np.ndarray:
        """``self @ u`` for the state ``u`` the operator was assembled at."""
        return self @ u

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        out = self.shift * x
        for d, s in enumerate(self.grid.strides):  # lo is x[..., :-s], hi is x[..., s:]
            flux = x[..., s:] - x[..., :-s]
            flux *= self.coeffs[d]
            if self.derivs is not None:
                flux += self.derivs[d] * (x[..., s:] + x[..., :-s])
            out[..., :-s] -= flux
            out[..., s:] += flux
        np.copyto(out, x, where=self.grid.boundary_mask)
        return out


class LineOperator:
    """The operator of :class:`StencilOperator` at one state of a 1D grid, on one face array per quantity.

    What both builders return for one 1D state.  Entry ``j`` of each array is
    the face between the nodes ``j`` and ``j + 1``: ``coeff`` the
    coefficients ``c = a(face mean) / h^2``, and ``deriv`` the Newton terms
    ``d = a'(face mean) (u_hi - u_lo) / (2 h^2)`` of a Jacobian (None for a
    frozen coefficient).  A step matrix assembled at a state ``u`` also keeps
    that state's face means ``mean``, which its Jacobian evaluates ``a'`` at,
    and its face differences ``diff = u_hi - u_lo``, which the Jacobian and
    :meth:`at_state` read; other operators have both None.  It keeps no view
    of ``u``.  The arrays are read-only: the constructor makes them float
    arrays and sets them read-only, as :class:`StencilOperator`'s does, and
    the builders, whose arrays are read-only float arrays of their own, skip
    that conversion.  ``coeffs``, ``derivs`` and ``means`` give the arrays in
    :class:`StencilOperator`'s one-tuple-per-axis form.

    ``@`` on one field is the face loop of :class:`StencilOperator`, operation
    for operation in its order, on the plain slices ``x[1:]`` and ``x[:-1]``,
    with the two boundary entries written as scalars, so the bits are the
    loop's; a stack of fields takes that loop itself.  :meth:`at_state` forms
    the product with the state from its kept differences, so an iterate forms
    them once.  :meth:`band` gives the interior block's three diagonals, the
    input of :func:`subdiff.solver.spsolve`'s LAPACK calls, and ``factors``
    is what ``spsolve`` keeps of its earlier solves: None before the first,
    ``()`` after it, then the read-only LU factors of the interior block
    (LAPACK ``dgttrf``), so an operator reused across steps is factored once
    and one solved once never.
    """

    __slots__ = ("grid", "coeff", "shift", "deriv", "mean", "diff", "factors")

    def __init__(self, grid: SpatialGrid, coeff, shift: float = 0.0, deriv=None, mean=None, diff=None):
        deriv, mean, diff = (None if a is None else _read_only(a) for a in (deriv, mean, diff))
        self.grid, self.coeff, self.shift, self.deriv, self.mean, self.diff = (
            grid, _read_only(coeff), shift, deriv, mean, diff)
        self.factors = None

    @classmethod
    def _of(cls, grid: SpatialGrid, coeff: np.ndarray, shift: float, deriv=None, mean=None, diff=None):
        """The operator on read-only float arrays of the builders' own, without conversions."""
        self = cls.__new__(cls)
        self.grid, self.coeff, self.shift, self.deriv, self.mean, self.diff = grid, coeff, shift, deriv, mean, diff
        self.factors = None
        return self

    coeffs = property(lambda self: (self.coeff,))
    derivs = property(lambda self: None if self.deriv is None else (self.deriv,))
    means = property(lambda self: None if self.mean is None else (self.mean,))

    def at_state(self, u: np.ndarray) -> np.ndarray:
        """``self @ u``, bitwise, for the state ``u`` the operator was assembled at, from its face differences."""
        if self.diff is None:
            raise ValueError("only an operator assembled at a state keeps its face differences")
        return self._apply(u, self.diff * self.coeff)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if x.ndim > 1:
            return StencilOperator.__matmul__(self, x)
        flux = x[1:] - x[:-1]  # lo is x[:-1], hi is x[1:]
        flux *= self.coeff
        return self._apply(x, flux)

    def band(self) -> tuple:
        """The sub-, main and superdiagonal of the interior block, the input of ``dgtsv``/``dgttrf``.

        Row ``j`` reads ``(-(c_{j-1} - d_{j-1}), (c_j - d_j) + (c_{j-1} + d_{j-1}) + shift, -(c_j + d_j))``
        with ``d = 0`` without ``deriv``: ``c - d`` and ``c + d`` are formed
        once, and negation is exact, so the outer diagonals are the bits of
        ``-c + d`` and ``-c - d`` but for the sign of an entry that is exactly
        zero.  The three are new arrays, which ``dgtsv`` may overwrite.
        """
        lower = upper = c = self.coeff  # c - d and c + d
        if self.deriv is not None:
            lower, upper = c - self.deriv, c + self.deriv
        main = lower[1:] + upper[:-1]
        main += self.shift
        return -lower[1:-1], main, -upper[1:-1]

    def _apply(self, x, flux):
        """The face loop's sum from the flux ``c (x_hi - x_lo)``, which it may update in place."""
        if self.deriv is not None:
            pair = x[1:] + x[:-1]
            pair *= self.deriv
            flux += pair
        out = self.shift * x
        out[:-1] -= flux
        out[1:] += flux
        out[0] = x[0]
        out[-1] = x[-1]
        return out


def _read_only(a, dtype=float) -> np.ndarray:
    a = np.asarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


def _checked_state(grid: SpatialGrid, u, what: str) -> np.ndarray:
    """``u`` as a flat state; a 2-D ``(S, n_nodes)`` array is kept as a stack of states."""
    u = np.asarray(u, dtype=float)
    if u.ndim == 2 and u.shape[1] == grid.n_nodes:
        return u
    if u.ndim != 1:  # a flat state, the solver's case, needs no view
        u = u.ravel()
    if u.size != grid.n_nodes:
        raise ValueError(f"{what} does not match the grid")
    return u


def assemble_quasilinear_operator(grid: SpatialGrid, law: DiffusionLaw, u, shift: float = 0.0):
    """Assemble ``shift I_int - div_h(a(u) grad_h .)`` with the coefficient frozen at ``u``.

    Interior rows hold the divergence stencil with face coefficients
    ``a((u_left + u_right)/2)`` plus ``shift`` on the diagonal; boundary rows
    are identity.  For a constant law and ``shift = 0`` this is exactly
    ``const`` times the negative discrete Laplacian.  One 1D state gives a
    :class:`LineOperator`: its face means ``m = (u[:-1] + u[1:]) * 0.5``,
    differences ``u[1:] - u[:-1]`` and coefficients ``a(m) / h^2``, formed
    once each on plain slices, in the face loop's operations.  Anything else
    gives a :class:`StencilOperator`, which supports products, but no
    indexing: the face means of every axis fill one buffer, in its layout,
    and ``law.a`` is called once on it; each axis's slice of the result,
    divided by its ``h^2``, gives that axis's coefficients.  Assembled at one
    state, the operator keeps the face means the law was evaluated at, which
    :func:`newton_jacobian` reads.  A stack of states ``(S, n_nodes)`` gives
    one operator per state, which keeps no means.
    """
    if not (grid.dim == 1 and type(u) is np.ndarray and u.dtype == float and u.shape == grid.shape):
        u = _checked_state(grid, u, "coefficient state")
        if grid.dim > 1 or u.ndim > 1:
            return _assemble_faces(grid, law, u, shift)
    # one 1D state: the face loop's means and coefficients on plain slices
    m = u[:-1] + u[1:]
    m *= _HALF
    diff = u[1:] - u[:-1]
    c = law.a(m) / grid._spacing_squared[0]  # a float array: the 0-d h^2 promotes any law's values
    c.setflags(False)  # write, passed by position: numpy parses the keyword at twice the cost of the call
    m.setflags(False)
    diff.setflags(False)
    return LineOperator._of(grid, c, shift, None, m, diff)


def _assemble_faces(grid, law, u, shift):
    """The :class:`StencilOperator` of :func:`assemble_quasilinear_operator`, on the flat face arrays of every axis."""
    # the face means of every axis in one buffer, so the law is one call; each axis's faces are one slice of it
    cuts = grid._face_cuts
    m = np.empty(u.shape[:-1] + (cuts[-1][-1].stop,))
    for s, k in zip(grid.strides, cuts):
        np.add(u[..., :-s], u[..., s:], out=m[k])
    m *= 0.5
    a, c = np.asarray(law.a(m), dtype=float), np.empty_like(m)
    for h, k in zip(grid.spacing, cuts):
        np.divide(a[k], h**2, out=c[k])
    return StencilOperator(grid, [c[k] for k in cuts], shift, means=[m[k] for k in cuts] if u.ndim == 1 else None)


def newton_jacobian(law: DiffusionLaw, u: np.ndarray, frozen):
    """Jacobian of ``u -> -div_h(a(u) grad_h u)``, including the a'(u) terms, plus ``shift I_int``.

    ``frozen`` is the step matrix of :func:`assemble_quasilinear_operator`,
    already assembled at the state ``u`` (an array of ``n_nodes`` values):
    the Jacobian has its grid, boundary rows and ``shift``, shares its face
    coefficients and evaluates only the face terms
    ``0.5 a'(m) (u_hi - u_lo) / h^2``, at the face means ``m`` that
    ``frozen`` keeps, so it neither forms the means nor checks the state
    again.  A :class:`LineOperator` also keeps the face differences, so its
    Jacobian reads only ``u``'s shape: the terms are ``d = 0.5 a'(m)``,
    ``d *= diff``, ``d /= h^2``, the bits of the expression in that order.
    Raises ``ValueError`` for an operator that keeps no means (in 1D, no
    face differences).
    """
    grid = frozen.grid
    line = isinstance(frozen, LineOperator)
    if frozen.means is None or line and frozen.diff is None:
        raise ValueError("newton_jacobian extends an operator assembled at one state, which keeps its face means"
                         " (and in 1D its face differences)")
    if line:
        if u.shape != grid.shape:
            raise ValueError("state does not match the grid")
        d = _HALF * law.deriv(frozen.mean)
        d *= frozen.diff
        d /= grid._spacing_squared[0]
        d.setflags(False)
        return LineOperator._of(grid, frozen.coeff, frozen.shift, d)
    derivs = [0.5 * np.asarray(law.deriv(m), dtype=float) * (u[s:] - u[:-s]) / h**2
              for h, m, s in zip(grid.spacing, frozen.means, grid.strides)]
    return StencilOperator(grid, frozen.coeffs, frozen.shift, derivs)


def first_eigenvalue(grid: SpatialGrid) -> float:
    """Principal Dirichlet eigenvalue sum((pi / L_d)^2) of the box."""
    return float(sum((np.pi / L) ** 2 for L in grid.lengths))
