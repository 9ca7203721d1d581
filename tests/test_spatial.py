"""Grids, diffusion laws, operator assembly, and the Poincare constant."""

import math

import numpy as np
import pytest

from subdiff import solver
from subdiff.spatial import (
    LineOperator,
    SpatialGrid,
    StencilOperator,
    assemble_quasilinear_operator,
    build_grid,
    constant_law,
    first_eigenvalue,
    newton_jacobian,
    porous_law,
)

# 1D, the 2D square, and a 2D box whose axes differ in length and node count
BOXES = [(1, (0.0, 1.0), 33), (2, (0.0, 1.0), 17), (2, [(0.0, 1.0), (0.0, 2.0)], (17, 33))]


def _grid(dim, extents, res):
    """``build_grid`` on one interval and one node count, else ``SpatialGrid`` on paired extents and per-axis counts."""
    return build_grid(dim, extents, res) if np.isscalar(res) else SpatialGrid(extents, res)


def _dense(op):
    """The operator's matrix, column by column through its product."""
    return (op @ np.eye(op.grid.n_nodes)).T


def _jacobian(g, law, u, shift=0.0):
    """The Newton Jacobian at ``u``, extending the step matrix frozen there as the solver builds it."""
    return newton_jacobian(law, u, assemble_quasilinear_operator(g, law, u, shift))


def _dense_reference(g, law, u, shift, with_deriv):
    """Both operators built face by face into a dense array, independent of any sparse storage."""
    n = g.n_nodes
    ref = np.zeros((n, n))
    idx = np.arange(n).reshape(g.shape)
    for d, h in enumerate(g.spacing):
        for lo in np.ndindex(*g.shape):
            if lo[d] == g.shape[d] - 1:
                continue
            i, j = idx[lo], idx[lo[:d] + (lo[d] + 1,) + lo[d + 1 :]]
            mean = 0.5 * (u[i] + u[j])
            c = float(law.a(mean)) / h**2
            t = 0.5 * float(law.deriv(mean)) * (u[j] - u[i]) / h**2 if with_deriv else 0.0
            # row i carries the flux c (u_i - u_j), row j its negative; t is its a'-term
            ref[i, i] += c - t
            ref[i, j] += -c - t
            ref[j, j] += c + t
            ref[j, i] += -c + t
    boundary = np.flatnonzero(g.boundary_mask)
    ref[boundary] = 0.0
    ref[boundary, boundary] = 1.0
    ref[g.interior_indices(), g.interior_indices()] += shift
    return ref


def _nd_faces(g):
    """Per axis, the slices ``(lo, hi)`` of the faces' two nodes in a field shaped ``(..., *g.shape)``."""
    for d in range(g.dim):
        lo = (Ellipsis,) + tuple(slice(None, -1) if k == d else slice(None) for k in range(g.dim))
        hi = (Ellipsis,) + tuple(slice(1, None) if k == d else slice(None) for k in range(g.dim))
        yield lo, hi


def _nd_assembly(g, law, u):
    """The face means and coefficients ``a(mean) / h^2`` of the states ``u``, formed on the grid-shaped face slices."""
    u_nd = u.reshape(u.shape[:-1] + g.shape)
    means = [0.5 * (u_nd[lo] + u_nd[hi]) for lo, hi in _nd_faces(g)]
    return means, [law.a(m) / h**2 for h, m in zip(g.spacing, means)]


def _nd_derivs(g, law, u, means):
    """The Jacobian's face terms ``0.5 a'(mean) (u_hi - u_lo) / h^2`` on the grid-shaped face slices."""
    u_nd = u.reshape(g.shape)
    return [0.5 * law.deriv(m) * (u_nd[hi] - u_nd[lo]) / h**2 for h, m, (lo, hi) in zip(g.spacing, means, _nd_faces(g))]


def _nd_product(g, coeffs, derivs, shift, x):
    """The face-flux sum on the grid-shaped face slices, with the boundary entries of ``x``."""
    x_nd = x.reshape(x.shape[:-1] + g.shape)
    out = shift * x_nd
    for d, (lo, hi) in enumerate(_nd_faces(g)):
        flux = coeffs[d] * (x_nd[hi] - x_nd[lo])
        if derivs is not None:
            flux += derivs[d] * (x_nd[hi] + x_nd[lo])
        out[lo] -= flux
        out[hi] += flux
    out = out.reshape(x.shape)
    np.copyto(out, x, where=g.boundary_mask)
    return out


def _as_nd(g, d, flat):
    """Axis ``d``'s flat face array, ``n_nodes - strides[d]`` entries on its last axis, on the grid-shaped faces.

    Entry ``j`` is the face of the flat nodes ``j`` and ``j + strides[d]``; the
    entries that join two rows, none on axis 0, are left out.
    """
    s = g.strides[d]
    padded = np.concatenate([flat, np.zeros(flat.shape[:-1] + (s,))], axis=-1)
    return padded.reshape(flat.shape[:-1] + g.shape)[list(_nd_faces(g))[d][0]]


class TestBuildGrid:
    def test_1d_nodes(self):
        g = build_grid(1, (0.0, math.pi), 81)
        assert g.n_nodes == 81
        assert g.shape == (81,)
        np.testing.assert_allclose(g.axes[0][[0, -1]], [0.0, math.pi], rtol=0)
        np.testing.assert_allclose(g.spacing[0], math.pi / 80.0, rtol=1e-15)
        assert g.boundary_mask.sum() == 2
        assert g.interior_indices().size == 79

    def test_node_count_is_a_cached_int(self):
        g = SpatialGrid(((0.0, 1.0), (0.0, 2.0)), (17, 33))
        assert type(g.n_nodes) is int and g.n_nodes == 17 * 33
        assert g.__dict__["n_nodes"] is g.n_nodes

    def test_2d_boundary_count(self):
        g = build_grid(2, (0.0, 1.0), 9)
        assert g.n_nodes == 81
        # outer ring of a 9x9 grid
        assert int(g.boundary_mask.sum()) == 32
        pts = g.points()
        assert pts.shape == (81, 2)
        on_edge = (
            np.isclose(pts[:, 0], 0.0)
            | np.isclose(pts[:, 0], 1.0)
            | np.isclose(pts[:, 1], 0.0)
            | np.isclose(pts[:, 1], 1.0)
        )
        np.testing.assert_array_equal(on_edge, g.boundary_mask)

    def test_anisotropic_extents(self):
        g = SpatialGrid(((0.0, math.pi), (0.0, 2.0 * math.pi)), (5, 9))
        assert g.shape == (5, 9)
        assert g.lengths == (math.pi, 2.0 * math.pi)
        np.testing.assert_allclose(g.spacing, [math.pi / 4.0, math.pi / 4.0], rtol=1e-15)

    def test_quadrature_integrates_constants_exactly(self):
        for g in (build_grid(1, (0.0, 2.0), 33), SpatialGrid(((0.0, 2.0), (0.0, 2.0)), (9, 17))):
            vol = 2.0**g.dim
            np.testing.assert_allclose(g.quadrature_weights().sum(), vol, rtol=1e-13)

    def test_quadrature_integrates_sine_product(self):
        # int_0^pi sin = 2 per axis; trapezoid converges at second order
        g = build_grid(2, (0.0, math.pi), 129)
        pts = g.points()
        f = np.sin(pts[:, 0]) * np.sin(pts[:, 1])
        np.testing.assert_allclose(g.quadrature_weights() @ f, 4.0, rtol=2e-4)

    def test_validation(self):
        with pytest.raises(ValueError, match="extents and shape need 1 or 2 axes"):
            build_grid(3, (0.0, 1.0), 8)
        with pytest.raises(ValueError, match="extents must be finite intervals"):
            build_grid(1, (1.0, 0.0), 8)
        with pytest.raises(ValueError, match="shape must have at least 4 nodes"):
            build_grid(1, (0.0, 1.0), 3)
        with pytest.raises(ValueError, match="extents needs 2 numbers or 2 per axis of dimension 2, got 3"):
            build_grid(2, (0.0, 1.0, 2.0), 8)

    @pytest.mark.parametrize(
        "extents, shape, match",
        [
            (((0.0, 1.0),) * 3, (5, 5, 5), "extents and shape need 1 or 2 axes"),
            ((), (), "extents and shape need 1 or 2 axes"),
            (((0.0, 1.0), (0.0, 1.0)), (9,), "extents and shape need 1 or 2 axes"),
            (((0.0, math.inf),), (9,), "extents must be finite intervals"),
            (((math.nan, 1.0),), (9,), "extents must be finite intervals"),
            (((1.0, 1.0),), (9,), "extents must be finite intervals"),
            (((0.0, 1.0), (0.0, 1.0)), (9, 3), "shape must have at least 4 nodes"),
            # h = 1.25e-161: h^2 = 1.6e-322 is positive, 1 / h^2 overflows
            (((0.0, 1e-160),), (9,), "extents .* give an axis spacing h = 1.25e-161 whose h\\^2 or 1/h\\^2"),
            # h = 1.25e199: h^2 overflows
            (((0.0, 1.0), (0.0, 1e200)), (9, 9), "extents .* give an axis spacing h = 1.25e\\+199 whose"),
            # a < b, but the nodes of a 9-node axis round to 3 distinct values: h = 0
            (((1.0, 1.0 + 4e-16),), (9,), "extents .* give an axis spacing h = 0.0 whose"),
        ],
    )
    def test_grid_refuses_bad_arguments_by_name(self, extents, shape, match):
        with pytest.raises(ValueError, match=match):
            SpatialGrid(extents, shape)

    def test_derived_arrays_are_read_only(self):
        g = SpatialGrid(((0.0, 1.0), (-1.0, 2.0)), (5, 9))
        for arr in (*g.axes, g.boundary_mask):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[1]
        with pytest.raises(AttributeError):
            g.shape = (9, 9)

    def test_equal_grids_compare_and_hash_equal(self):
        g = build_grid(2, [0.0, 1.0, -1.0, 2.0], 9)
        same = SpatialGrid([(0, 1), (-1, 2)], [9, np.int64(9)])  # normalised to float and int tuples
        assert g == same and hash(g) == hash(same)
        assert same.extents == ((0.0, 1.0), (-1.0, 2.0)) and same.shape == (9, 9)
        assert len({g, same, build_grid(2, (0.0, 1.0), 9)}) == 2
        assert g != SpatialGrid(g.extents, (9, 17))

    @pytest.mark.parametrize(
        "extents, shape",
        [
            (((0.0, math.pi),), (81,)),
            (((0.1, 0.7),), (4,)),
            (((0.0, 1.0), (-1.0, 2.0)), (5, 9)),
            (((-math.pi, math.e), (0.3, 1e3)), (17, 33)),
            (((1e-3, 1e-3 + 1e-9), (0.0, 1e150)), (129, 7)),
        ],
    )
    def test_derived_fields_match_the_builder_they_replace(self, extents, shape):
        # the axes, spacing and mask that build_grid computed and stored before a grid derived them
        ext = np.asarray(extents, dtype=float)
        axes = tuple(np.linspace(a, b, n) for (a, b), n in zip(ext, shape))
        mask = np.zeros(shape, dtype=bool)
        for d in range(len(shape)):
            sl = [slice(None)] * len(shape)
            sl[d] = 0
            mask[tuple(sl)] = True
            sl[d] = -1
            mask[tuple(sl)] = True
        g = SpatialGrid(extents, shape)
        assert g.dim == len(shape)
        assert [ax.tobytes() for ax in g.axes] == [ax.tobytes() for ax in axes]
        assert g.spacing == tuple(float(ax[1] - ax[0]) for ax in axes)
        assert g.boundary_mask.tobytes() == mask.ravel().tobytes()

    def test_flat_extents_repeat_one_interval_or_pair_up(self):
        assert build_grid(2, [0.0, 1.0, -1.0, 2.0], 5).extents == ((0.0, 1.0), (-1.0, 2.0))
        assert build_grid(2, (0.0, 1.0), 5).extents == ((0.0, 1.0), (0.0, 1.0))
        assert build_grid(2, (0.0, 1.0), 5).shape == (5, 5)


class TestLaws:
    def test_constant_law(self):
        law = constant_law(2.5)
        y = np.linspace(-4.0, 4.0, 5)
        np.testing.assert_allclose(law.a(y), 2.5, rtol=0)
        np.testing.assert_allclose(law.deriv(y), 0.0, rtol=0)
        assert law.nu == law.lam == 2.5

    def test_porous_law_bounds(self):
        law = porous_law()
        y = np.linspace(-50.0, 50.0, 4001)
        a = law.a(y)
        assert law.nu == 1.0 and law.lam == 1.5
        assert np.all(a >= 1.0)
        assert np.all(a < 1.5)
        np.testing.assert_allclose(law.a(0.0), 1.0, rtol=0)
        # a(y) -> 1.5 from below
        np.testing.assert_allclose(law.a(1e8), 1.5, rtol=1e-15)

    def test_porous_law_derivative_consistent(self):
        law = porous_law()
        y = np.linspace(-5.0, 5.0, 257)
        h = 1e-6 * 5.0  # relative to max |y|
        central = (law.a(y + h) - law.a(y - h)) / (2.0 * h)
        assert np.max(np.abs(central - law.deriv(y))) < 1e-8

    def test_porous_law_is_its_one_expression_form_bitwise(self):
        # a and a' make fewer passes than 1 + 0.5 * y * y / (1 + y * y) and y / (1 + y * y) ** 2 and must keep
        # their bits, NaN included: the sample spans underflow, the band 1.34e154 < |y| < 1.9e154 where only
        # y * y overflows (a is exactly 1 there), the overflow of 0.5 * y * y beyond it (NaN), and inf
        law = porous_law()
        tiny = np.finfo(float).tiny
        y = np.concatenate([np.geomspace(1e-200, 1e160, 4001), np.geomspace(1.3e154, 2e154, 101),
                            [0.0, np.inf, 5e-324, tiny / 3, tiny, 1e-162, 1.5e154]])
        y = np.concatenate([y, -y])
        with np.errstate(all="ignore"):
            want_a = 1.0 + 0.5 * y * y / (1.0 + y * y)
            want_d = y / (1.0 + y * y) ** 2
            got_a, got_d = law.a(y), law.deriv(y)
        assert got_a.tobytes() == want_a.tobytes()
        assert got_d.tobytes() == want_d.tobytes()
        assert np.isnan(got_a).any() and (got_a[np.abs(y) == 1.5e154] == 1.0).all()  # the sample reaches both cases
        # Python floats (the dense reference's case), ints and lists give floats, with the same bits
        for v in (0.3, -7.25, 1e-170, 2, 0, [0.1, -2.0, 3]):
            w = np.asarray(v, dtype=float)
            for got, want in ((law.a(v), 1.0 + 0.5 * w * w / (1.0 + w * w)), (law.deriv(v), w / (1.0 + w * w) ** 2)):
                assert isinstance(got, float) if np.ndim(v) == 0 else got.dtype == float
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert law.a(0.5) == 1.0 + 0.5 * 0.5 * 0.5 / (1.0 + 0.5 * 0.5)  # Python float arithmetic, the same IEEE steps

    def test_law_validation(self):
        with pytest.raises(ValueError):
            constant_law(0.0)
        with pytest.raises(ValueError):
            constant_law(-1.0)


class TestOperator:
    def test_constant_law_is_scaled_laplacian(self):
        g = build_grid(1, (0.0, 1.0), 6)
        h2 = g.spacing[0] ** 2
        A = _dense(assemble_quasilinear_operator(g, constant_law(3.0), np.zeros(6)))
        # interior row: 3 * (-1, 2, -1) / h^2
        for i in (1, 2, 3, 4):
            np.testing.assert_allclose(A[i, i], 6.0 / h2, rtol=1e-14)
            np.testing.assert_allclose(A[i, i - 1], -3.0 / h2, rtol=1e-14)
            np.testing.assert_allclose(A[i, i + 1], -3.0 / h2, rtol=1e-14)
        # boundary rows are identity
        np.testing.assert_allclose(A[0], np.eye(6)[0], rtol=0)
        np.testing.assert_allclose(A[-1], np.eye(6)[-1], rtol=0)

    def test_discretization_error_second_order(self):
        # manufactured: u = sin(x), a(y) = 1 + y^2/(2(1+y^2));
        # compare A(u) u against -(a(u) u')' evaluated analytically
        law = porous_law()
        errs = []
        for n in (33, 65, 129):
            g = build_grid(1, (0.0, math.pi), n)
            x = g.axes[0]
            u = np.sin(x)
            Au = assemble_quasilinear_operator(g, law, u) @ u
            s, c = np.sin(x), np.cos(x)
            exact = -(law.deriv(u) * c * c - law.a(u) * s)
            errs.append(np.max(np.abs((Au - exact)[1:-1])))
        assert errs[0] / errs[1] > 3.5
        assert errs[1] / errs[2] > 3.5

    def test_interior_block_symmetric(self):
        g = build_grid(2, (0.0, 1.0), 7)
        rng = np.random.default_rng(0)
        u = rng.normal(size=g.n_nodes)
        A = assemble_quasilinear_operator(g, porous_law(), u)
        ii = g.interior_indices()
        B = _dense(A)[np.ix_(ii, ii)]
        assert np.abs(B - B.T).max() < 1e-12

    def test_2d_cross_stencil(self):
        g = build_grid(2, (0.0, 1.0), 5)
        h2 = g.spacing[0] ** 2
        A = _dense(assemble_quasilinear_operator(g, constant_law(1.0), np.zeros(g.n_nodes)))
        i = 2 * 5 + 2  # center node
        np.testing.assert_allclose(A[i, i], 4.0 / h2, rtol=1e-14)
        for j in (i - 1, i + 1, i - 5, i + 5):
            np.testing.assert_allclose(A[i, j], -1.0 / h2, rtol=1e-14)
        assert np.count_nonzero(A[i]) == 5

    def test_newton_jacobian_matches_finite_differences(self):
        law = porous_law()
        g = build_grid(1, (0.0, 1.0), 12)
        rng = np.random.default_rng(4)
        u = rng.normal(size=12)
        u[0] = u[-1] = 0.0

        def F(v):
            return assemble_quasilinear_operator(g, law, v) @ v

        J = _dense(_jacobian(g, law, u))
        h = 1e-6
        fd = np.empty((12, 12))
        for j in range(12):
            e = np.zeros(12)
            e[j] = h
            fd[:, j] = (F(u + e) - F(u - e)) / (2.0 * h)
        ii = g.interior_indices()
        np.testing.assert_allclose(J[np.ix_(ii, ii)], fd[np.ix_(ii, ii)], atol=5e-7)

    @pytest.mark.parametrize("dim, extents, res", BOXES[1:])
    def test_newton_jacobian_matches_finite_differences_on_a_box(self, dim, extents, res):
        # the Jacobian is dimension-general: its product carries the a' terms of every axis
        law = porous_law()
        g = _grid(dim, extents, res)
        u = np.where(g.boundary_mask, 0.0, np.random.default_rng(4).normal(size=g.n_nodes))

        def F(v):
            return assemble_quasilinear_operator(g, law, v) @ v

        J = _dense(_jacobian(g, law, u))
        ii = g.interior_indices()
        h = 1e-6
        fd = np.empty((len(ii), len(ii)))
        for k, j in enumerate(ii):
            e = np.zeros(g.n_nodes)
            e[j] = h
            fd[:, k] = ((F(u + e) - F(u - e)) / (2.0 * h))[ii]
        np.testing.assert_allclose(J[np.ix_(ii, ii)], fd, atol=1e-9 * np.abs(J).max())

    @pytest.mark.parametrize("dim, extents, res", BOXES)
    def test_jacobian_extends_its_frozen_operator(self, dim, extents, res):
        # the Jacobian keeps the grid and the shift of the step matrix and shares its face coefficients
        g = _grid(dim, extents, res)
        u = np.random.default_rng(10).normal(size=g.n_nodes)
        frozen = assemble_quasilinear_operator(g, porous_law(), u, shift=2.5)
        J = newton_jacobian(porous_law(), u, frozen)
        assert J.grid is g
        assert J.shift == 2.5
        assert all(c is f for c, f in zip(J.coeffs, frozen.coeffs, strict=True))
        assert frozen.derivs is None and len(J.derivs) == g.dim

    @pytest.mark.parametrize("build", [assemble_quasilinear_operator, _jacobian])
    @pytest.mark.parametrize("dim, res", [(1, 9), (2, (5, 7))])
    def test_shift_adds_to_interior_diagonal_only(self, build, dim, res):
        g = SpatialGrid(((0.0, 1.0),) * dim, np.broadcast_to(res, dim))
        u = np.random.default_rng(1).normal(size=g.n_nodes)
        plain = _dense(build(g, porous_law(), u))
        shifted = _dense(build(g, porous_law(), u, shift=2.5))
        expected = plain + np.diag(np.where(g.boundary_mask, 0.0, 2.5))
        np.testing.assert_array_equal(shifted, expected)

    @pytest.mark.parametrize("shift", [0.0, 2.5])
    @pytest.mark.parametrize("build, with_deriv", [(assemble_quasilinear_operator, False), (_jacobian, True)])
    @pytest.mark.parametrize("dim, extents, res", BOXES)
    def test_matches_face_by_face_dense_reference(self, dim, extents, res, build, with_deriv, shift):
        g = _grid(dim, extents, res)
        law = porous_law()
        u = np.random.default_rng(5).normal(size=g.n_nodes)
        ref = _dense_reference(g, law, u, shift, with_deriv)
        np.testing.assert_allclose(_dense(build(g, law, u, shift=shift)), ref, rtol=1e-14, atol=1e-14 * np.abs(ref).max())

    @pytest.mark.parametrize("build", [assemble_quasilinear_operator, _jacobian])
    def test_tridiagonal_is_the_interior_band(self, build, monkeypatch):
        g = build_grid(1, (0.0, 1.0), 12)
        M = build(g, porous_law(), np.random.default_rng(3).normal(size=12), shift=2.5)
        dense = _dense(M)[1:-1, 1:-1]
        sub, main, sup = M.band()
        assert np.array_equal(sub, np.diag(dense, -1))
        assert np.array_equal(sup, np.diag(dense, 1))
        # the product sums a diagonal entry in another order than dgttrf's input
        np.testing.assert_allclose(main, np.diag(dense), rtol=1e-15)
        # the band is factored once per operator, on its second solve, and every later solve reuses the factors
        dgtsv, dgttrf, dgttrs = solver._tridiagonal_lapack()
        factored = []
        monkeypatch.setattr(
            solver, "_tridiagonal_lapack", lambda: (dgtsv, lambda *d: factored.append(d) or dgttrf(*d), dgttrs)
        )
        b = np.random.default_rng(4).normal(size=12)
        x = [solver.spsolve(M, b, nu=1.0, atol=0.0) for _ in range(3)]
        assert len(factored) == 1
        assert x[0].tobytes() == x[1].tobytes() == x[2].tobytes()

    # the operators of the three step kinds: frozen (Picard), Newton (with derivs) and a constant law's
    _STEP_OPERATORS = [
        (assemble_quasilinear_operator, porous_law()),
        (_jacobian, porous_law()),
        (assemble_quasilinear_operator, constant_law(1.0)),
    ]

    @pytest.mark.parametrize("n", [65, 257])
    @pytest.mark.parametrize("build, law", _STEP_OPERATORS, ids=["frozen", "newton", "constant"])
    def test_one_field_product_is_the_face_loop_bitwise(self, build, law, n):
        # a 1D operator applies to one field on plain slices; stacked as (1, n), the same operator takes the
        # generic face loop, and both must give the same bits
        g = build_grid(1, (0.0, np.pi), n)
        rng = np.random.default_rng(n)
        M = build(g, law, np.sin(g.axes[0]) + 0.1 * rng.normal(size=n), shift=rng.uniform(1.0, 1e3))
        derivs = None if M.derivs is None else [d[None] for d in M.derivs]
        stacked = StencilOperator(g, [c[None] for c in M.coeffs], M.shift, derivs)
        for x in (rng.normal(size=n), np.sin(g.axes[0]) * rng.uniform(0.5, 2.0, n)):
            assert (M @ x).tobytes() == (stacked @ x[None])[0].tobytes()

    @pytest.mark.parametrize("n", [65, 257])
    @pytest.mark.parametrize("build, law", _STEP_OPERATORS, ids=["frozen", "newton", "constant"])
    def test_one_state_products_are_the_written_face_loop_bitwise(self, build, law, n):
        # the product with any field, and the step matrix's product with its own state, which it forms from the
        # face differences it keeps, against the face loop written out over the face slices
        g = build_grid(1, (0.0, np.pi), n)
        rng = np.random.default_rng(n + 1)
        u = np.sin(g.axes[0]) + 0.1 * rng.normal(size=n)
        shift = rng.uniform(1.0, 1e3)
        M = build(g, law, u, shift=shift)
        means, coeffs = _nd_assembly(g, law, u)
        derivs = None if M.deriv is None else _nd_derivs(g, law, u, means)
        for x in (rng.normal(size=n), u):
            assert (M @ x).tobytes() == _nd_product(g, coeffs, derivs, shift, x).tobytes()
        frozen = assemble_quasilinear_operator(g, law, u, shift=shift)
        assert frozen.at_state(u).tobytes() == _nd_product(g, coeffs, None, shift, u).tobytes()
        if M.deriv is not None:
            with pytest.raises(ValueError, match="face differences"):
                M.at_state(u)  # a Jacobian keeps no state of its own

    @pytest.mark.parametrize("build, law", _STEP_OPERATORS, ids=["frozen", "newton", "constant"])
    def test_one_state_operator_keeps_only_read_only_arrays_of_its_own(self, build, law):
        # no kept array is writable or a view of the state: writes into a copy of u, or into u itself, leave the
        # operator's product equal to that of an operator assembled afresh at u's old values
        n = 33
        g = build_grid(1, (0.0, np.pi), n)
        rng = np.random.default_rng(14)
        u = np.sin(g.axes[0]) + 0.1 * rng.normal(size=n)
        old = u.copy()
        M = build(g, law, u, shift=2.5)
        arrays = [a for a in (M.coeff, M.deriv, M.mean, M.diff) if a is not None]
        assert len(arrays) == (2 if build is _jacobian else 3)
        for a in arrays:
            assert not np.shares_memory(a, u)
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        x = rng.normal(size=n)
        want = (M @ x).tobytes()
        for target in (u.copy(), u):
            target[:] = rng.normal(size=n)
            assert (M @ x).tobytes() == want == (build(g, law, old, shift=2.5) @ x).tobytes()
        # so are the LU factors its second solve keeps
        b = rng.normal(size=n)
        for _ in range(2):
            solver.spsolve(M, b, nu=1.0, atol=0.0)
        assert len(M.factors) == 5
        for f in M.factors:
            with pytest.raises(ValueError, match="read-only"):
                f[0] = 0

    def test_hand_built_line_operator_keeps_only_read_only_arrays(self):
        # the public constructor makes every array it is given a read-only float array, as StencilOperator's does:
        # a caller's writable array cannot change the operator, nor the factors it keeps, after a solve
        g = build_grid(1, (0.0, 1.0), 9)
        rng = np.random.default_rng(15)
        coeff, deriv = rng.uniform(1.0, 2.0, 8), rng.uniform(-0.1, 0.1, 8).tolist()
        mean, diff = np.arange(8), rng.normal(size=16)[::2]
        M = LineOperator(g, coeff, 2.5, deriv, mean, diff)
        for kept in (M.coeff, M.deriv, M.mean, M.diff):
            assert kept.dtype == float
            with pytest.raises(ValueError, match="read-only"):
                kept[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            coeff[0] = 0.0  # the caller's float array is the kept one
        b = rng.normal(size=9)
        want = (M @ b).tobytes()
        x = [solver.spsolve(M, b, nu=1.0, atol=0.0) for _ in range(3)]
        assert len(M.factors) == 5
        assert x[0].tobytes() == x[1].tobytes() == x[2].tobytes()
        assert (M @ b).tobytes() == want

    @pytest.mark.parametrize("n", [65, 257])
    @pytest.mark.parametrize("build, law", _STEP_OPERATORS, ids=["frozen", "newton", "constant"])
    def test_tridiagonal_is_its_row_formula_bitwise(self, build, law, n):
        # row j: (-(c_{j-1} - d_{j-1}), (c_j - d_j) + (c_{j-1} + d_{j-1}) + shift, -(c_j + d_j)), d = 0 without derivs
        g = build_grid(1, (0.0, np.pi), n)
        rng = np.random.default_rng(n)
        M = build(g, law, rng.normal(size=n), shift=rng.uniform(1.0, 1e3))
        c = M.coeffs[0].tolist()
        d = [0.0] * (n - 1) if M.derivs is None else M.derivs[0].tolist()
        rows = range(1, n - 1)
        want = (
            [-(c[j - 1] - d[j - 1]) for j in rows[1:]],
            [(c[j] - d[j]) + (c[j - 1] + d[j - 1]) + M.shift for j in rows],
            [-(c[j] + d[j]) for j in rows[:-1]],
        )
        for got, expected in zip(M.band(), want, strict=True):
            assert got.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("build", [assemble_quasilinear_operator, _jacobian])
    @pytest.mark.parametrize("dim, extents, res", BOXES)
    def test_boundary_rows_are_identity(self, dim, extents, res, build):
        g = _grid(dim, extents, res)
        rng = np.random.default_rng(2)
        M = build(g, porous_law(), rng.normal(size=g.n_nodes), shift=1.5)
        b = g.boundary_mask
        dense = _dense(M)
        assert np.array_equal(dense[b], np.eye(g.n_nodes)[b])
        assert not np.any(np.signbit(dense[b]))  # +0.0 off the diagonal
        v = rng.normal(size=g.n_nodes)
        v[~b] = np.inf
        with np.errstate(invalid="ignore"):
            got = M @ v
        assert np.array_equal(got[b], v[b])  # no interior value reaches a boundary entry, not even as 0 * inf

    @pytest.mark.parametrize("build", [assemble_quasilinear_operator, _jacobian])
    @pytest.mark.parametrize("dim, extents, res", BOXES)
    def test_stacked_product_equals_field_by_field(self, dim, extents, res, build):
        g = _grid(dim, extents, res)
        rng = np.random.default_rng(8)
        M = build(g, porous_law(), rng.normal(size=g.n_nodes), shift=2.5)
        V = rng.normal(size=(3, g.n_nodes))
        got = M @ V
        assert got.shape == V.shape
        for v, row in zip(V, got):
            assert np.array_equal(row, M @ v)

    @pytest.mark.parametrize("shift", [0.0, 2.5])
    @pytest.mark.parametrize("law", [constant_law(2.0), porous_law()], ids=["constant", "porous"])
    @pytest.mark.parametrize("dim, extents, res", BOXES)
    def test_matrix_free_apply_matches_assembled_product(self, dim, extents, res, law, shift):
        # the operator frozen at u, applied to u by its face fluxes and by the face-by-face dense reference
        g = _grid(dim, extents, res)
        u = np.random.default_rng(6).normal(size=g.n_nodes)
        got = assemble_quasilinear_operator(g, law, u, shift=shift) @ u
        want = _dense_reference(g, law, u, shift, with_deriv=False) @ u
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())
        assert np.array_equal(got[g.boundary_mask], u[g.boundary_mask])

    @pytest.mark.parametrize("shift", [0.0, 2.5])
    @pytest.mark.parametrize("law", [constant_law(2.0), porous_law()], ids=["constant", "porous"])
    @pytest.mark.parametrize("dim, extents, res", BOXES)
    @pytest.mark.parametrize("rows", [1, 5])
    def test_stacked_apply_equals_row_by_row(self, dim, extents, res, law, shift, rows):
        # frozen at a stack of states, the operator is one operator per state, each applied to its own state
        g = _grid(dim, extents, res)
        U = np.random.default_rng(7).normal(size=(rows, g.n_nodes))
        got = assemble_quasilinear_operator(g, law, U, shift=shift) @ U
        assert got.shape == U.shape
        for u, row in zip(U, got):
            assert np.array_equal(row, assemble_quasilinear_operator(g, law, u, shift=shift) @ u)

    def test_stacked_operator_supports_only_the_product(self):
        g = build_grid(1, (0.0, 1.0), 9)
        U = np.random.default_rng(9).normal(size=(9, 9))
        A = assemble_quasilinear_operator(g, porous_law(), U)
        assert type(A) is StencilOperator and (A @ U).shape == U.shape
        with pytest.raises(ValueError, match="stacked"):
            solver.spsolve(A, U[0], nu=1.0, atol=0.0)

    @pytest.mark.parametrize("n", [9, 65])
    @pytest.mark.parametrize("law", [porous_law(), constant_law(1.5)], ids=["porous", "constant"])
    def test_one_state_builders_are_the_face_loop_bitwise(self, law, n):
        # one 1D state takes plain slices in both builders; the strided face loop, as a stack (1, n) takes it,
        # and the formulas written out over the face slices must give the same bits, means included
        g = build_grid(1, (0.0, np.pi), n)
        rng = np.random.default_rng(n)
        u = np.sin(g.axes[0]) + 0.1 * rng.normal(size=n)
        shift = rng.uniform(1.0, 1e3)
        M = assemble_quasilinear_operator(g, law, u, shift=shift)
        stacked = assemble_quasilinear_operator(g, law, u[None], shift=shift)
        lo, hi, (h,) = u[:-1], u[1:], g.spacing
        m = 0.5 * (lo + hi)
        assert M.means[0].tobytes() == m.tobytes()
        assert M.coeffs[0].tobytes() == stacked.coeffs[0][0].tobytes() == (law.a(m) / h**2).tobytes()
        J = newton_jacobian(law, u, M)
        assert J.derivs[0].tobytes() == (0.5 * law.deriv(m) * (hi - lo) / h**2).tobytes()

    @pytest.mark.parametrize("dim, extents, res", BOXES)
    def test_one_state_operator_keeps_its_face_means_read_only(self, dim, extents, res):
        g = _grid(dim, extents, res)
        u = np.random.default_rng(11).normal(size=g.n_nodes)
        M = assemble_quasilinear_operator(g, porous_law(), u, shift=2.0)
        assert len(M.means) == g.dim
        for m, s in zip(M.means, g.strides, strict=True):  # flat: entry j is the face of nodes j and j + s
            assert m.tobytes() == (0.5 * (u[:-s] + u[s:])).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                m[0] = 0.0
        # a stack of states keeps none, and a Jacobian needs them
        stacked = assemble_quasilinear_operator(g, porous_law(), u[None], shift=2.0)
        assert stacked.means is None
        bare = LineOperator(g, M.coeff, 2.0) if g.dim == 1 else StencilOperator(g, M.coeffs, 2.0)
        with pytest.raises(ValueError, match="face means"):
            newton_jacobian(porous_law(), u, bare)

    # a box whose axes differ in length and node count, and the porous2d bench grid
    _LAYOUT_GRIDS = [SpatialGrid([(0.0, 1.0), (-0.5, 2.0)], (9, 13)), build_grid(2, (0.0, 1.0), 65)]

    @pytest.mark.parametrize("g", _LAYOUT_GRIDS, ids=["9x13", "65x65"])
    def test_flat_2d_faces_are_the_grid_shaped_face_loop_bitwise(self, g):
        # assembly, Jacobian and product, one field and a stack, against the formulas on the grid-shaped face
        # slices; the flat arrays hold the same faces, entry j joining the flat nodes j and j + strides[d]
        law, n = porous_law(), g.n_nodes
        rng = np.random.default_rng(n)
        u, shift = rng.normal(size=n), rng.uniform(1.0, 1e3)
        M = assemble_quasilinear_operator(g, law, u, shift=shift)
        J = newton_jacobian(law, u, M)
        means, coeffs = _nd_assembly(g, law, u)
        derivs = _nd_derivs(g, law, u, means)
        assert g.strides == (g.shape[1], 1)
        for d, s in enumerate(g.strides):
            for flat, want in ((M.means[d], means[d]), (M.coeffs[d], coeffs[d]), (J.derivs[d], derivs[d])):
                assert flat.shape == (n - s,)
                assert _as_nd(g, d, flat).tobytes() == want.tobytes()
        x, X = rng.normal(size=n), rng.normal(size=(3, n))
        for op, op_derivs in ((M, None), (J, derivs)):
            for v in (x, X):
                assert (op @ v).tobytes() == _nd_product(g, coeffs, op_derivs, shift, v).tobytes()
        # frozen at a stack of states: one operator per state, applied to its own state
        U = rng.normal(size=(4, n))
        S = assemble_quasilinear_operator(g, law, U, shift=shift)
        stacked_coeffs = _nd_assembly(g, law, U)[1]
        for d, s in enumerate(g.strides):
            assert S.coeffs[d].shape == (4, n - s)
            assert _as_nd(g, d, S.coeffs[d]).tobytes() == stacked_coeffs[d].tobytes()
        assert (S @ U).tobytes() == _nd_product(g, stacked_coeffs, None, shift, U).tobytes()

    @pytest.mark.parametrize("stack", [None, 4], ids=["one", "stacked"])
    def test_row_end_entries_never_reach_a_product(self, stack):
        # axis 1's entry at each row end joins two boundary nodes: NaN written there changes no bit of any product
        g = SpatialGrid([(0.0, 1.0), (-0.5, 2.0)], (9, 13))
        n, lead = g.n_nodes, (() if stack is None else (stack,))
        rng = np.random.default_rng(13)
        coeffs = [rng.uniform(1.0, 2.0, lead + (n - s,)) for s in g.strides]
        derivs = [rng.normal(size=lead + (n - s,)) for s in g.strides]
        row_end = np.arange(n - 1) % g.shape[1] == g.shape[1] - 1
        assert row_end.sum() == g.shape[0] - 1
        dirty_coeffs, dirty_derivs = [c.copy() for c in coeffs], [d.copy() for d in derivs]
        dirty_coeffs[1][..., row_end] = dirty_derivs[1][..., row_end] = np.nan
        fields = [rng.normal(size=(stack, n))] if stack else [rng.normal(size=n), rng.normal(size=(3, n))]
        for clean_derivs, nan_derivs in ((None, None), (derivs, dirty_derivs)):
            clean = StencilOperator(g, coeffs, 2.5, clean_derivs)
            dirty = StencilOperator(g, dirty_coeffs, 2.5, nan_derivs)
            for v in fields:
                want = clean @ v
                assert not np.isnan(want).any()
                assert (dirty @ v).tobytes() == want.tobytes()

    def test_2d_operator_is_second_order_on_a_non_square_box(self):
        # A(u) u at the interior nodes against -div(a(u) grad u) = -(a'(u) |grad u|^2 + a(u) lap u) in closed form,
        # on a box whose axes differ in length and spacing, so a mix-up of the two axes' strides shows
        law = porous_law()
        errors = []
        for k in range(3):
            g = SpatialGrid([(0.0, 1.0), (-0.5, 2.0)], (8 * 2**k + 1, 12 * 2**k + 1))
            x, y = g.points().T
            u = np.sin(2.0 * x + 1.0) * np.cos(y) + 0.5 * x * y
            ux = 2.0 * np.cos(2.0 * x + 1.0) * np.cos(y) + 0.5 * y
            uy = -np.sin(2.0 * x + 1.0) * np.sin(y) + 0.5 * x
            lap = -5.0 * np.sin(2.0 * x + 1.0) * np.cos(y)
            want = -(law.deriv(u) * (ux * ux + uy * uy) + law.a(u) * lap)
            got = assemble_quasilinear_operator(g, law, u) @ u
            ii = g.interior_indices()
            errors.append(np.abs(got[ii] - want[ii]).max())
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all((1.8 <= orders) & (orders <= 2.2)), (errors, orders)

    def test_size_mismatch_rejected(self):
        g = build_grid(1, (0.0, 1.0), 8)
        with pytest.raises(ValueError):
            assemble_quasilinear_operator(g, constant_law(), np.zeros(7))
        with pytest.raises(ValueError):
            newton_jacobian(constant_law(), np.zeros(9), assemble_quasilinear_operator(g, constant_law(), np.zeros(8)))
        with pytest.raises(ValueError):
            assemble_quasilinear_operator(g, constant_law(), np.zeros((3, 9)))


class TestPoincare:
    """``first_eigenvalue`` is the continuous constant of the box and
    ``dirichlet_eigenvalues.flat[0]`` the discrete one, checked against a dense
    eigensolve of the assembled (a == 1) interior block."""

    @staticmethod
    def _interior_spectrum(g):
        ii = g.interior_indices()
        A = _dense(assemble_quasilinear_operator(g, constant_law(1.0), np.zeros(g.n_nodes)))[np.ix_(ii, ii)]
        return np.linalg.eigvalsh(A)

    def test_unit_interval(self):
        g = build_grid(1, (0.0, 1.0), 161)
        continuous = first_eigenvalue(g)
        np.testing.assert_allclose(continuous, math.pi**2, rtol=1e-14)
        # discrete eigenvalue (2/h)^2 sin^2(pi h / 2) sits just below pi^2
        for discrete in (self._interior_spectrum(g)[0], g.dirichlet_eigenvalues.flat[0]):
            assert discrete < continuous
            np.testing.assert_allclose(discrete, continuous, rtol=1e-3)

    def test_frozen_values(self):
        np.testing.assert_allclose(first_eigenvalue(build_grid(1, (0.0, math.pi), 101)), 1.0, rtol=1e-14)
        np.testing.assert_allclose(first_eigenvalue(build_grid(2, (0.0, math.pi), 17)), 2.0, rtol=1e-14)
        np.testing.assert_allclose(
            first_eigenvalue(SpatialGrid(((0.0, math.pi), (0.0, 2.0 * math.pi)), (17, 17))), 1.25, rtol=1e-14
        )

    def test_discrete_value_closed_form_1d(self):
        # for -u'' on (0, L) with N nodes: lambda_h = (2/h)^2 sin^2(pi h / (2 L))
        g = build_grid(1, (0.0, 2.0), 41)
        h = g.spacing[0]
        want = (2.0 / h) ** 2 * math.sin(math.pi * h / 4.0) ** 2
        np.testing.assert_allclose(self._interior_spectrum(g)[0], want, rtol=1e-9)
        np.testing.assert_allclose(g.dirichlet_eigenvalues.flat[0], want, rtol=1e-9)

    @pytest.mark.parametrize(
        "dim, extents, res", [(1, (0.0, 2.0), 41), (2, (0.0, 1.0), 21), (2, [(0.0, 1.0), (0.0, 2.0)], (17, 33))]
    )
    def test_sine_eigenvalue_table_starts_at_discrete_constant(self, dim, extents, res):
        g = _grid(dim, extents, res)
        np.testing.assert_allclose(g.dirichlet_eigenvalues.flat[0], self._interior_spectrum(g)[0], rtol=1e-10)
        assert g.dirichlet_eigenvalues.shape == tuple(n - 2 for n in g.shape)
        assert g.dirichlet_eigenvalues.flat[0] == g.dirichlet_eigenvalues.min()

    def test_sine_eigenvalue_table_is_the_interior_spectrum(self):
        g = SpatialGrid(((0.0, 1.0), (0.0, 2.0)), (7, 9))
        np.testing.assert_allclose(
            np.sort(g.dirichlet_eigenvalues.ravel()), self._interior_spectrum(g), rtol=1e-12
        )

    def test_2d_discrete_below_continuous(self):
        g = build_grid(2, (0.0, 1.0), 21)
        continuous = first_eigenvalue(g)
        for discrete in (self._interior_spectrum(g)[0], g.dirichlet_eigenvalues.flat[0]):
            assert discrete < continuous
            np.testing.assert_allclose(discrete, continuous, rtol=5e-3)
