"""Grids, diffusion laws, operator assembly, and the Poincare constant."""

import math

import numpy as np
import pytest

from subdiff.spatial import (
    assemble_quasilinear_operator,
    build_grid,
    constant_law,
    ellipticity_check,
    first_eigenvalue,
    newton_jacobian,
    porous_law,
)

# 1D, the 2D square, and a 2D box whose axes differ in length and node count
BOXES = [(1, (0.0, 1.0), 33), (2, (0.0, 1.0), 17), (2, [(0.0, 1.0), (0.0, 2.0)], (17, 33))]


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
        g = build_grid(2, [(0.0, 1.0), (0.0, 2.0)], (17, 33))
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
        g = build_grid(2, [(0.0, math.pi), (0.0, 2.0 * math.pi)], (5, 9))
        assert g.shape == (5, 9)
        assert g.lengths == (math.pi, 2.0 * math.pi)
        np.testing.assert_allclose(g.spacing, [math.pi / 4.0, math.pi / 4.0], rtol=1e-15)

    def test_quadrature_integrates_constants_exactly(self):
        for dim, res in [(1, 33), (2, (9, 17))]:
            g = build_grid(dim, (0.0, 2.0), res)
            vol = 2.0**dim
            np.testing.assert_allclose(g.quadrature_weights().sum(), vol, rtol=1e-13)

    def test_quadrature_integrates_sine_product(self):
        # int_0^pi sin = 2 per axis; trapezoid converges at second order
        g = build_grid(2, (0.0, math.pi), 129)
        pts = g.points()
        f = np.sin(pts[:, 0]) * np.sin(pts[:, 1])
        np.testing.assert_allclose(g.quadrature_weights() @ f, 4.0, rtol=2e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_grid(3, (0.0, 1.0), 8)
        with pytest.raises(ValueError):
            build_grid(1, (1.0, 0.0), 8)
        with pytest.raises(ValueError):
            build_grid(1, (0.0, 1.0), 3)
        with pytest.raises(ValueError, match="extents needs 2 or 4 numbers for dimension 2, got 3"):
            build_grid(2, (0.0, 1.0, 2.0), 8)

    def test_flat_and_paired_extents_agree(self):
        flat = build_grid(2, [0.0, 1.0, -1.0, 2.0], (5, 9))
        paired = build_grid(2, [(0.0, 1.0), (-1.0, 2.0)], (5, 9))
        assert flat.extents == paired.extents == ((0.0, 1.0), (-1.0, 2.0))
        assert build_grid(2, (0.0, 1.0), 5).extents == ((0.0, 1.0), (0.0, 1.0))


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

    def test_law_validation(self):
        with pytest.raises(ValueError):
            constant_law(0.0)
        with pytest.raises(ValueError):
            constant_law(-1.0)

    def test_ellipticity_check(self):
        rep = ellipticity_check(porous_law(), (-10.0, 10.0))
        assert rep.passed
        assert 1.0 <= rep.min_a <= rep.max_a <= 1.5
        bad = ellipticity_check(constant_law(1.0), (0.0, 1.0))
        assert bad.passed
        with pytest.raises(ValueError):
            ellipticity_check(porous_law(), (1.0, 1.0))


class TestOperator:
    def test_constant_law_is_scaled_laplacian(self):
        g = build_grid(1, (0.0, 1.0), 6)
        h2 = g.spacing[0] ** 2
        A = assemble_quasilinear_operator(g, constant_law(3.0), np.zeros(6)).toarray()
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
        B = A.tocsr()[np.ix_(ii, ii)]
        assert abs(B - B.T).max() < 1e-12

    def test_2d_cross_stencil(self):
        g = build_grid(2, (0.0, 1.0), 5)
        h2 = g.spacing[0] ** 2
        A = assemble_quasilinear_operator(g, constant_law(1.0), np.zeros(g.n_nodes)).toarray()
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

        J = newton_jacobian(g, law, u).toarray()
        h = 1e-6
        fd = np.empty((12, 12))
        for j in range(12):
            e = np.zeros(12)
            e[j] = h
            fd[:, j] = (F(u + e) - F(u - e)) / (2.0 * h)
        ii = g.interior_indices()
        np.testing.assert_allclose(J[np.ix_(ii, ii)], fd[np.ix_(ii, ii)], atol=5e-7)

    @pytest.mark.parametrize("build", [assemble_quasilinear_operator, newton_jacobian])
    @pytest.mark.parametrize("dim, res", [(1, 9), (2, (5, 7))])
    def test_shift_adds_to_interior_diagonal_only(self, build, dim, res):
        g = build_grid(dim, (0.0, 1.0), res)
        u = np.random.default_rng(1).normal(size=g.n_nodes)
        plain = build(g, porous_law(), u).toarray()
        shifted = build(g, porous_law(), u, shift=2.5).toarray()
        expected = plain + np.diag(np.where(g.boundary_mask, 0.0, 2.5))
        np.testing.assert_array_equal(shifted, expected)

    @pytest.mark.parametrize("shift", [0.0, 2.5])
    @pytest.mark.parametrize("build, with_deriv", [(assemble_quasilinear_operator, False), (newton_jacobian, True)])
    @pytest.mark.parametrize("dim, extents, res", BOXES)
    def test_matches_face_by_face_dense_reference(self, dim, extents, res, build, with_deriv, shift):
        g = build_grid(dim, extents, res)
        law = porous_law()
        u = np.random.default_rng(5).normal(size=g.n_nodes)
        ref = _dense_reference(g, law, u, shift, with_deriv)
        np.testing.assert_allclose(build(g, law, u, shift=shift).toarray(), ref, rtol=1e-14, atol=1e-14 * np.abs(ref).max())

    @pytest.mark.parametrize("build", [assemble_quasilinear_operator, newton_jacobian])
    def test_tridiagonal_is_the_interior_band(self, build):
        g = build_grid(1, (0.0, 1.0), 12)
        M = build(g, porous_law(), np.random.default_rng(3).normal(size=12), shift=2.5)
        dense = M.toarray()[1:-1, 1:-1]
        sub, main, sup = M.tridiagonal()
        assert np.array_equal(sub, np.diag(dense, -1))
        assert np.array_equal(sup, np.diag(dense, 1))
        # the product sums a diagonal entry in another order than dgtsv's input
        np.testing.assert_allclose(main, np.diag(dense), rtol=1e-15)
        assert M.tridiagonal() is M.tridiagonal()  # computed once per operator

    @pytest.mark.parametrize("build", [assemble_quasilinear_operator, newton_jacobian])
    @pytest.mark.parametrize("dim, extents, res", BOXES)
    def test_boundary_rows_are_identity(self, dim, extents, res, build):
        g = build_grid(dim, extents, res)
        rng = np.random.default_rng(2)
        M = build(g, porous_law(), rng.normal(size=g.n_nodes), shift=1.5)
        b = g.boundary_mask
        dense = M.toarray()
        assert np.array_equal(dense[b], np.eye(g.n_nodes)[b])
        assert not np.any(np.signbit(dense[b]))  # +0.0 off the diagonal
        v = rng.normal(size=g.n_nodes)
        v[~b] = np.inf
        with np.errstate(invalid="ignore"):
            got = M @ v
        assert np.array_equal(got[b], v[b])  # no interior value reaches a boundary entry, not even as 0 * inf

    @pytest.mark.parametrize("build", [assemble_quasilinear_operator, newton_jacobian])
    @pytest.mark.parametrize("dim, extents, res", BOXES)
    def test_stacked_product_equals_field_by_field(self, dim, extents, res, build):
        g = build_grid(dim, extents, res)
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
        g = build_grid(dim, extents, res)
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
        g = build_grid(dim, extents, res)
        U = np.random.default_rng(7).normal(size=(rows, g.n_nodes))
        got = assemble_quasilinear_operator(g, law, U, shift=shift) @ U
        assert got.shape == U.shape
        for u, row in zip(U, got):
            assert np.array_equal(row, assemble_quasilinear_operator(g, law, u, shift=shift) @ u)

    def test_stacked_operator_supports_only_the_product(self):
        g = build_grid(1, (0.0, 1.0), 9)
        A = assemble_quasilinear_operator(g, porous_law(), np.random.default_rng(9).normal(size=(9, 9)))
        for convert in (A.tridiagonal, A.toarray, A.tocsr):
            with pytest.raises(ValueError, match="stacked"):
                convert()

    def test_size_mismatch_rejected(self):
        g = build_grid(1, (0.0, 1.0), 8)
        with pytest.raises(ValueError):
            assemble_quasilinear_operator(g, constant_law(), np.zeros(7))
        with pytest.raises(ValueError):
            newton_jacobian(g, constant_law(), np.zeros(9))
        with pytest.raises(ValueError):
            assemble_quasilinear_operator(g, constant_law(), np.zeros((3, 9)))


class TestPoincare:
    """``first_eigenvalue`` is the continuous constant of the box and
    ``dirichlet_eigenvalues.flat[0]`` the discrete one, checked against a dense
    eigensolve of the assembled (a == 1) interior block."""

    @staticmethod
    def _interior_spectrum(g):
        ii = g.interior_indices()
        A = assemble_quasilinear_operator(g, constant_law(1.0), np.zeros(g.n_nodes)).toarray()[np.ix_(ii, ii)]
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
            first_eigenvalue(build_grid(2, [(0.0, math.pi), (0.0, 2.0 * math.pi)], 17)), 1.25, rtol=1e-14
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
        g = build_grid(dim, extents, res)
        np.testing.assert_allclose(g.dirichlet_eigenvalues.flat[0], self._interior_spectrum(g)[0], rtol=1e-10)
        assert g.dirichlet_eigenvalues.shape == tuple(n - 2 for n in g.shape)
        assert g.dirichlet_eigenvalues.flat[0] == g.dirichlet_eigenvalues.min()

    def test_sine_eigenvalue_table_is_the_interior_spectrum(self):
        g = build_grid(2, [(0.0, 1.0), (0.0, 2.0)], (7, 9))
        np.testing.assert_allclose(
            np.sort(g.dirichlet_eigenvalues.ravel()), self._interior_spectrum(g), rtol=1e-12
        )

    def test_2d_discrete_below_continuous(self):
        g = build_grid(2, (0.0, 1.0), 21)
        continuous = first_eigenvalue(g)
        for discrete in (self._interior_spectrum(g)[0], g.dirichlet_eigenvalues.flat[0]):
            assert discrete < continuous
            np.testing.assert_allclose(discrete, continuous, rtol=5e-3)
