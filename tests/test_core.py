"""Core substrate: sparse products, weighted inner products, CG, the dense
eigensolver of the oracle path, metric-weighted orthonormalization and the
coarse Ritz basis of a sparse prolongation."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from subeig import amg, dense, gmg, projection
from subeig.core import (
    SYMMETRY_RTOL,
    SparseSymMatrix,
    _CHEB_DEGREE,
    _CHEB_RATIO,
    _CHEB_UPPER,
    _Chebyshev,
    cg_solve,
    column_dots,
    column_norms,
    galerkin,
    gershgorin_bound,
    inner,
    norm,
    orthonormalize,
    spmm,
)
from subeig.exceptions import (
    ConvergenceError,
    DimensionMismatchError,
    EmptyBasisError,
    NotPositiveDefiniteError,
    NotSymmetricError,
)
from subeig.projection import EtaOracle, exact_eigenset, ritz_space

from .conftest import make_spd, tridiag


class TestSparseSymMatrix:
    def test_rejects_asymmetry(self):
        S = np.array([[1.0, 2.0], [2.0 + 1e-10, 1.0]])
        with pytest.raises(NotSymmetricError):
            SparseSymMatrix.from_dense(S)

    @pytest.mark.parametrize("excess", [0.5, 2.0])
    def test_symmetric_pattern_bounds_the_value_asymmetry(self, excess):
        # one pattern, so the asymmetry is read off the paired entries:
        # within SYMMETRY_RTOL * max|entry| it passes, beyond it raises
        S = 4.0 * tridiag(6).to_dense()
        S[4, 3] += excess * SYMMETRY_RTOL * np.abs(S).max()
        if excess < 1.0:
            A = SparseSymMatrix.from_dense(S)
            assert np.array_equal(A.to_dense(), S)
        else:
            with pytest.raises(NotSymmetricError, match="asymmetry"):
                SparseSymMatrix.from_dense(S)

    def test_rejects_an_asymmetric_pattern(self):
        S = tridiag(5).to_dense()
        S[0, 3] = 1e-3  # no partner at (3, 0)
        with pytest.raises(NotSymmetricError):
            SparseSymMatrix.from_dense(S)
        S[3, 0] = 1e-3
        assert np.array_equal(SparseSymMatrix.from_dense(S).to_dense(), S)

    def test_explicit_zero_without_partner_is_symmetric(self):
        # an explicitly stored zero at (0, 2) but none at (2, 0): the
        # patterns differ, yet the matrix is symmetric
        csr = sp.csr_matrix((np.array([1.0, 0.0, 1.0, 1.0]), np.array([0, 2, 1, 2]),
                             np.array([0, 2, 3, 4])), shape=(3, 3))
        assert csr.nnz == 4
        assert np.array_equal(SparseSymMatrix.from_csr(csr).to_dense(), np.eye(3))

    def test_round_trip(self):
        S = tridiag(5).to_dense()
        assert np.array_equal(SparseSymMatrix.from_dense(S).to_dense(), S)

    def test_compares_and_hashes_by_identity(self):
        A, B = tridiag(4), tridiag(4)  # equal entries, two objects
        assert A == A and A != B
        assert len({A, B, A}) == 2


class TestGalerkin:
    def test_symmetric_mean_of_the_product(self, rng):
        S = make_spd(rng, 30)
        P = sp.random(30, 7, density=0.3, random_state=1, format="csr") + sp.eye(30, 7)
        G = (P.T @ S.csr @ P).toarray()
        A_H = galerkin(P, S)
        assert (A_H.csr != A_H.csr.T).nnz == 0
        assert np.allclose(A_H.to_dense(), G, rtol=0.0, atol=1e-13 * np.abs(G).max())
        assert np.array_equal(galerkin(P).to_dense(), (P.T @ P).toarray())

    def test_exactly_symmetric_entries_unchanged(self):
        # the 1D P1 stiffness on an aggregation prolongation of 0/1 entries:
        # every product is exact, so the mean changes nothing
        P = sp.csr_matrix((np.ones(9), (np.arange(9), np.arange(9) // 3)), shape=(9, 3))
        A = tridiag(9)
        expected = (P.T @ A.csr @ P).toarray()
        assert np.array_equal(galerkin(P, A).to_dense(), expected)


class TestSpmv:
    def test_identity(self):
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(SparseSymMatrix.identity(3).matvec(x), x)

    def test_tridiagonal(self):
        A = tridiag(3)
        assert np.array_equal(A.matvec(np.ones(3)), np.array([1.0, 0.0, 1.0]))

    def test_zero_matrix(self):
        Z = SparseSymMatrix.from_dense(np.zeros((4, 4)))
        assert np.array_equal(Z.matvec(np.arange(4.0)), np.zeros(4))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            tridiag(3).matvec(np.ones(4))


class TestSpmm:
    """spmm calls the kernel that csr @ X ends in, so it is bit for bit
    the same product."""

    @staticmethod
    def _csr(rng, rows=40, cols=30, density=0.2):
        return sp.random(rows, cols, density=density, format="csr", random_state=rng)

    def test_vector(self, rng):
        P = self._csr(rng)
        x = rng.standard_normal(30)
        assert np.array_equal(spmm(P, x), P @ x)
        assert spmm(P, x).shape == (40,)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_blocks(self, rng, order, k):
        P = self._csr(rng)
        X = np.asarray(rng.standard_normal((30, k)), order=order)
        Y = spmm(P, X)
        assert Y.shape == (40, k) and np.array_equal(Y, P @ X)

    def test_zero_width_block(self, rng):
        P = self._csr(rng)
        X = np.empty((30, 0))
        assert spmm(P, X).shape == (40, 0) and np.array_equal(spmm(P, X), P @ X)

    def test_empty_rows(self, rng):
        P = self._csr(rng).tolil()
        P[::3] = 0.0
        P = P.tocsr()
        P.eliminate_zeros()
        assert np.diff(P.indptr)[::3].max() == 0
        X = rng.standard_normal((30, 3))
        assert np.array_equal(spmm(P, X), P @ X)
        assert np.array_equal(spmm(P, X[:, 0]), P @ X[:, 0])

    def test_int64_indices(self, rng):
        P = self._csr(rng)
        P.indices, P.indptr = P.indices.astype(np.int64), P.indptr.astype(np.int64)
        assert P.indices.dtype == P.indptr.dtype == np.int64
        X = rng.standard_normal((30, 4))
        assert np.array_equal(spmm(P, X), P @ X)
        assert np.array_equal(spmm(P, X[:, 1]), P @ X[:, 1])

    def test_rejects_what_the_kernel_would_misread(self, rng):
        with pytest.raises(DimensionMismatchError):
            spmm(self._csr(rng), np.ones((31, 2)))
        with pytest.raises(TypeError):
            spmm(self._csr(rng).tocsc(), np.ones(30))
        with pytest.raises(TypeError):
            spmm(self._csr(rng), np.ones((30, 2, 2)))


class TestInnerNorm:
    def test_plain(self):
        assert inner(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0
        assert inner(np.ones(3), np.zeros(3)) == 0.0

    def test_weighted(self):
        A = tridiag(2)
        assert inner(np.array([1.0, 0.0]), np.array([0.0, 1.0]), A) == -1.0

    def test_norm_examples(self):
        assert norm(np.zeros(5)) == 0.0
        two_eye = SparseSymMatrix.from_dense(2.0 * np.eye(2))
        assert norm(np.array([1.0, 1.0]), two_eye) == pytest.approx(2.0)
        e1 = np.zeros(4)
        e1[0] = 1.0
        assert norm(e1, tridiag(4)) == pytest.approx(np.sqrt(2.0))

    def test_norm_rejects_indefinite_weight(self):
        W = SparseSymMatrix.from_dense(np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefiniteError):
            norm(np.array([0.0, 1.0]), W)

    def test_column_norms_match_norm(self, rng):
        G = make_spd(rng, 9)
        X = rng.standard_normal((9, 4))
        want = [norm(X[:, j], G) for j in range(4)]
        assert np.allclose(column_norms(X, G.matvec(X)), want, rtol=1e-14, atol=0.0)
        assert np.allclose(column_norms(X, X), np.linalg.norm(X, axis=0),
                           rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("delta", [1e-15, 1e-12, 1.0])
    def test_column_norms_reject_indefinite_weight_like_norm(self, delta):
        # x^T W x = 1 - (1 + delta)^2: round-off sized for delta = 1e-15
        # (clamped to 0), an indefinite weight for the larger deltas
        W = SparseSymMatrix.from_dense(np.diag([1.0, -1.0]))
        x = np.array([1.0, 1.0 + delta])
        X = np.column_stack([np.array([1.0, 0.0]), x])
        try:
            expected = norm(x, W)
        except NotPositiveDefiniteError:
            with pytest.raises(NotPositiveDefiniteError):
                column_norms(X, W.matvec(X))
            assert delta > 1e-15
        else:
            assert list(column_norms(X, W.matvec(X))) == [1.0, expected]
            assert delta == 1e-15

    def test_column_norms_reject_an_indefinite_column_among_definite_ones(self):
        # only the third column has a negative form: the lazily computed
        # round-off floor must still be the floor of that column
        W = SparseSymMatrix.from_dense(np.diag([1.0, 1.0, -1.0]))
        X = np.asfortranarray([[1.0, 0.0, 1.0, 2.0],
                               [0.0, 1.0, 0.0, 0.0],
                               [0.0, 0.0, 2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError, match="-3.000e"):
            column_norms(X, W.matvec(X))
        assert np.array_equal(column_norms(X[:, [0, 1, 3]], W.matvec(X[:, [0, 1, 3]])),
                              [1.0, 1.0, np.sqrt(3.0)])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_symmetry_and_norm_identity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        G = make_spd(rng, n)
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        a, b = inner(x, y, G), inner(y, x, G)
        assert abs(a - b) <= 1e-13 * max(abs(a), 1.0)
        nx2 = norm(x, G) ** 2
        assert abs(nx2 - inner(x, G.matvec(x))) <= 1e-12 * max(nx2, 1.0)


class TestColumnDots:
    @staticmethod
    def _assert_matches_sum(X, Y):
        # relative to sum_i |x_i y_i|, the scale of a dot product's round-off
        # (the two summation orders differ by more than 1e-14 of a sum that
        # cancels)
        want = np.sum(X * Y, axis=0)
        got = column_dots(X, Y)
        assert np.shape(got) == np.shape(want)
        assert np.all(np.abs(got - want) <= 1e-14 * np.sum(np.abs(X * Y), axis=0))

    def test_vectors(self, rng):
        x, y = rng.standard_normal((2, 961))
        self._assert_matches_sum(x, y)
        assert np.ndim(column_dots(x, y)) == 0

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_blocks(self, rng, order):
        X, Y = (np.asarray(rng.standard_normal((961, 4)), order=order) for _ in range(2))
        self._assert_matches_sum(X, Y)
        self._assert_matches_sum(X, np.ascontiguousarray(Y) if order == "F"
                                 else np.asfortranarray(Y))

    def test_non_contiguous_slices(self, rng):
        R, S = rng.standard_normal((2, 961, 6))
        keep = np.array([True, False, True, True, False, True])
        self._assert_matches_sum(R[:, keep], S[:, keep])
        self._assert_matches_sum(R[::2, 1:5], S[::2, 1:5])
        self._assert_matches_sum(R[:, 3], S[:, 3])


class TestCgSolve:
    def test_identity(self):
        A = SparseSymMatrix.identity(2)
        assert np.allclose(cg_solve(A, np.array([3.0, 4.0])), [3.0, 4.0])

    def test_diagonal(self):
        A = SparseSymMatrix.from_dense(np.diag([1.0, 2.0, 4.0]))
        x = cg_solve(A, np.array([1.0, 2.0, 4.0]))
        assert np.allclose(x, np.ones(3), atol=1e-12)

    def test_against_dense_solve(self):
        A = tridiag(100)
        b = np.ones(100)
        x = cg_solve(A, b, tol=1e-12)
        ref = np.linalg.solve(A.to_dense(), b)
        assert np.linalg.norm(A.matvec(x) - b) <= 1e-12 * np.linalg.norm(b)
        assert np.allclose(x, ref, atol=1e-7)

    def test_preconditioner(self):
        rng = np.random.default_rng(7)
        A = make_spd(rng, 30, lo=1.0, hi=1e4)
        b = rng.standard_normal(30)
        diag = A.diagonal()
        x = cg_solve(A, b, tol=1e-10, preconditioner=lambda r: r / diag)
        assert np.linalg.norm(A.matvec(x) - b) <= 1e-10 * np.linalg.norm(b)

    def test_indefinite_breakdown(self):
        A = SparseSymMatrix.from_dense(np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefiniteError):
            cg_solve(A, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("vcycle", [False, True])
    def test_block_equals_column_solves(self, vcycle):
        hier = gmg.build_hierarchy("unit-square", 1, 4)
        pencils, prolongations = gmg.assemble_hierarchy(hier)
        A = pencils[-1].A
        prec = (gmg.VCycleSolver([p.A for p in pencils], prolongations).cycle
                if vcycle else None)
        B = np.random.default_rng(5).standard_normal((A.n, 4))
        X = cg_solve(A, B, preconditioner=prec)
        cols = np.column_stack([cg_solve(A, B[:, j], preconditioner=prec)
                                for j in range(4)])
        assert X.shape == B.shape
        assert np.abs(X - cols).max() <= 1e-12 * np.abs(cols).max()

    def test_block_zero_column_is_exactly_zero(self):
        A = tridiag(50)
        rng = np.random.default_rng(6)
        B = rng.standard_normal((50, 3))
        B[:, 1] = 0.0
        X = cg_solve(A, B, tol=1e-12, x0=rng.standard_normal((50, 3)))
        assert np.array_equal(X[:, 1], np.zeros(50))
        R = B - A.matvec(X)
        for j in (0, 2):
            assert np.linalg.norm(R[:, j]) <= 1e-12 * np.linalg.norm(B[:, j])

    def test_block_with_one_slow_column_raises(self):
        A = SparseSymMatrix.from_dense(np.diag(np.arange(1.0, 51.0)))
        B = np.zeros((50, 2))
        B[0, 0] = 1.0  # an eigenvector: CG converges in one step
        B[:, 1] = np.random.default_rng(7).standard_normal(50)
        assert np.allclose(cg_solve(A, B[:, 0], max_iter=5), B[:, 0])
        with pytest.raises(ConvergenceError):
            cg_solve(A, B, max_iter=5)

    def test_nan_column_is_not_returned_as_converged(self):
        B = np.ones((30, 2))
        B[3, 1] = np.nan
        with pytest.raises(ConvergenceError):
            cg_solve(tridiag(30), B, max_iter=50)

    def test_block_indefinite_breakdown(self):
        A = SparseSymMatrix.from_dense(np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefiniteError):
            cg_solve(A, np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("shape", [(50,), (50, 3)])
    @pytest.mark.parametrize("jacobi", [False, True])
    def test_leaves_b_and_x0_unchanged(self, rng, shape, jacobi):
        A = tridiag(50, d=2.5)
        diag = A.diagonal() if len(shape) == 1 else A.diagonal()[:, None]
        prec = (lambda r: r / diag) if jacobi else None
        b, x0 = rng.standard_normal((2,) + shape)
        b_copy, x0_copy = b.copy(), x0.copy()
        for start in (None, x0):
            x = cg_solve(A, b, tol=1e-12, preconditioner=prec, x0=start)
            assert x is not b and x is not x0
            assert np.array_equal(b, b_copy) and np.array_equal(x0, x0_copy)

    def test_vector_rhs_hands_vectors_to_the_preconditioner(self):
        A = tridiag(30)
        diag = A.diagonal()
        shapes = []

        def jacobi(r):
            assert r.ndim == 1
            shapes.append(r.shape)
            return r / diag

        x = cg_solve(A, np.ones(30), preconditioner=jacobi)
        assert x.shape == (30,) and shapes and set(shapes) == {(30,)}

    @staticmethod
    def _counted_jacobi(A, shape):
        diag = A.diagonal() if len(shape) == 1 else A.diagonal()[:, None]
        calls = []

        def jacobi(r):
            calls.append(r.shape)
            return r / diag

        return jacobi, calls

    @staticmethod
    def _converges(A, b, preconditioner, max_iter):
        try:
            cg_solve(A, b, tol=1e-10, max_iter=max_iter, preconditioner=preconditioner)
        except ConvergenceError:
            return False
        return True

    @pytest.mark.parametrize("shape", [(40,), (40, 3)])
    def test_preconditioner_applied_once_per_iteration(self, rng, shape):
        # the convergence test precedes the preconditioner, so a solve that
        # converges in I iterations applies it I times, none after the last
        A = make_spd(rng, 40, lo=1.0, hi=1e3)
        b = rng.standard_normal(shape)
        jacobi, calls = self._counted_jacobi(A, shape)
        iterations = next(i for i in range(1, 41) if self._converges(A, b, jacobi, i))
        calls.clear()
        x = cg_solve(A, b, tol=1e-10, max_iter=iterations, preconditioner=jacobi)
        assert len(calls) == iterations and set(calls) == {shape}
        R = b - A.matvec(x)
        assert np.all(np.sqrt(column_dots(R, R)) <= 1e-10 * np.sqrt(column_dots(b, b)))

    @pytest.mark.parametrize("shape", [(40,), (40, 3)])
    def test_converged_start_makes_no_preconditioner_call(self, rng, shape):
        A = make_spd(rng, 40)
        b = rng.standard_normal(shape)
        x0 = np.linalg.solve(A.to_dense(), b)
        jacobi, calls = self._counted_jacobi(A, shape)
        x = cg_solve(A, b, tol=1e-10, preconditioner=jacobi, x0=x0)
        assert calls == []
        assert np.array_equal(x, x0) and x is not x0


def _square_stiffness(levels):
    hier = gmg.build_hierarchy("unit-square", 1, levels)
    return gmg.assemble_p1(hier.levels[-1]).A


def _amg_level(n, levels=4):
    hier = amg.amg_setup(_square_stiffness(levels))
    return next(lvl.A for lvl in hier.levels if lvl.A.n == n)


def _permuted_square_stiffness(levels, seed=0):
    """The 2D stiffness matrix under a random symmetric permutation, so no
    row meets its neighbours near the diagonal."""
    csr = _square_stiffness(levels).csr
    perm = np.random.default_rng(seed).permutation(csr.shape[0])
    return SparseSymMatrix.from_csr(csr[perm][:, perm])


# The smoothed operators of both V-cycles (1D and 2D stiffness matrices, AMG
# levels up to a near-dense one, permuted orderings) and dense random SPD
# matrices.
SMOOTHER_MATRICES = {
    "chain_127": lambda: tridiag(127),
    "square_225": lambda: _square_stiffness(4),
    "square_961": lambda: _square_stiffness(5),
    "amg_level_13": lambda: _amg_level(13),
    "amg_level_168": lambda: _amg_level(168, levels=5),
    "permuted_square_225": lambda: _permuted_square_stiffness(4),
    "permuted_square_961": lambda: _permuted_square_stiffness(5),
    "random_spd_100": lambda: make_spd(np.random.default_rng(5), 100),
    "random_spd_128": lambda: make_spd(np.random.default_rng(6), 128),
}


def _energy_norms(A, E):
    return np.sqrt(np.sum(E * A.matvec(E), axis=0))


class TestChebyshev:
    @pytest.mark.parametrize("name", sorted(SMOOTHER_MATRICES))
    def test_error_is_the_chebyshev_polynomial(self, name, rng):
        # textbook form: D^{1/2} e' = p(S) D^{1/2} e, S = D^{-1/2} A D^{-1/2},
        # p(t) = T((centre - t) / half_width) / T(centre / half_width), T of
        # degree _CHEB_DEGREE
        A = SMOOTHER_MATRICES[name]()
        d = np.sqrt(A.diagonal())
        upper = _CHEB_UPPER * gershgorin_bound(A)
        lower = upper / _CHEB_RATIO
        centre, half_width = (upper + lower) / 2, (upper - lower) / 2
        T = np.polynomial.Chebyshev.basis(_CHEB_DEGREE)
        t, Q = np.linalg.eigh(A.to_dense() / d[:, None] / d[None, :])
        p = T((centre - t) / half_width) / T(centre / half_width)
        x_true, x0 = rng.standard_normal((2, A.n))
        x = _Chebyshev(A).smooth(A.matvec(x_true), x0)
        expected = (Q @ (p * (Q.T @ (d * (x_true - x0))))) / d
        assert np.abs((x_true - x) - expected).max() <= 1e-10 * np.abs(x_true - x0).max()

    @pytest.mark.parametrize("name", sorted(SMOOTHER_MATRICES))
    def test_never_increases_the_energy_error(self, name, rng):
        A = SMOOTHER_MATRICES[name]()
        smoother = _Chebyshev(A)
        X_true = rng.standard_normal((A.n, 8))
        B = A.matvec(X_true)
        for X0 in (np.zeros_like(B), rng.standard_normal(B.shape)):
            before = _energy_norms(A, X_true - X0)
            after = _energy_norms(A, X_true - smoother.smooth(B, X0))
            assert np.all(after <= before)

    @pytest.mark.parametrize("name", sorted(SMOOTHER_MATRICES))
    def test_equivariant_under_symmetric_permutation(self, name, rng):
        A = SMOOTHER_MATRICES[name]()
        perm = rng.permutation(A.n)
        A_perm = SparseSymMatrix.from_csr(A.csr[perm][:, perm])
        b, x0 = rng.standard_normal((2, A.n))
        x = _Chebyshev(A).smooth(b, x0)
        x_perm = _Chebyshev(A_perm).smooth(b[perm], x0[perm])
        assert np.abs(x_perm - x[perm]).max() <= 1e-12 * np.abs(x).max()

    @pytest.mark.parametrize("shape", [(225,), (225, 4)])
    def test_leaves_b_and_x_unchanged(self, rng, shape):
        smoother = _Chebyshev(SMOOTHER_MATRICES["square_225"]())
        b, x = rng.standard_normal((2,) + shape)
        b_copy, x_copy = b.copy(), x.copy()
        for start in (None, x):
            out = smoother.smooth(b, start)
            assert out is not b and out is not x
            assert np.array_equal(b, b_copy) and np.array_equal(x, x_copy)

    @pytest.mark.parametrize("name", ["square_961", "permuted_square_961"])
    def test_block_matches_vector_sweeps(self, name, rng):
        A = SMOOTHER_MATRICES[name]()
        smoother = _Chebyshev(A)
        B = rng.standard_normal((A.n, 4))
        X0 = rng.standard_normal((A.n, 4))
        for start in (None, X0):
            X = smoother.smooth(B, start)
            for j in range(B.shape[1]):
                x = smoother.smooth(B[:, j], None if start is None else start[:, j])
                scale = np.abs(x).max()
                assert np.abs(X[:, j] - x).max() <= 1e-13 * scale, (start is None, j)

    @pytest.mark.parametrize("name", sorted(SMOOTHER_MATRICES))
    def test_gershgorin_bounds_the_jacobi_spectrum(self, name):
        A = SMOOTHER_MATRICES[name]()
        d = np.sqrt(A.diagonal())
        rho = np.linalg.eigvalsh(A.to_dense() / d[:, None] / d[None, :])[-1]
        assert rho <= gershgorin_bound(A) * (1 + 1e-12)


class TestDenseSymEig:
    """dense.sym_eig, with the symmetry check of SparseSymMatrix and the
    dense-limit checks of the oracles in front of it."""

    def test_permuted_diagonal(self):
        values, vectors = dense.sym_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(values, [1.0, 2.0, 3.0])
        assert np.allclose(np.abs(vectors),
                           np.eye(3)[:, [1, 2, 0]], atol=1e-14)

    def test_two_by_two(self):
        values, _ = dense.sym_eig(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        assert np.allclose(values, [1.0, 3.0], atol=1e-14)

    def test_identity(self):
        assert np.allclose(dense.sym_eig(np.eye(5))[0], 1.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            exact_eigenset(SparseSymMatrix.from_dense(np.array([[1.0, 1.0], [0.0, 1.0]])))

    def test_dense_limit(self, monkeypatch):
        monkeypatch.setattr(projection, "DENSE_LIMIT", 4)
        with pytest.raises(DimensionMismatchError):
            exact_eigenset(SparseSymMatrix.identity(5))
        with pytest.raises(DimensionMismatchError):
            EtaOracle(SparseSymMatrix.identity(5))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_residual_invariant(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 15))
        S = rng.standard_normal((n, n))
        S = 0.5 * (S + S.T)
        values, vectors = dense.sym_eig(S)
        scale = max(np.abs(values).max(), 1.0)
        assert np.all(np.diff(values) >= -1e-14 * scale)
        R = S @ vectors - vectors * values[None, :]
        assert np.abs(R).max() <= 1e-12 * scale
        assert np.abs(vectors.T @ vectors - np.eye(n)).max() <= 1e-12


class TestOrthonormalize:
    def test_duplicate_dropped(self):
        e1 = np.array([1.0, 0.0])
        B = orthonormalize(np.column_stack([e1, e1]))
        assert B.dim == 1
        assert np.allclose(np.abs(B.columns[:, 0]), e1)

    def test_diagonal_metric(self):
        W = np.eye(2)
        G = SparseSymMatrix.from_dense(np.diag([4.0, 9.0]))
        B = orthonormalize(W, weight=G)
        assert np.allclose(B.columns, np.diag([0.5, 1.0 / 3.0]))

    def test_gram_defect(self, rng):
        G = make_spd(rng, 20)
        B = orthonormalize(rng.standard_normal((20, 5)), weight=G)
        assert B.gram_defect() <= 1e-12

    def test_all_dropped(self):
        with pytest.raises(EmptyBasisError):
            orthonormalize(np.zeros((4, 2)))

    @pytest.mark.parametrize("G, W", [
        (np.diag([1.0, -1.0]), np.eye(2)),
        (np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([[1.0], [-1.0]])),
    ])
    def test_rejects_indefinite_weight(self, G, W):
        with pytest.raises(NotPositiveDefiniteError):
            orthonormalize(W, weight=SparseSymMatrix.from_dense(G))

    @given(seed=st.integers(0, 2**32 - 1), weighted=st.booleans(),
           dependent=st.lists(st.sampled_from(["zero", "duplicate", "combination"]),
                              max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_one_weight_product_per_column_and_the_classical_basis(
            self, seed, weighted, dependent):
        # a weighted orthonormalize of p columns makes at most 1 + p weight
        # products and keeps the basis of column-by-column CGS2 that takes
        # the norm of each column before and after projection apart
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 16))
        W = rng.standard_normal((n, int(rng.integers(1, n + 1))))
        for kind in dependent:  # each after a random independent prefix
            j = int(rng.integers(1, W.shape[1] + 1))
            col = {"zero": np.zeros(n), "duplicate": W[:, j - 1],
                   "combination": W[:, :j] @ rng.standard_normal(j)}[kind]
            W = np.insert(W, j, col, axis=1)
        weight = make_spd(rng, n) if weighted else None
        want = _classical_cgs2(W, weight)
        products = []
        matvec = SparseSymMatrix.matvec
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SparseSymMatrix, "matvec",
                       lambda self, x: products.append(1) or matvec(self, x))
            B = orthonormalize(W, weight=weight)
        assert len(products) <= (1 + W.shape[1] if weighted else 0)
        assert B.columns.shape == want.shape
        assert np.abs(B.columns - want).max() <= 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_basis_invariant_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 16))
        p = int(rng.integers(1, n))
        weight = make_spd(rng, n) if rng.integers(2) else None
        B = orthonormalize(rng.standard_normal((n, p)), weight=weight)
        assert 1 <= B.dim <= p
        assert B.gram_defect() <= 1e-10


def _classical_cgs2(W, weight, tol=1e-10):
    """Column-by-column CGS2 with the drop rule of orthonormalize, taking
    each norm with norm() and each G-image by a product with the kept
    column."""
    Q, GQ = np.zeros((W.shape[0], 0)), np.zeros((W.shape[0], 0))
    for j in range(W.shape[1]):
        v = W[:, j].copy()
        original = norm(v, weight)
        if original == 0.0:
            continue
        for _ in range(2):
            v -= Q @ (GQ.T @ v)
        nv = norm(v, weight)
        if nv < tol * original:
            continue
        q = v / nv
        Q = np.column_stack([Q, q])
        GQ = np.column_stack([GQ, q if weight is None else weight.matvec(q)])
    return Q


def _coarse_case(name):
    """(A, P, M, basis) of one coarse space: the fine-level pencil, the
    composed prolongation and the library's basis of range(P)."""
    if name == "amg":
        hier = gmg.build_hierarchy("unit-square", 1, 4)
        pencil = gmg.assemble_p1(hier.levels[-1])
        amg_hier = amg.amg_setup(pencil.A, pencil.M)
        P = amg.composed_prolongation(amg_hier, 2)
        return pencil.A, P, pencil.M, amg.amg_coarse_space(amg_hier, 2)
    domain, n0 = ("interval", 3) if name == "gmg-1d" else ("unit-square", 1)
    pencils, prolongations = gmg.assemble_hierarchy(gmg.build_hierarchy(domain, n0, 4))
    P = prolongations[2] @ prolongations[1]
    return pencils[3].A, P, pencils[3].M, gmg.coarse_space(pencils, prolongations, 3, 1)


def _projector(Q, M):
    """The M-orthogonal projector Q Q^T M onto the span of M-orthonormal Q."""
    return Q @ M.matvec(Q).T


def _with_dependent_column(P, extra):
    P = sp.csr_matrix(P)
    col = {"duplicate": P[:, [0]],
           "combination": 3.0 * P[:, [1]] - 0.7 * P[:, [0]],
           "zero": sp.csr_matrix((P.shape[0], 1))}[extra]
    return sp.hstack([P, col]).tocsr()


class TestCholeskyQR2:
    """The coarse basis of gmg.coarse_space and amg.amg_coarse_space, the
    Ritz basis that projection.ritz_space solves from a sparse P, held to
    the checks of the CholeskyQR2 basis it replaced."""

    @pytest.mark.parametrize("name", ["gmg-1d", "gmg-2d", "amg"])
    def test_orthonormal_basis_of_range(self, name):
        _, P, M, K = _coarse_case(name)
        assert K.weight is M and K.dim == P.shape[1]
        assert K.gram_defect() <= 1e-13
        R = orthonormalize(P.toarray(), weight=M)
        assert np.abs(_projector(K.columns, M) - _projector(R.columns, M)).max() <= 1e-12

    def test_plain_metric(self):
        A, P, _, _ = _coarse_case("amg")
        K = ritz_space(A, None, P)
        assert K.weight is None
        assert K.gram_defect() <= 1e-13
        R = orthonormalize(P.toarray()).columns
        assert np.abs(K.columns @ K.columns.T - R @ R.T).max() <= 1e-12

    @pytest.mark.parametrize("name", ["gmg-1d", "gmg-2d", "amg"])
    @pytest.mark.parametrize("extra", ["duplicate", "combination", "zero"])
    def test_rank_deficient_fails_loudly(self, name, extra):
        A, P, M, _ = _coarse_case(name)
        with pytest.raises(NotPositiveDefiniteError):
            ritz_space(A, M, _with_dependent_column(P, extra))

    @pytest.mark.parametrize("name", ["gmg-1d", "gmg-2d", "amg"])
    @pytest.mark.parametrize("extra", ["duplicate", "combination", "zero"])
    def test_rank_deficient_fails_loudly_in_plain_metric(self, name, extra):
        A, P, _, _ = _coarse_case(name)
        with pytest.raises(NotPositiveDefiniteError):
            ritz_space(A, None, _with_dependent_column(P, extra))

