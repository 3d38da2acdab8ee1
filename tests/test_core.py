"""Core substrate: sparse products, weighted inner products, CG, the dense
eigensolver wrapper and metric-weighted orthonormalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subeig import amg, gmg
from subeig.core import (
    Basis,
    SparseSymMatrix,
    _GaussSeidel,
    cg_solve,
    dense_sym_eig,
    dense_sym_eigvals,
    inner,
    norm,
    orthonormalize,
)
from subeig.exceptions import (
    DimensionMismatchError,
    EmptyBasisError,
    NotPositiveDefiniteError,
    NotSymmetricError,
)

from .conftest import make_spd, tridiag
from .gauss_seidel_reference import gauss_seidel


class TestSparseSymMatrix:
    def test_rejects_asymmetry(self):
        S = np.array([[1.0, 2.0], [2.0 + 1e-10, 1.0]])
        with pytest.raises(NotSymmetricError):
            SparseSymMatrix.from_dense(S)

    def test_check_spd_certifies(self):
        A = SparseSymMatrix.from_dense(np.diag([1.0, 2.0]), check_spd=True)
        assert A.spd
        with pytest.raises(NotPositiveDefiniteError):
            SparseSymMatrix.from_dense(np.diag([1.0, -2.0]), check_spd=True)

    def test_round_trip(self):
        S = tridiag(5).to_dense()
        assert np.array_equal(SparseSymMatrix.from_dense(S).to_dense(), S)


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


class TestInnerNorm:
    def test_plain(self):
        assert inner(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0
        assert inner(np.ones(3), np.zeros(3)) == 0.0

    def test_weighted(self):
        A = tridiag(2)
        assert inner(np.array([1.0, 0.0]), np.array([0.0, 1.0]), A) == -1.0

    def test_norm_examples(self):
        assert norm(np.zeros(5)) == 0.0
        two_eye = SparseSymMatrix.from_dense(2.0 * np.eye(2), spd=True)
        assert norm(np.array([1.0, 1.0]), two_eye) == pytest.approx(2.0)
        e1 = np.zeros(4)
        e1[0] = 1.0
        assert norm(e1, tridiag(4)) == pytest.approx(np.sqrt(2.0))

    def test_norm_rejects_indefinite_weight(self):
        W = SparseSymMatrix.from_dense(np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefiniteError):
            norm(np.array([0.0, 1.0]), W)

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


class TestCgSolve:
    def test_identity(self):
        A = SparseSymMatrix.identity(2)
        assert np.allclose(cg_solve(A, np.array([3.0, 4.0])), [3.0, 4.0])

    def test_diagonal(self):
        A = SparseSymMatrix.from_dense(np.diag([1.0, 2.0, 4.0]), spd=True)
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


def _square_stiffness(levels):
    hier = gmg.build_hierarchy("unit-square", 1, levels)
    return gmg.assemble_p1(hier.levels[-1]).A


def _amg_level(n):
    hier = amg.amg_setup(_square_stiffness(4))
    return next(lvl.A for lvl in hier.levels if lvl.A.n == n)


# The smoothed operators of both V-cycles, and sizes around the block length
# of 64 rows: below one block, not a multiple of it, and an exact multiple.
SMOOTHER_MATRICES = {
    "chain_127": lambda: tridiag(127),
    "square_225": lambda: _square_stiffness(4),
    "square_961": lambda: _square_stiffness(5),
    "amg_level_13": lambda: _amg_level(13),
    "random_spd_100": lambda: make_spd(np.random.default_rng(5), 100),
    "random_spd_128": lambda: make_spd(np.random.default_rng(6), 128),
}


class TestGaussSeidel:
    @pytest.mark.parametrize("name", sorted(SMOOTHER_MATRICES))
    def test_matches_row_by_row_sweep(self, name, rng):
        A = SMOOTHER_MATRICES[name]()
        smoother = _GaussSeidel(A)
        b = rng.standard_normal(A.n)
        x0 = rng.standard_normal(A.n)
        for reverse in (False, True):
            for sweeps in (1, 2):
                expected = x0.copy()
                gauss_seidel(A, expected, b, sweeps, reverse=reverse)
                x = x0.copy()
                smoother.smooth(x, b, sweeps, reverse=reverse)
                scale = np.abs(expected).max()
                assert np.abs(x - expected).max() <= 1e-13 * scale, (reverse, sweeps)


class TestDenseSymEig:
    def test_permuted_diagonal(self):
        res = dense_sym_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(res.values, [1.0, 2.0, 3.0])
        assert np.allclose(np.abs(res.vectors),
                           np.eye(3)[:, [1, 2, 0]], atol=1e-14)

    def test_two_by_two(self):
        res = dense_sym_eig(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        assert np.allclose(res.values, [1.0, 3.0], atol=1e-14)

    def test_identity(self):
        assert np.allclose(dense_sym_eig(np.eye(5)).values, 1.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            dense_sym_eig(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_dense_limit(self):
        with pytest.raises(DimensionMismatchError):
            dense_sym_eigvals(np.eye(5), dense_limit=4)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_residual_invariant(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 15))
        S = rng.standard_normal((n, n))
        S = 0.5 * (S + S.T)
        res = dense_sym_eig(S)
        scale = max(np.abs(res.values).max(), 1.0)
        assert np.all(np.diff(res.values) >= -1e-14 * scale)
        R = S @ res.vectors - res.vectors * res.values[None, :]
        assert np.abs(R).max() <= 1e-12 * scale
        assert np.abs(res.vectors.T @ res.vectors - np.eye(n)).max() <= 1e-12


class TestOrthonormalize:
    def test_duplicate_dropped(self):
        e1 = np.array([1.0, 0.0])
        B = orthonormalize(np.column_stack([e1, e1]))
        assert B.dim == 1
        assert np.allclose(np.abs(B.columns[:, 0]), e1)

    def test_diagonal_metric(self):
        W = np.eye(2)
        G = SparseSymMatrix.from_dense(np.diag([4.0, 9.0]), spd=True)
        B = orthonormalize(W, weight=G)
        assert np.allclose(B.columns, np.diag([0.5, 1.0 / 3.0]))

    def test_gram_defect(self, rng):
        G = make_spd(rng, 20)
        B = orthonormalize(rng.standard_normal((20, 5)), weight=G)
        assert B.gram_defect() <= 1e-12
        B.check()  # must not raise

    def test_all_dropped(self):
        with pytest.raises(EmptyBasisError):
            orthonormalize(np.zeros((4, 2)))

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


def test_basis_check_raises_on_mismatch():
    cols = np.column_stack([np.array([1.0, 1.0]), np.array([1.0, -1.0])])
    bad = Basis(columns=cols, metric="l2")  # columns not normalized
    from subeig.exceptions import MetricMismatchError

    with pytest.raises(MetricMismatchError):
        bad.check()
