"""Dense kernels, with the symmetric eigensolver checked against the
independent Householder + implicit-QL reference in ql_reference.py."""

import numpy as np
import pytest

from subeig import dense
from subeig.exceptions import NotPositiveDefiniteError, NotSymmetricError

from .ql_reference import ql_sym_eig, tridiagonalize


def random_sym(rng, n):
    S = rng.standard_normal((n, n))
    return 0.5 * (S + S.T)


def test_cholesky_matches_numpy():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 20):
        G = rng.standard_normal((n, n))
        S = G @ G.T + n * np.eye(n)
        L = dense.cholesky(S)
        assert np.allclose(L, np.linalg.cholesky(S), atol=1e-12)
        assert np.allclose(np.tril(L), L)
        assert np.allclose(L @ L.T, S, atol=1e-12 * np.abs(S).max())


def test_cholesky_rejects_indefinite():
    S = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    with pytest.raises(NotPositiveDefiniteError):
        dense.cholesky(S)
    with pytest.raises(NotPositiveDefiniteError):
        dense.spd_inverse(S)


def test_inverse_cholesky():
    rng = np.random.default_rng(1)
    n = 12
    G = rng.standard_normal((n, n))
    S = G @ G.T + n * np.eye(n)
    W = dense.inverse_cholesky(S)
    assert np.allclose(W @ dense.cholesky(S), np.eye(n), atol=1e-12)
    assert np.allclose(W @ S @ W.T, np.eye(n), atol=1e-10)
    b = rng.standard_normal(n)
    assert np.allclose(S @ (dense.spd_inverse(S) @ b), b, atol=1e-9)


def test_check_symmetric():
    dense.check_symmetric(np.array([[1.0, 2.0], [2.0, 3.0]]))
    with pytest.raises(NotSymmetricError):
        dense.check_symmetric(np.array([[1.0, 2.0], [2.1, 3.0]]))


def test_tridiagonalize_preserves_spectrum():
    rng = np.random.default_rng(2)
    S = random_sym(rng, 15)
    d, e, Q = tridiagonalize(S)
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    assert np.allclose(Q.T @ S @ Q, T, atol=1e-12)
    assert np.allclose(Q @ Q.T, np.eye(15), atol=1e-12)


def test_sym_eig_matches_lapack():
    """dense.sym_eig (LAPACK) and the QL reference agree to round-off."""
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 10, 40):
        S = random_sym(rng, n)
        vals, vecs = dense.sym_eig(S)
        ref, _ = ql_sym_eig(S, vectors=False)
        scale = max(np.abs(ref).max(), 1.0)
        assert np.max(np.abs(vals - ref)) <= 1e-13 * scale
        assert np.max(np.abs(S @ vecs - vecs * vals[None, :])) <= 1e-12 * scale
        assert np.max(np.abs(vecs.T @ vecs - np.eye(n))) <= 1e-12
        only_vals, none = dense.sym_eig(S, vectors=False)
        assert none is None
        assert np.max(np.abs(only_vals - ref)) <= 1e-13 * scale


def test_sym_eig_graded_spectrum():
    # heavily graded spectra (the duality-constant oracle produces these)
    # must deflate in the QL reference via its absolute eps*||T|| floor
    # instead of stalling
    rng = np.random.default_rng(4)
    n = 60
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    target = np.logspace(-20, 0, n)
    S = (Q * target[None, :]) @ Q.T
    S = 0.5 * (S + S.T)
    vals, _ = dense.sym_eig(S)
    ref, _ = ql_sym_eig(S)
    assert np.max(np.abs(vals - ref)) <= 1e-13 * np.abs(ref).max()


def test_generalized_sym_eig():
    rng = np.random.default_rng(5)
    n = 14
    A = random_sym(rng, n) + n * np.eye(n)
    G = rng.standard_normal((n, n))
    M = G @ G.T + n * np.eye(n)
    vals, X = dense.generalized_sym_eig(A, M)
    import scipy.linalg

    ref = scipy.linalg.eigh(A, M, eigvals_only=True)
    assert np.allclose(vals, ref, rtol=1e-11, atol=1e-12)
    # vectors are M-orthonormal and satisfy the pencil residual
    assert np.max(np.abs(X.T @ M @ X - np.eye(n))) <= 1e-10
    assert np.max(np.abs(A @ X - M @ X * vals[None, :])) <= 1e-9 * np.abs(A).max()
