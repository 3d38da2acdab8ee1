"""Dense kernels, with the symmetric eigensolver checked against the
independent Householder + implicit-QL reference in ql_reference.py."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subeig import dense
from subeig.exceptions import NotPositiveDefiniteError

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


def _bordered(theta, C, D):
    return np.block([[np.diag(theta), C], [C.T, D]])


def _secular_case(seed, kind, p, k):
    """A bordered matrix [[diag(theta), C], [C^T, D]] with p border columns,
    shifted so that its lowest eigenvalue is 1 (relative errors stay
    meaningful), of one of the kinds the secular solve must handle."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(max(k + 2, 8), 60))
    theta = np.sort(rng.uniform(1.0, 100.0, m))
    C = rng.standard_normal((m, p)) * rng.uniform(0.1, 10.0)
    if kind == "repeated":  # theta takes a few values, each many times
        theta = np.sort(rng.choice(theta[:max(2, m // 4)], m))
    elif kind == "clustered":  # groups of poles a relative 1e-13..1e-7 apart
        base = np.repeat(theta[::3], 3)[:m]
        theta = np.sort(base * (1.0 + 10.0 ** rng.uniform(-13, -7, m)))
    elif kind == "near_poles":  # weak couplings put roots next to poles
        weak = rng.random(m) < 0.5
        C[weak] *= 10.0 ** rng.uniform(-9, -3, (int(weak.sum()), 1))
        C[rng.random(m) < 0.1] = 0.0
    G = rng.standard_normal((p, p))
    D = G @ G.T + rng.uniform(1.0, 200.0) * np.eye(p)
    shift = 1.0 - np.linalg.eigvalsh(_bordered(theta, C, D))[0]
    return theta + shift, C, D + shift * np.eye(p)


class TestSecular:
    """The secular solve of bordered_sym_eig against LAPACK's eigh on the
    whole bordered matrix."""

    @given(st.integers(0, 2**32 - 1),
           st.sampled_from(["random", "repeated", "clustered", "near_poles"]),
           st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=120, deadline=None)
    def test_matches_eigh(self, seed, kind, p, k):
        # k + 1 values and k vectors, with p < k border columns allowed
        theta, C, D = _secular_case(seed, kind, p, k)
        H = _bordered(theta, C, D)
        ref_vals, ref_vecs = np.linalg.eigh(H)
        out = dense._secular(theta, C, D, k + 1, k)
        assert out is not None
        vals, X = out
        assert np.max(np.abs(vals - ref_vals[:k + 1]) / ref_vals[:k + 1]) <= 1e-12
        scale = np.abs(ref_vals).max()
        assert np.abs(X.T @ X - np.eye(k)).max() <= 1e-12
        assert np.abs(H @ X - X * vals[:k]).max() <= 1e-12 * scale
        gap = ref_vals[k] - ref_vals[k - 1]
        if gap > 1e-6 * scale:  # the span of the k lowest is well defined
            P, P_ref = X @ X.T, ref_vecs[:, :k] @ ref_vecs[:, :k].T
            assert np.linalg.norm(P - P_ref, 2) <= 1e-12 * scale / gap

    def test_one_column_border(self):
        # k = 1, p = 1: the classical rank-one secular equation
        rng = np.random.default_rng(5)
        theta = np.sort(rng.uniform(1.0, 10.0, 200))
        C = rng.standard_normal((200, 1))
        D = np.array([[3.0]])
        ref = np.linalg.eigvalsh(_bordered(theta, C, D))
        vals, X = dense.bordered_sym_eig(theta, C, D, 2, 1)
        assert X.shape == (201, 1)
        assert np.max(np.abs(vals - ref[:2]) / np.abs(ref[:2])) <= 1e-12

    def test_small_or_wide_requests_take_eigh(self, monkeypatch):
        # below the crossover order, or asking for many pairs, eigh decides
        def fail(*args):
            raise AssertionError("secular solve used")

        monkeypatch.setattr(dense, "_secular", fail)
        rng = np.random.default_rng(6)
        theta = np.sort(rng.uniform(1.0, 10.0, 40))
        C = rng.standard_normal((40, 3))
        D = 20.0 * np.eye(3)
        vals, X = dense.bordered_sym_eig(theta, C, D, 5, 4)
        ref = np.linalg.eigvalsh(_bordered(theta, C, D))
        assert np.allclose(vals, ref[:5], rtol=1e-13) and X.shape == (43, 4)
        theta = np.sort(rng.uniform(1.0, 10.0, 200))
        C = rng.standard_normal((200, 3))
        vals, _ = dense.bordered_sym_eig(theta, C, D, 40, 40)
        assert vals.shape == (40,)

    def test_no_border_returns_theta(self):
        theta = np.array([1.0, 2.0, 5.0])
        vals, X = dense.bordered_sym_eig(theta, np.zeros((3, 0)), np.zeros((0, 0)), 2, 1)
        assert np.array_equal(vals, [1.0, 2.0]) and X.shape == (3, 1)
