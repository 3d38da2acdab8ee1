"""Shared fixtures and small problem builders for the test suite."""

import numpy as np
import pytest

from subeig.core import SparseSymMatrix, orthonormalize


def make_spd(rng, n, lo=0.5, hi=10.0):
    """Random SPD matrix with prescribed uniform spectrum."""
    Q = orthonormalize(rng.standard_normal((n, n))).columns
    vals = np.sort(rng.uniform(lo, hi, size=n))
    S = (Q * vals[None, :]) @ Q.T
    return SparseSymMatrix.from_dense(0.5 * (S + S.T))


def laplacian_1d(n):
    """Scaled 1D Laplacian (1/h) * tridiag(-1, 2, -1) with h = 1/(n+1)."""
    h = 1.0 / (n + 1)
    S = (np.diag(2.0 * np.ones(n)) - np.diag(np.ones(n - 1), 1)
         - np.diag(np.ones(n - 1), -1)) / h
    return SparseSymMatrix.from_dense(S)


def tridiag(n, lo=-1.0, d=2.0, hi=-1.0):
    S = np.diag(d * np.ones(n)) + np.diag(lo * np.ones(n - 1), -1) \
        + np.diag(hi * np.ones(n - 1), 1)
    return SparseSymMatrix.from_dense(S)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
