"""Matrix Market I/O for sparse symmetric operators and dense bases."""

from __future__ import annotations

import os

import numpy as np
import scipy.io
import scipy.sparse as sp

from .core import SparseSymMatrix
from .exceptions import ConfigError


def write_matrix(path: str, A: SparseSymMatrix, comment: str = "") -> None:
    """Write in coordinate format, lower triangle with the symmetric qualifier."""
    scipy.io.mmwrite(path, sp.tril(A.csr), comment=comment,
                     precision=17, symmetry="symmetric")


def read_matrix(path: str) -> SparseSymMatrix:
    """Read a Matrix Market file; symmetric storage is expanded internally."""
    if not os.path.exists(path):
        raise ConfigError(f"matrix file not found: {path}")
    mat = scipy.io.mmread(path)
    if not sp.issparse(mat):
        mat = sp.csr_matrix(np.atleast_2d(mat))
    return SparseSymMatrix.from_csr(mat.tocsr())


def write_dense(path: str, W: np.ndarray, comment: str = "") -> None:
    """Write a dense matrix (e.g. basis columns) in array format."""
    scipy.io.mmwrite(path, np.atleast_2d(np.asarray(W, dtype=float)),
                     comment=comment, precision=17)


def read_dense(path: str) -> np.ndarray:
    """Read a dense Matrix Market array (sparse input is densified)."""
    if not os.path.exists(path):
        raise ConfigError(f"matrix file not found: {path}")
    mat = scipy.io.mmread(path)
    return mat.toarray() if sp.issparse(mat) else np.atleast_2d(np.asarray(mat))

