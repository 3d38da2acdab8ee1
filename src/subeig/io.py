"""Matrix Market I/O for sparse symmetric operators."""

from __future__ import annotations

import os

import numpy as np
import scipy.io
import scipy.sparse as sp

from .core import SparseSymMatrix
from .exceptions import ConfigError


def write_matrix(path: str, A: SparseSymMatrix) -> None:
    """Write in coordinate format, lower triangle with the symmetric qualifier."""
    scipy.io.mmwrite(path, sp.tril(A.csr), precision=17, symmetry="symmetric")


def read_matrix(path: str) -> SparseSymMatrix:
    """Read a Matrix Market file; symmetric storage is expanded internally."""
    if not os.path.exists(path):
        raise ConfigError(f"matrix file not found: {path}")
    mat = scipy.io.mmread(path)
    if not sp.issparse(mat):
        mat = sp.csr_matrix(np.atleast_2d(mat))
    return SparseSymMatrix.from_csr(mat.tocsr())
