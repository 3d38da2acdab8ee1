"""Independent reference for the Gauss-Seidel smoother: the textbook
row-by-row sweep over the CSR arrays.  The library applies the same sweep
by block forward substitution; the tests compare the two."""

from __future__ import annotations

import numpy as np


def gauss_seidel(A, x: np.ndarray, b: np.ndarray, sweeps: int,
                 reverse: bool = False) -> None:
    """In-place Gauss-Seidel sweeps on A x = b for a SparseSymMatrix A;
    reverse runs the rows backward (the symmetric partner)."""
    indptr, indices, data = A.row_offsets, A.col_indices, A.values
    diag = A.diagonal()
    order = range(A.n - 1, -1, -1) if reverse else range(A.n)
    for _ in range(sweeps):
        for i in order:
            lo, hi = indptr[i], indptr[i + 1]
            x[i] += (b[i] - data[lo:hi] @ x[indices[lo:hi]]) / diag[i]
