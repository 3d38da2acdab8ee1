"""Sparse symmetric operators, weighted inner products, CG, the dense
symmetric eigensolver oracle and metric-weighted orthonormalization."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from . import dense
from .exceptions import (
    ConvergenceError,
    DimensionMismatchError,
    EmptyBasisError,
    MetricMismatchError,
    NotPositiveDefiniteError,
    NotSymmetricError,
)

DENSE_LIMIT = 2048

SYMMETRY_RTOL = 1e-14
ORTHONORMALITY_TOL = 1e-10
DROP_TOL = 1e-10
CG_TOL = 1e-12


@dataclass(frozen=True)
class SparseSymMatrix:
    """Symmetric CSR operator storing the full (expanded) pattern.

    Symmetry is validated at construction and never repaired silently.
    """

    n: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray
    spd: bool = False
    _csr: sp.csr_matrix = field(repr=False, compare=False, default=None)

    @staticmethod
    def from_csr(csr: sp.spmatrix, spd: bool = False, check_spd: bool = False) -> "SparseSymMatrix":
        csr = sp.csr_matrix(csr)
        csr.sum_duplicates()
        if csr.shape[0] != csr.shape[1]:
            raise DimensionMismatchError(f"matrix must be square, got {csr.shape}")
        scale = max(np.abs(csr.data).max() if csr.nnz else 0.0, 1e-300)
        skew = abs(csr - csr.T)
        skew_max = skew.data.max() if skew.nnz else 0.0
        if skew_max > SYMMETRY_RTOL * scale:
            raise NotSymmetricError(
                f"asymmetry {skew_max:.3e} exceeds {SYMMETRY_RTOL:.1e} * max|entry|"
            )
        if check_spd:
            if csr.shape[0] > DENSE_LIMIT:
                raise DimensionMismatchError(
                    "SPD certification by factorization only below the dense limit; "
                    "pass spd=True to attest"
                )
            dense.cholesky(csr.toarray())  # raises NotPositiveDefiniteError
            spd = True
        return SparseSymMatrix(
            n=csr.shape[0],
            row_offsets=csr.indptr,
            col_indices=csr.indices,
            values=csr.data,
            spd=spd,
            _csr=csr,
        )

    @staticmethod
    def from_dense(S: np.ndarray, spd: bool = False, check_spd: bool = False) -> "SparseSymMatrix":
        return SparseSymMatrix.from_csr(sp.csr_matrix(np.asarray(S, dtype=float)),
                                        spd=spd, check_spd=check_spd)

    @staticmethod
    def identity(n: int) -> "SparseSymMatrix":
        return SparseSymMatrix.from_csr(sp.identity(n, format="csr"), spd=True)

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.n:
            raise DimensionMismatchError(f"operator is {self.n}x{self.n}, vector has length {x.shape[0]}")
        return self._csr @ x

    def diagonal(self) -> np.ndarray:
        return self._csr.diagonal()


def inner(x: np.ndarray, y: np.ndarray, weight: Optional[SparseSymMatrix] = None) -> float:
    """x^T y, or x^T G y when a symmetric weight G is given."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DimensionMismatchError(f"shape mismatch {x.shape} vs {y.shape}")
    if weight is None:
        return float(x @ y)
    return float(x @ weight.matvec(y))


def norm(x: np.ndarray, weight: Optional[SparseSymMatrix] = None) -> float:
    """Euclidean or weight-induced norm; rejects indefinite weights."""
    q = inner(x, x, weight)
    if q < 0.0:
        if q < -1e-13 * max(float(np.abs(x).max(initial=0.0)) ** 2, 1e-300):
            raise NotPositiveDefiniteError(f"negative quadratic form {q:.3e}: weight is not SPD")
        q = 0.0
    return math.sqrt(q)


def cg_solve(
    A: SparseSymMatrix,
    b: np.ndarray,
    tol: float = CG_TOL,
    max_iter: int = 10000,
    preconditioner: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    x0: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Conjugate gradients for SPD A, to relative residual tol."""
    b = np.asarray(b, dtype=float)
    if b.shape[0] != A.n:
        raise DimensionMismatchError(f"rhs length {b.shape[0]} != {A.n}")
    nb = math.sqrt(float(b @ b))
    if nb == 0.0:
        return np.zeros(A.n)
    x = np.zeros(A.n) if x0 is None else np.array(x0, dtype=float, copy=True)
    r = b - A.matvec(x)
    z = preconditioner(r) if preconditioner else r
    p = z.copy()
    rz = float(r @ z)
    for _ in range(max_iter):
        if math.sqrt(float(r @ r)) <= tol * nb:
            return x
        Ap = A.matvec(p)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise NotPositiveDefiniteError(
                f"zero/negative curvature {pAp:.3e} in CG: operator is not SPD"
            )
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = preconditioner(r) if preconditioner else r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    if math.sqrt(float(r @ r)) <= tol * nb:
        return x
    raise ConvergenceError(
        f"CG did not reach relative residual {tol:.1e} within {max_iter} iterations"
    )


def _gauss_seidel(A: SparseSymMatrix, x: np.ndarray, b: np.ndarray,
                  sweeps: int, reverse: bool = False) -> None:
    """In-place Gauss-Seidel sweeps on A x = b, the smoother of both
    V-cycles; reverse runs the rows backward (the symmetric partner)."""
    indptr, indices, data = A.row_offsets, A.col_indices, A.values
    diag = A.diagonal()
    order = range(A.n - 1, -1, -1) if reverse else range(A.n)
    for _ in range(sweeps):
        for i in order:
            lo, hi = indptr[i], indptr[i + 1]
            x[i] += (b[i] - data[lo:hi] @ x[indices[lo:hi]]) / diag[i]


@dataclass(frozen=True)
class DenseEigResult:
    """Full ascending spectrum with orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def dense_sym_eig(S: np.ndarray, dense_limit: int = DENSE_LIMIT) -> DenseEigResult:
    """Full symmetric eigendecomposition; the desk-scale oracle (LAPACK
    through dense.sym_eig)."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {S.shape}")
    if S.shape[0] > dense_limit:
        raise DimensionMismatchError(f"dimension {S.shape[0]} exceeds dense limit {dense_limit}")
    dense.check_symmetric(S)
    vals, vecs = dense.sym_eig(0.5 * (S + S.T), vectors=True)
    return DenseEigResult(values=vals, vectors=vecs)


def dense_sym_eigvals(S: np.ndarray, dense_limit: int = DENSE_LIMIT) -> np.ndarray:
    """Eigenvalues only; cheaper than dense_sym_eig for bound evaluation."""
    S = np.asarray(S, dtype=float)
    if S.shape[0] > dense_limit:
        raise DimensionMismatchError(f"dimension {S.shape[0]} exceeds dense limit {dense_limit}")
    dense.check_symmetric(S)
    vals, _ = dense.sym_eig(0.5 * (S + S.T), vectors=False)
    return vals


@dataclass(frozen=True)
class Basis:
    """n x m orthonormal columns tagged with their inner product."""

    columns: np.ndarray
    metric: str  # "l2" or "weighted"
    weight: Optional[SparseSymMatrix] = None
    orthonormality_tol: float = ORTHONORMALITY_TOL

    @property
    def n(self) -> int:
        return self.columns.shape[0]

    @property
    def dim(self) -> int:
        return self.columns.shape[1]

    def gram(self) -> np.ndarray:
        V = self.columns
        GV = V if self.weight is None else np.column_stack(
            [self.weight.matvec(V[:, j]) for j in range(V.shape[1])]
        )
        return V.T @ GV

    def gram_defect(self) -> float:
        m = self.dim
        return float(np.abs(self.gram() - np.eye(m)).max()) if m else 0.0

    def check(self) -> None:
        defect = self.gram_defect()
        if defect > self.orthonormality_tol:
            raise MetricMismatchError(
                f"basis Gram defect {defect:.3e} exceeds tolerance {self.orthonormality_tol:.1e}"
            )


def _apply_weight(W: np.ndarray, weight: Optional[SparseSymMatrix]) -> np.ndarray:
    if weight is None:
        return W
    if W.ndim == 1:
        return weight.matvec(W)
    return np.column_stack([weight.matvec(W[:, j]) for j in range(W.shape[1])])


def orthonormalize(
    W: np.ndarray,
    weight: Optional[SparseSymMatrix] = None,
    tol: float = DROP_TOL,
) -> Basis:
    """Modified Gram-Schmidt with one full re-orthogonalization pass.

    Columns whose residual after projection drops below tol times their
    original norm are rank-deficient and get dropped.
    """
    W = np.atleast_2d(np.asarray(W, dtype=float))
    if W.ndim != 2:
        raise DimensionMismatchError("expected an n x p array")
    n, p = W.shape
    kept: list[np.ndarray] = []
    kept_g: list[np.ndarray] = []  # G-images of kept columns
    for j in range(p):
        v = W[:, j].copy()
        original = norm(v, weight)
        if original == 0.0:
            continue
        for _ in range(2):  # MGS + one re-orthogonalization pass
            for q, gq in zip(kept, kept_g):
                v -= float(gq @ v) * q
        nv = norm(v, weight)
        if nv < tol * original:
            continue
        v /= nv
        kept.append(v)
        kept_g.append(_apply_weight(v, weight))
    if not kept:
        raise EmptyBasisError("all columns were dropped as rank deficient")
    return Basis(
        columns=np.column_stack(kept),
        metric="l2" if weight is None else "weighted",
        weight=weight,
    )
