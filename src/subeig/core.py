"""Sparse symmetric operators, weighted inner products, CG, the
Gauss-Seidel smoother of the V-cycle, the dense symmetric eigensolver
oracle and metric-weighted orthonormalization."""

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
_GS_BLOCK = 64  # rows per block of the Gauss-Seidel smoother


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


class _GaussSeidel:
    """Gauss-Seidel smoother for one fixed symmetric matrix, the smoother of
    the V-cycle.

    A sweep is the correction x += (D+L)^{-1} (b - A x), which equals one
    pass of the row-by-row update.  Applying the inverses to the residual,
    not to b, keeps their round-off proportional to the correction, so
    the V-cycle still converges to 1e-12.  (D+L)^{-1} is applied by block
    forward substitution over runs of _GS_BLOCK consecutive rows: each block
    keeps the dense inverse of its lower-triangular diagonal block and, as
    CSR, its rows left and right of the block.  The reverse sweep (rows
    backward, the symmetric partner) uses D+U = (D+L)^T, so it reuses the
    same inverses transposed.
    """

    def __init__(self, A: SparseSymMatrix):
        self._csr = csr = A._csr
        self._blocks = []
        for lo in range(0, A.n, _GS_BLOCK):
            hi = min(lo + _GS_BLOCK, A.n)
            rows = csr[lo:hi]
            inv = np.linalg.inv(np.tril(rows[:, lo:hi].toarray()))
            left = rows[:, :lo] if lo > 0 else None
            right = rows[:, hi:] if hi < A.n else None
            self._blocks.append((lo, hi, inv, left, right))

    def smooth(self, x: np.ndarray, b: np.ndarray, sweeps: int,
               reverse: bool = False) -> None:
        """In-place sweeps on A x = b; reverse runs the rows backward."""
        for _ in range(sweeps):
            r = b - self._csr @ x
            y = np.empty_like(r)
            if reverse:
                for lo, hi, inv, _, right in reversed(self._blocks):
                    rk = r[lo:hi] if right is None else r[lo:hi] - right @ y[hi:]
                    y[lo:hi] = inv.T @ rk
            else:
                for lo, hi, inv, left, _ in self._blocks:
                    rk = r[lo:hi] if left is None else r[lo:hi] - left @ y[:lo]
                    y[lo:hi] = inv @ rk
            x += y


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
        GV = V if self.weight is None else self.weight.matvec(V)
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


def orthonormalize(
    W: np.ndarray,
    weight: Optional[SparseSymMatrix] = None,
    tol: float = DROP_TOL,
) -> Basis:
    """Classical Gram-Schmidt applied twice (CGS2), column by column.

    Columns whose residual after projection drops below tol times their
    original norm are rank-deficient and get dropped.
    """
    W = np.atleast_2d(np.asarray(W, dtype=float))
    if W.ndim != 2:
        raise DimensionMismatchError("expected an n x p array")
    n, p = W.shape
    Q = np.empty((n, p), order="F")  # kept columns
    GQ = Q if weight is None else np.empty((n, p), order="F")  # their G-images
    m = 0
    for j in range(p):
        v = W[:, j].copy()
        original = norm(v, weight)
        if original == 0.0:
            continue
        for _ in range(2):
            v -= Q[:, :m] @ (GQ[:, :m].T @ v)
        nv = norm(v, weight)
        if nv < tol * original:
            continue
        Q[:, m] = v / nv
        if weight is not None:
            GQ[:, m] = weight.matvec(Q[:, m])
        m += 1
    if m == 0:
        raise EmptyBasisError("all columns were dropped as rank deficient")
    return Basis(
        columns=np.ascontiguousarray(Q[:, :m]),
        metric="l2" if weight is None else "weighted",
        weight=weight,
    )
