"""Sparse symmetric operators, weighted inner products, CG, the
Chebyshev smoother of the V-cycle (a polynomial in D^{-1} A applied by
products with that scaled matrix), metric-weighted orthonormalization
(CGS2) and the implicit Ritz basis of a coarse space."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .exceptions import (
    ConvergenceError,
    DimensionMismatchError,
    EmptyBasisError,
    NotPositiveDefiniteError,
    NotSymmetricError,
)

DENSE_LIMIT = 2048

SYMMETRY_RTOL = 1e-14
DROP_TOL = 1e-10
_NEGATIVE_FORM_RTOL = 1e-13  # round-off allowance of a quadratic form, relative to max|x|^2
CG_TOL = 1e-12
# The Chebyshev smoother: the degree of its polynomial in D^{-1} A and its
# interval [upper / _CHEB_RATIO, upper], upper = _CHEB_UPPER times the
# Gershgorin bound.  The figures count the V-cycles of the 7 inner solves
# of the gmg2d benchmark run (8 outer steps, the converging one skipping
# its solve): 77 with one degree-4 step, 98 with degree 3, 70 with degree 5
# (each cycle a quarter dearer), 105 with two restarted degree-2 steps, and
# 84 with upper at the bound itself.
_CHEB_DEGREE = 4
_CHEB_UPPER = 1.1
_CHEB_RATIO = 30
_DENSE_CYCLE = 256  # unknowns up to which the V-cycle is one dense product


@dataclass(frozen=True, eq=False)
class SparseSymMatrix:
    """A symmetric operator held by its CSR matrix csr, which stores the
    full (expanded) pattern with duplicates summed.

    from_csr validates symmetry and never repairs it silently; callers must
    not modify csr.  It compares and hashes by identity, so a matrix can
    key the oracle memo of projection.exact_eigenset.
    """

    csr: sp.csr_matrix

    @property
    def n(self) -> int:
        return self.csr.shape[0]

    @staticmethod
    def from_csr(csr: sp.spmatrix) -> "SparseSymMatrix":
        csr = sp.csr_matrix(csr)
        csr.sum_duplicates()
        if csr.shape[0] != csr.shape[1]:
            raise DimensionMismatchError(f"matrix must be square, got {csr.shape}")
        scale = max(np.abs(csr.data).max() if csr.nnz else 0.0, 1e-300)
        T = csr.T.tocsr()  # canonical, like csr after sum_duplicates
        if np.array_equal(T.indptr, csr.indptr) and np.array_equal(T.indices, csr.indices):
            # one pattern: the entries pair up position by position
            skew_max = np.abs(csr.data - T.data).max(initial=0.0)
        else:
            skew = abs(csr - T)
            skew_max = skew.data.max() if skew.nnz else 0.0
        if skew_max > SYMMETRY_RTOL * scale:
            raise NotSymmetricError(
                f"asymmetry {skew_max:.3e} exceeds {SYMMETRY_RTOL:.1e} * max|entry|"
            )
        return SparseSymMatrix(csr)

    @staticmethod
    def from_dense(S: np.ndarray) -> "SparseSymMatrix":
        return SparseSymMatrix.from_csr(sp.csr_matrix(np.asarray(S, dtype=float)))

    @staticmethod
    def identity(n: int) -> "SparseSymMatrix":
        return SparseSymMatrix.from_csr(sp.identity(n, format="csr"))

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return spmm(self.csr, np.asarray(x, dtype=float))

    def diagonal(self) -> np.ndarray:
        return self.csr.diagonal()


def spmm(csr: sp.csr_matrix, X: np.ndarray) -> np.ndarray:
    """csr @ X for a CSR matrix and a dense vector or n x k block, by the
    sparsetools kernel (csr_matvec, or csr_matvecs for k > 1) that the
    operator ends in, so the result is bit for bit the same, without
    scipy's Python dispatch around it (3-6 us a call, against 4-20 us for
    the whole product at the sizes of a V-cycle)."""
    rows, cols = csr.shape
    if csr.format != "csr" or X.ndim not in (1, 2):
        raise TypeError(f"spmm takes a CSR matrix and a 1D or 2D array, got "
                        f"{csr.format} and {X.ndim}D")
    if X.shape[0] != cols:
        raise DimensionMismatchError(f"operator is {rows}x{cols}, vector has length {X.shape[0]}")
    dtype = np.result_type(csr.dtype, X.dtype)
    if X.ndim == 1 or X.shape[1] == 1:
        y = np.zeros(rows, dtype=dtype)
        _sparsetools.csr_matvec(rows, cols, csr.indptr, csr.indices, csr.data, X.ravel(), y)
        return y if X.ndim == 1 else y[:, None]
    Y = np.zeros((rows, X.shape[1]), dtype=dtype)
    _sparsetools.csr_matvecs(rows, cols, X.shape[1], csr.indptr, csr.indices, csr.data,
                             X.ravel(), Y.ravel())
    return Y


def galerkin(P: sp.spmatrix, S: Optional[SparseSymMatrix] = None) -> SparseSymMatrix:
    """The Galerkin product P^T S P of a sparse P (P^T P when S is None),
    as the mean (G + G^T) / 2 of the computed product G; SPD when S is.
    The product rounds differently at (i, j) and (j, i), so G is symmetric
    only to round-off, which from_csr can reject (the AMG chain of the 1D
    P1 pencil at n = 4095 measures 4.3e-16 against a bound of 1e-14 times
    its largest entry); the mean leaves exactly symmetric entries
    unchanged."""
    R = P.T.tocsr()
    G = R @ (P if S is None else S.csr @ P)
    return SparseSymMatrix.from_csr(0.5 * (G + G.T))


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
    return _form_root(inner(x, x, weight), x)


def _form_root(q: float, x: np.ndarray) -> float:
    """sqrt(q) for the quadratic form q = x^T G x: a negative q within
    round-off of max|x|^2 counts as 0, a larger one raises."""
    if q < 0.0:
        if q < -_NEGATIVE_FORM_RTOL * max(float(np.abs(x).max(initial=0.0)) ** 2, 1e-300):
            raise NotPositiveDefiniteError(f"negative quadratic form {q:.3e}: weight is not SPD")
        q = 0.0
    return math.sqrt(q)


def column_dots(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The column inner products x_j^T y_j of two arrays of one shape (a
    scalar for vectors), without the product temporary and the strided
    reduction of np.sum(X * Y, axis=0)."""
    return np.einsum("i...,i...->...", X, Y)


def column_norms(X: np.ndarray, GX: np.ndarray) -> np.ndarray:
    """Norms sqrt(x_j^T G x_j) of the columns of X, given their G-images GX
    (GX = X for the Euclidean norm); rejects indefinite weights like norm."""
    q = column_dots(X, GX)
    if np.any(q < 0.0):
        floor = -_NEGATIVE_FORM_RTOL * np.maximum(np.abs(X).max(axis=0, initial=0.0) ** 2,
                                                  1e-300)
        bad = np.flatnonzero(q < floor)
        if bad.size:
            raise NotPositiveDefiniteError(
                f"negative quadratic form {q[bad[0]]:.3e}: weight is not SPD")
    return np.sqrt(np.maximum(q, 0.0))


def cg_solve(
    A: SparseSymMatrix,
    b: np.ndarray,
    tol: float = CG_TOL,
    max_iter: int = 10000,
    preconditioner: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    x0: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Conjugate gradients for SPD A, to relative residual tol.

    b is an n-vector or an n x k block of independent right-hand sides.  A
    block runs one CG per column, vectorised: each column has its own step
    lengths and stops at tol times its own norm, after which its step
    lengths are zero and it stays frozen while the others iterate.  Zero
    columns return zero.  Convergence is tested on the initial residual and
    after each update of r, before the preconditioner is applied, so a
    solve that converges in I iterations applies it I times (an x0 that
    already meets tol, never).  The preconditioner receives arrays of b's
    shape and must not write into them; b and x0 are left unchanged.
    """
    b = np.asarray(b, dtype=float)
    if b.shape[0] != A.n:
        raise DimensionMismatchError(f"rhs length {b.shape[0]} != {A.n}")
    target = tol * np.sqrt(column_dots(b, b))
    if x0 is None:
        x, r = np.zeros_like(b), b.copy()
    else:
        x = np.where(target > 0.0, np.asarray(x0, dtype=float), 0.0)
        r = b - A.matvec(x)
    active = ~(np.sqrt(column_dots(r, r)) <= target)  # NaN stays active
    if not active.any():
        return x
    z = preconditioner(r) if preconditioner else r
    p = z.copy()
    rz = column_dots(r, z)
    for _ in range(max_iter):
        Ap = A.matvec(p)
        pAp = column_dots(p, Ap)
        if np.any(active & (pAp <= 0.0)):
            raise NotPositiveDefiniteError(
                f"zero/negative curvature {np.min(np.where(active, pAp, np.inf)):.3e} "
                "in CG: operator is not SPD"
            )
        alpha = np.divide(rz, pAp, out=np.zeros_like(rz), where=active)
        x += alpha * p
        r -= alpha * Ap
        active = ~(np.sqrt(column_dots(r, r)) <= target)
        if not active.any():
            return x
        z = preconditioner(r) if preconditioner else r
        rz_new = column_dots(r, z)
        p *= np.divide(rz_new, rz, out=np.zeros_like(rz), where=active)
        p += z
        rz = rz_new
    raise ConvergenceError(
        f"CG did not reach relative residual {tol:.1e} within {max_iter} iterations"
    )


def gershgorin_bound(A: SparseSymMatrix) -> float:
    """max_i sum_j |a_ij| / a_ii, the Gershgorin bound on the spectral
    radius of D^{-1} A (D the diagonal of A)."""
    return float(np.max(abs(A.csr) @ np.ones(A.n) / A.diagonal()))


class _Chebyshev:
    """The smoother of the V-cycle for one fixed SPD matrix: the Chebyshev
    polynomial of degree _CHEB_DEGREE in D^{-1} A on the interval
    [upper / _CHEB_RATIO, upper], upper = _CHEB_UPPER * gershgorin_bound(A)
    (Adams, Brezina, Hu & Tuminaro, J. Comput. Phys. 188, 2003).

    A step maps the error e = A^{-1} b - x to p(D^{-1} A) e, with p the
    scaled Chebyshev polynomial, p(0) = 1, that is smallest on the
    interval; the eigenvalues below it are left to the coarse correction.
    The correction q(D^{-1} A) D^{-1} (b - A x), p(t) = 1 - t q(t), is a
    symmetric matrix of the residual, so the same step before and after the
    coarse correction keeps the V-cycle symmetric.  It runs the three-term
    recurrence on the scaled residual z = D^{-1} (b - A x), so its round-off
    stays proportional to the correction, and updates z, the correction d
    and x in place.  It holds S = D^{-1} A, D^{-1} and the interval."""

    def __init__(self, A: SparseSymMatrix):
        self._dinv = 1.0 / A.diagonal()
        self._S = sp.csr_matrix(sp.diags(self._dinv) @ A.csr)
        upper = _CHEB_UPPER * gershgorin_bound(A)
        lower = upper / _CHEB_RATIO
        self._centre, self._half_width = (upper + lower) / 2, (upper - lower) / 2

    def smooth(self, b: np.ndarray, x: Optional[np.ndarray] = None) -> np.ndarray:
        """One step on A x = b (b a vector or a block) from x or from
        zero; returns the new x and writes into neither b nor x."""
        z = (self._dinv if b.ndim == 1 else self._dinv[:, None]) * b
        if x is not None:
            z -= spmm(self._S, x)
        d = z / self._centre
        x = d.copy() if x is None else x + d
        sigma = self._centre / self._half_width
        rho = 1.0 / sigma
        for _ in range(_CHEB_DEGREE - 1):
            Sd = spmm(self._S, d)
            z -= Sd
            rho_next = 1.0 / (2.0 * sigma - rho)
            d *= rho_next * rho
            d += np.multiply(z, 2.0 * rho_next / self._half_width, out=Sd)
            x += d
            rho = rho_next
        return x


@dataclass(frozen=True)
class Basis:
    """n x m columns orthonormal in the inner product of weight (plain L2
    when weight is None)."""

    columns: np.ndarray
    weight: Optional[SparseSymMatrix] = None

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
    m = _cgs2_append(Q, GQ, 0, W, weight, tol)
    if m == 0:
        raise EmptyBasisError("all columns were dropped as rank deficient")
    return Basis(columns=np.ascontiguousarray(Q[:, :m]), weight=weight)


def _cgs2_append(
    Q: np.ndarray,
    GQ: np.ndarray,
    m: int,
    W: np.ndarray,
    weight: Optional[SparseSymMatrix] = None,
    tol: float = DROP_TOL,
) -> int:
    """The CGS2 kernel of orthonormalize: continues an orthonormal set held
    in the first m columns of the buffer Q (their G-images in GQ, which is
    Q itself when weight is None) with the columns of W, in order, and
    returns the new count.  Kept columns go to Q[:, m], Q[:, m + 1], ...;
    Q needs room for all of W's columns.

    A weight costs one block product G W for the original norms and one
    product G v per column after projection: G v / ||v||_G is the kept
    column's G-image."""
    original = column_norms(W, W if weight is None else weight.matvec(W))
    for j in range(W.shape[1]):
        if original[j] == 0.0:
            continue
        v = W[:, j].copy()
        for _ in range(2):
            v -= Q[:, :m] @ (GQ[:, :m].T @ v)
        Gv = v if weight is None else weight.matvec(v)
        nv = _form_root(float(v @ Gv), v)
        if nv < tol * original[j]:
            continue
        Q[:, m] = v / nv
        if weight is not None:
            GQ[:, m] = Gv / nv
        m += 1
    return m


@dataclass(frozen=True, eq=False)
class CoarseSpace:
    """A coarse space span(K) = range(P) held implicitly by its Ritz basis:
    the columns V = P Y are M-orthonormal (M the weight, plain L2 when None)
    and A-orthogonal, V^T A V = diag(theta), with the Ritz values theta
    ascending.  P is sparse (a composed prolongation) or dense (the columns
    of a Basis); V is formed only on request (columns), so a step applies K
    through P and Y alone: project_out, restrict and prolong.  Where a Basis
    is expected it serves as one (n, dim, columns, weight, gram and
    gram_defect).  projection.ritz_space builds it."""

    P: sp.spmatrix | np.ndarray  # n x m
    Y: np.ndarray  # m x m
    theta: np.ndarray  # m, ascending
    weight: Optional[SparseSymMatrix] = None

    @property
    def n(self) -> int:
        return self.P.shape[0]

    @property
    def dim(self) -> int:
        return self.Y.shape[1]

    @functools.cached_property
    def _sparse(self) -> Optional[tuple[sp.csr_matrix, sp.csr_matrix]]:
        """(P, P^T) as CSR matrices for a sparse P, None for a dense one."""
        return (self.P.tocsr(), self.P.T.tocsr()) if sp.issparse(self.P) else None

    def restrict(self, X: np.ndarray) -> np.ndarray:
        """V^T X = Y^T (P^T X), the coefficients of X against the basis."""
        PtX = self.P.T @ X if self._sparse is None else spmm(self._sparse[1], X)
        return self.Y.T @ PtX

    def prolong(self, Z: np.ndarray) -> np.ndarray:
        """V Z = P (Y Z)."""
        YZ = self.Y @ Z
        return self.P @ YZ if self._sparse is None else spmm(self._sparse[0], YZ)

    def project_out(self, X: np.ndarray) -> np.ndarray:
        """X minus its M-orthogonal projection onto span(K)."""
        return X - self.prolong(self.restrict(X if self.weight is None
                                              else self.weight.matvec(X)))

    @functools.cached_property
    def columns(self) -> np.ndarray:
        """The dense n x m basis V = P Y (desk scale)."""
        return np.asarray(self.P @ self.Y)

    gram = Basis.gram
    gram_defect = Basis.gram_defect
