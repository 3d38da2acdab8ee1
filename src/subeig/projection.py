"""Rayleigh-Ritz projection and numerical evaluation of the energy/L2
error-bound quantities: the discrete duality constant, reciprocal-eigenvalue
gaps, spectral-projection errors and the Strang identity residual."""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from . import dense
from .core import (
    DENSE_LIMIT,
    Basis,
    CoarseSpace,
    SparseSymMatrix,
    _cgs2_append,
    column_norms,
    galerkin,
    inner,
    norm,
    orthonormalize,
)
from .exceptions import (
    DegenerateGapError,
    DimensionMismatchError,
    EmptyBasisError,
    NotPositiveDefiniteError,
)


@dataclass(frozen=True)
class RitzSet:
    """The Ritz pairs of a subspace of dimension m: the lowest q <= m Ritz
    values, ascending, and the lowest p <= q Ritz vectors, lifted and
    A-normalized.  ritz keeps all of them; the inverse power step keeps only
    the pairs it and the bounds read (k + 1 values and k vectors in block
    mode)."""

    values: np.ndarray  # ascending, the lowest q
    vectors: np.ndarray  # n x p, p <= q, ||u_j||_A = 1
    m: int  # dimension of the projected subspace

    @property
    def mu_values(self) -> np.ndarray:
        """1/values, descending."""
        return 1.0 / self.values


@dataclass(frozen=True)
class ExactEigenSet:
    """Oracle eigenpairs of the pencil, vectors A-orthonormal; shared by
    every caller of exact_eigenset, so both arrays are read-only."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def mu_values(self) -> np.ndarray:
        return 1.0 / self.values


@dataclass(frozen=True)
class BoundReport:
    """Both sides of one projection error bound, with its ingredients."""

    eta_K: float
    delta: float
    theta: float
    eta_Ki: float
    lhs_energy: float
    rhs_energy: float
    lhs_l2: float
    rhs_l2: float
    index: int = 0
    tie: bool = False

    def to_json(self) -> str:
        payload = {
            "eta_K": self.eta_K,
            "delta": self.delta,
            "theta": self.theta,
            "eta_Ki": self.eta_Ki,
            "lhs_energy": self.lhs_energy,
            "rhs_energy": self.rhs_energy,
            "lhs_l2": self.lhs_l2,
            "rhs_l2": self.rhs_l2,
            "index": self.index,
            "tie": self.tie,
        }
        return json.dumps(payload, sort_keys=True)


def _fix_signs(U: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column positive."""
    p = np.argmax(np.abs(U), axis=0)
    return U * np.where(U[p, np.arange(U.shape[1])] < 0, -1.0, 1.0)


# The oracle of every pencil (A, M) while A lives: A maps to a dict from M
# (None for a standard problem) to its ExactEigenSet.
_ORACLES: weakref.WeakKeyDictionary[SparseSymMatrix, dict] = weakref.WeakKeyDictionary()


def exact_eigenset(A: SparseSymMatrix,
                   M: Optional[SparseSymMatrix] = None) -> ExactEigenSet:
    """Dense oracle for the full spectrum of A u = lam M u, A-orthonormal.

    It is computed once per (A, M) pair of objects while A lives, so
    EtaOracle, amg.ideal_coarse_space and the verify suites share one
    eigendecomposition per pencil; its arrays are read-only."""
    if A.n > DENSE_LIMIT:
        raise DimensionMismatchError(f"dimension {A.n} exceeds dense limit {DENSE_LIMIT}")
    per_A = _ORACLES.setdefault(A, {})
    exact = per_A.get(M)
    if exact is None:
        if M is None:
            S = A.to_dense()  # SparseSymMatrix bounded its asymmetry on construction
            vals, X = dense.sym_eig(0.5 * (S + S.T))
        else:
            vals, X = dense.generalized_sym_eig(A.to_dense(), M.to_dense())
        if vals[0] <= 0.0:
            raise NotPositiveDefiniteError(
                f"A is not positive definite: its smallest eigenvalue is {vals[0]:.3e}")
        U = _fix_signs(X / np.sqrt(vals)[None, :])
        vals.flags.writeable = U.flags.writeable = False
        exact = per_A[M] = ExactEigenSet(values=vals, vectors=U)
    return exact


# Smallest share of a basis column's squared M-norm that must lie outside the
# span of the columns before it: L_jj^2 / (V^T M V)_jj, with L the Cholesky
# factor of the projected mass matrix, is sin^2 of that angle.  The full-rank
# gmg-1d, gmg-2d and amg coarse spaces measure at least 0.47 in the M and the
# L2 metric; a duplicate or combined column measures at most 5.5e-16 or fails
# the Cholesky outright.
_MIN_SIN2 = 1e-10


def ritz(A: SparseSymMatrix, M: Optional[SparseSymMatrix],
         K: Optional[Basis]) -> RitzSet:
    """Rayleigh-Ritz on span(K) for any full-rank basis V = K.columns, or
    on all of R^n when K is None (V = I, never formed): the projected
    pencil (V^T A V, V^T M V) is solved by dense.reduced_sym_eig from the
    inverse Cholesky factor of V^T M V, and its eigenvectors Y are lifted
    to X = V Y and scaled to unit A-norm.  V need not be orthonormal in any
    metric.  A rank-deficient V raises NotPositiveDefiniteError: the
    projected mass matrix then has no Cholesky factor, or sin^2 of the
    angle between some column and the span of the columns before it falls
    below _MIN_SIN2.  A nonpositive lowest Ritz value raises it too: it
    bounds the smallest eigenvalue of A from above, so A is not positive
    definite.  The projected problem is not the dense oracle, so no dense
    limit applies."""
    if K is None:
        A_K = A.to_dense()
        M_K = np.eye(A.n) if M is None else M.to_dense()
    else:
        V = K.columns
        AV = A.matvec(V)
        A_K = V.T @ AV
        M_K = V.T @ (V if M is None else M.matvec(V))
    W = dense.inverse_cholesky(M_K)  # W = L^{-1}, so L_jj = 1 / W_jj
    sin2 = 1.0 / (np.diag(W) ** 2 * np.diag(M_K))
    if sin2.min() < _MIN_SIN2:
        j = int(np.argmin(sin2))
        raise NotPositiveDefiniteError(
            f"basis column {j} lies at sin^2 = {sin2[j]:.3e} from the span of the "
            f"columns before it (below {_MIN_SIN2:.0e}): the basis is rank deficient")
    vals, Y = dense.reduced_sym_eig(A_K, W)
    if vals[0] <= 0.0:  # theta_1 >= lambda_1, so A has a nonpositive eigenvalue too
        raise NotPositiveDefiniteError(
            f"A is not positive definite: its lowest Ritz value is {vals[0]:.3e}")
    X, AX = (Y, A.matvec(Y)) if K is None else (V @ Y, AV @ Y)
    X /= column_norms(X, AX)
    return RitzSet(values=vals, vectors=_fix_signs(X), m=vals.size)


def ritz_space(
    A: SparseSymMatrix,
    M: Optional[SparseSymMatrix],
    K: Basis | CoarseSpace | sp.spmatrix | Sequence[sp.spmatrix],
) -> CoarseSpace:
    """The Ritz basis of a coarse space, held as a CoarseSpace: K itself
    when it is one already, else the span of a Basis or the range of a
    sparse n x m P of full column rank, given as P or as the chain of its
    factors [P_1, ..., P_d], P = P_1 ... P_d (fine to coarse).

    A Basis (desk scale) goes through ritz in the full space, and its Ritz
    vectors, scaled to unit M-norm, become one dense factor with Y = I.  For
    a sparse chain the coarse pencil (A_H, M_H) = (P^T A P, P^T M P) is
    formed by one Galerkin product per factor (on an AMG chain A_H is the
    hierarchy's own level matrix) and solved once by ritz on all of R^m, so
    neither P nor an n x m array is formed; its Ritz vectors, scaled to
    unit M_H-norm, make P Y M-orthonormal.  (Scaling the A_H-normalized
    vectors by sqrt(theta) instead leaves a Gram defect near
    eps * cond(A_H).)  A rank-deficient P raises NotPositiveDefiniteError
    from ritz, as M_H is then singular."""
    if isinstance(K, CoarseSpace):
        return K
    if isinstance(K, Basis):
        rs = ritz(A, M, K)
        X = rs.vectors
        V = X / column_norms(X, X if M is None else M.matvec(X))
        return CoarseSpace(factors=(V,), Y=np.eye(rs.m), theta=rs.values, weight=M)
    factors = tuple(F.tocsr() for F in ([K] if sp.issparse(K) else K))
    A_H, M_H = A, M
    for F in factors:
        A_H, M_H = galerkin(F, A_H), galerkin(F, M_H)
    rs = ritz(A_H, M_H, None)
    X = rs.vectors
    return CoarseSpace(factors=factors, Y=X / column_norms(X, M_H.matvec(X)),
                       theta=rs.values, weight=M)


class EtaOracle:
    """Dense evaluator of the duality constant
    eta = sup_{||g||=1} ||(I - P_K) A^{-1} g||_A (input norm M-weighted for
    a pencil), read off the oracle eigenpairs, which it keeps as .exact.

    The A-orthonormal eigenvectors U give A^{-1} = U U^T and U^T M U =
    diag(1/lambda).  In the coordinates c = U^T A x, P_K is the Euclidean
    projector Q Q^T onto the coordinates of K, so eta^2 is the largest
    eigenvalue of D (I - Q Q^T) D with D = diag(lambda^{-1/2}).

    eta(K, U) is eta of span(K) + span(U).  The oracle keeps the
    orthonormal coordinates Q_K of the Basis or CoarseSpace K of its last
    call, and a call with the same K object continues CGS2 from them with
    U's columns alone, in the order, with the drop rule and in the storage
    of orthonormalize on [K, U]: a tracked run orthonormalizes K's
    coordinates once and each step only those of its k iterates."""

    def __init__(self, A: SparseSymMatrix, M: Optional[SparseSymMatrix] = None):
        self.A = A
        self.exact = exact_eigenset(A, M)
        self._K = self._QK = None  # a Basis or CoarseSpace K and its Q_K

    def _coordinates(self, X: np.ndarray) -> np.ndarray:
        """The eigen-coordinates U^T A X of the columns of X (a vector is
        one column)."""
        X = np.asarray(X, dtype=float).reshape(self.A.n, -1)
        return self.exact.vectors.T @ self.A.matvec(X)

    def eta(self, K: Basis | CoarseSpace | np.ndarray,
            U: Optional[np.ndarray] = None) -> float:
        if K is not self._K:
            cols = (K.columns if isinstance(K, (Basis, CoarseSpace))
                    else np.asarray(K, dtype=float))
            if cols.size == 0:
                raise EmptyBasisError("eta is undefined for an empty subspace")
            C = self._coordinates(cols)
            Q = np.empty(C.shape, order="F")
            self._QK = Q[:, :_cgs2_append(Q, Q, 0, C)]
            # an array may change in place between calls, so only a frozen
            # basis keeps its coordinates
            self._K = K if isinstance(K, (Basis, CoarseSpace)) else None
        Q = self._QK
        if U is not None:
            C = self._coordinates(U)
            m = Q.shape[1]
            Q = np.empty((C.shape[0], m + C.shape[1]), order="F")
            Q[:, :m] = self._QK
            Q = Q[:, :_cgs2_append(Q, Q, m, C)]
        if Q.shape[1] == 0:
            raise EmptyBasisError("all columns were dropped as rank deficient")
        # C order, as orthonormalize returns it, so DQ DQ^T rounds alike
        DQ = np.ascontiguousarray(Q) / np.sqrt(self.exact.values)[:, None]
        S = np.diag(self.exact.mu_values) - DQ @ DQ.T
        lam_max = float(dense.sym_eig(S, vectors=False)[0][-1])
        return math.sqrt(max(lam_max, 0.0))


def gap_delta(
    mu_values: Sequence[float],
    mu_target: float,
    exclude: Iterable[int] = (),
) -> float:
    """min_{j not excluded} |mu_j - mu_target| over reciprocal Ritz values."""
    excluded = set(exclude)
    gaps = [abs(m - mu_target) for j, m in enumerate(mu_values) if j not in excluded]
    if not gaps:
        raise DegenerateGapError("no candidate indices left after exclusion")
    return min(gaps)


def gap_delta_block(mu_values: Sequence[float], mu_target: float, k: int) -> float:
    """min_{k < j <= m} |mu_j - mu_target| (indices 1-based as in the bound)."""
    if k >= len(mu_values):
        raise DegenerateGapError(f"block gap needs more than k={k} Ritz values")
    return gap_delta(mu_values, mu_target, exclude=range(k))


def bound_factors(mu: float, eta: float, delta: float) -> tuple[float, float]:
    """The two factors of the projection bounds and their rates, for the
    reciprocal Ritz value mu that the bound reads (mu_1 for a single pair,
    mu_{k+1} for a block), the duality constant eta and the gap delta:
    theta = sqrt(1 + mu eta^2 / delta^2) and eta_{K,i} = (1 + mu / delta) eta."""
    return math.sqrt(1.0 + mu * eta * eta / (delta * delta)), (1.0 + mu / delta) * eta


def _closest_mu_index(mu_values: np.ndarray, mu: float) -> tuple[int, bool]:
    d = np.abs(mu_values - mu)
    i = int(np.argmin(d))
    tie = bool(np.sum(np.isclose(d, d[i], rtol=1e-12, atol=0.0)) > 1)
    return i, tie


def spectral_projection(ritzset: RitzSet, A: SparseSymMatrix, x: np.ndarray,
                        indices: Sequence[int]) -> np.ndarray:
    """A-orthogonal projection of x onto the span of the selected Ritz vectors."""
    U = ritzset.vectors[:, list(indices)]
    return U @ (U.T @ A.matvec(x))


def _a_orthonormal(A: SparseSymMatrix, K: Basis) -> np.ndarray:
    """An A-orthonormal basis of span(K): K's own columns when K is one
    already (K.weight is A), so a caller that A-orthonormalizes K once can
    hand that basis to every bound, else orthonormalize's."""
    return K.columns if K.weight is A else orthonormalize(K.columns, weight=A).columns


def energy_bound_single(
    A: SparseSymMatrix,
    M: Optional[SparseSymMatrix],
    K: Basis,
    lam: float,
    u: np.ndarray,
    ritzset: RitzSet,
    i: Optional[int] = None,
    eta: Optional[float] = None,
) -> BoundReport:
    """Single-pair energy and L2 error bounds against the Ritz pair whose
    reciprocal value is closest to 1/lam (ties broken to the smaller index).
    K is A-orthonormalized for the best-approximation error unless it is
    A-orthonormal already (K.weight is A)."""
    mu = 1.0 / lam
    tie = False
    if i is None:
        i, tie = _closest_mu_index(ritzset.mu_values, mu)
    delta = gap_delta(ritzset.mu_values, mu, exclude=(i,))
    if delta == 0.0:
        raise DegenerateGapError("coincident reciprocal Ritz values make the bound vacuous")
    if eta is None:
        eta = EtaOracle(A, M).eta(K)
    theta, eta_ki = bound_factors(float(ritzset.mu_values[0]), eta, delta)

    Eu = spectral_projection(ritzset, A, u, [i])
    err = u - Eu
    lhs_energy = norm(err, A)
    V = _a_orthonormal(A, K)
    proj_err = u - V @ (V.T @ A.matvec(u))
    rhs_energy = theta * norm(proj_err, A)
    lhs_l2 = norm(err, M)
    rhs_l2 = eta_ki * lhs_energy
    return BoundReport(
        eta_K=eta, delta=delta, theta=theta, eta_Ki=eta_ki,
        lhs_energy=lhs_energy, rhs_energy=rhs_energy,
        lhs_l2=lhs_l2, rhs_l2=rhs_l2, index=i, tie=tie,
    )


def energy_bound_block(
    A: SparseSymMatrix,
    M: Optional[SparseSymMatrix],
    K: Basis,
    exact: ExactEigenSet,
    ritzset: RitzSet,
    k: int,
    eta: Optional[float] = None,
) -> list[BoundReport]:
    """Per-pair bounds for the first k eigenpairs against the block spectral
    projection onto the first k Ritz vectors (needs m > k).  K is
    A-orthonormalized once, unless it is A-orthonormal already (K.weight
    is A)."""
    if ritzset.m <= k:
        raise DegenerateGapError(f"block bounds need m > k, got m={ritzset.m}, k={k}")
    if eta is None:
        eta = EtaOracle(A, M).eta(K)
    mu_k1 = float(ritzset.mu_values[k])
    V = _a_orthonormal(A, K)
    reports = []
    for i in range(k):
        lam_i = float(exact.values[i])
        u_i = exact.vectors[:, i]
        delta = gap_delta_block(ritzset.mu_values, 1.0 / lam_i, k)
        if delta == 0.0:
            raise DegenerateGapError("coincident reciprocal Ritz values make the bound vacuous")
        theta, eta_kki = bound_factors(mu_k1, eta, delta)
        err = u_i - spectral_projection(ritzset, A, u_i, range(k))
        lhs_energy = norm(err, A)
        rhs_energy = theta * norm(u_i - V @ (V.T @ A.matvec(u_i)), A)
        reports.append(BoundReport(
            eta_K=eta, delta=delta, theta=theta, eta_Ki=eta_kki,
            lhs_energy=lhs_energy, rhs_energy=rhs_energy,
            lhs_l2=norm(err, M), rhs_l2=eta_kki * lhs_energy, index=i,
        ))
    return reports


def strang_residual(
    A: SparseSymMatrix,
    M: Optional[SparseSymMatrix],
    K: Basis,
    lams: np.ndarray,
    U: np.ndarray,
    ritzset: RitzSet,
) -> np.ndarray:
    """Residuals of the projected-pair identity for p pairs against the p_r
    lifted Ritz vectors (p_r = ritzset.vectors.shape[1], all m for ritz):
    the p x p_r matrix with entries
    |(lam_j~ - lam_i)(P_K u_i, u_j~) - lam_i(u_i - P_K u_i, u_j~)| in the
    L2/M metric, for the values lams and the n x p block U.  Every entry
    vanishes to round-off for exact eigenpairs.  K is A-orthonormalized
    once, unless it is A-orthonormal already (K.weight is A), and the whole
    block is projected with one product."""
    lams = np.asarray(lams, dtype=float)
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[1] != lams.size:
        raise DimensionMismatchError(
            f"{lams.size} values need an n x {lams.size} block, got shape {U.shape}")
    V = _a_orthonormal(A, K)
    PU = V @ (V.T @ A.matvec(U))
    X = ritzset.vectors
    MX = X if M is None else M.matvec(X)
    lhs = (ritzset.values[None, :X.shape[1]] - lams[:, None]) * (PU.T @ MX)
    rhs = lams[:, None] * ((U - PU).T @ MX)
    return np.abs(lhs - rhs)


def rayleigh_quotient(
    A: SparseSymMatrix,
    M: Optional[SparseSymMatrix],
    psi: np.ndarray,
) -> float:
    """(A psi, psi) / (psi, psi) with the M-weighted denominator for pencils."""
    psi = np.asarray(psi, dtype=float)
    denom = inner(psi, psi, M)
    if denom == 0.0:
        raise DimensionMismatchError("Rayleigh quotient of the zero vector")
    return inner(psi, A.matvec(psi)) / denom
