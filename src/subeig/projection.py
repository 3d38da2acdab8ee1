"""Rayleigh-Ritz projection and numerical evaluation of the energy/L2
error-bound quantities: the discrete duality constant, reciprocal-eigenvalue
gaps, spectral-projection errors and the Strang identity residual."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from . import dense
from .core import (
    DENSE_LIMIT,
    Basis,
    SparseSymMatrix,
    dense_sym_eig,
    dense_sym_eigvals,
    inner,
    norm,
    orthonormalize,
)
from .exceptions import (
    DegenerateGapError,
    DimensionMismatchError,
    EmptyBasisError,
)


@dataclass(frozen=True)
class RitzSet:
    """Ascending Ritz values with A-normalized lifted Ritz vectors."""

    values: np.ndarray  # ascending
    vectors: np.ndarray  # n x m, ||u_j||_A = 1
    mu_values: np.ndarray  # 1/values, descending

    @property
    def m(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class ExactEigenSet:
    """Oracle eigenpairs of the pencil, vectors A-orthonormal."""

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


def exact_eigenset(
    A: SparseSymMatrix,
    M: Optional[SparseSymMatrix] = None,
    dense_limit: int = DENSE_LIMIT,
) -> ExactEigenSet:
    """Dense oracle for the full spectrum of A u = lam M u, A-orthonormal."""
    if A.n > dense_limit:
        raise DimensionMismatchError(f"dimension {A.n} exceeds dense limit {dense_limit}")
    if M is None:
        res = dense_sym_eig(A.to_dense(), dense_limit)
        vals, X = res.values, res.vectors
    else:
        vals, X = dense.generalized_sym_eig(A.to_dense(), M.to_dense(), vectors=True)
    U = _fix_signs(X / np.sqrt(vals)[None, :])
    return ExactEigenSet(values=vals, vectors=U)


def ritz(A: SparseSymMatrix, M: Optional[SparseSymMatrix], K: Basis) -> RitzSet:
    """Projected eigenproblem on span(K), lifted and A-normalized.

    K is re-orthonormalized in the M metric when its Gram defect exceeds
    the basis tolerance, so the projected mass matrix is the identity.
    """
    V = K.columns
    defect = Basis(columns=V, metric="l2" if M is None else "weighted", weight=M).gram_defect()
    if defect > K.orthonormality_tol:
        V = orthonormalize(V, weight=M).columns
    Am = V.T @ A.matvec(V)
    small = dense_sym_eig(0.5 * (Am + Am.T))
    U = V @ small.vectors
    for j in range(U.shape[1]):
        U[:, j] /= norm(U[:, j], A)
    U = _fix_signs(U)
    vals = small.values
    return RitzSet(values=vals, vectors=U, mu_values=1.0 / vals)


def project(K: Basis, x: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto span(K) in the basis's tagged metric."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != K.n:
        raise DimensionMismatchError(f"vector length {x.shape[0]} != basis rows {K.n}")
    K.check()
    V = K.columns
    gx = x if K.weight is None else K.weight.matvec(x)
    return V @ (V.T @ gx)


def to_metric(K: Basis, weight: Optional[SparseSymMatrix]) -> Basis:
    """Re-orthonormalize the same subspace under a different inner product."""
    return orthonormalize(K.columns, weight=weight)


class EtaOracle:
    """Dense evaluator of the duality constant
    sup_{||g||=1} ||(I - P_K) A^{-1} g||_A (input norm M-weighted for a
    pencil).  Factorizations are cached so repeated subspaces are cheap."""

    def __init__(
        self,
        A: SparseSymMatrix,
        M: Optional[SparseSymMatrix] = None,
        dense_limit: int = DENSE_LIMIT,
    ):
        n = A.n
        if n > dense_limit:
            raise DimensionMismatchError(f"dimension {n} exceeds dense limit {dense_limit}")
        self.A = A
        self.Ad = A.to_dense()
        self.Ainv = dense.spd_inverse(self.Ad)
        self.LM = dense.cholesky(M.to_dense()) if M is not None else None

    def eta(self, K: Basis | np.ndarray) -> float:
        cols = K.columns if isinstance(K, Basis) else np.asarray(K, dtype=float)
        if cols.size == 0:
            raise EmptyBasisError("eta is undefined for an empty subspace")
        Va = orthonormalize(cols, weight=self.A).columns
        # (I - P_K) A^{-1} with P_K = Va Va^T A, and A A^{-1} = I
        C = self.Ainv - Va @ Va.T
        S = C.T @ (self.Ad @ C)
        if self.LM is not None:
            S = self.LM.T @ S @ self.LM
        lam_max = float(dense_sym_eigvals(0.5 * (S + S.T))[-1])
        return math.sqrt(max(lam_max, 0.0))


def eta_K_oracle(
    A: SparseSymMatrix,
    M: Optional[SparseSymMatrix],
    K: Basis,
    dense_limit: int = DENSE_LIMIT,
) -> float:
    """One-shot duality-constant evaluation via the dense oracle."""
    return EtaOracle(A, M, dense_limit).eta(K)


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
    reciprocal value is closest to 1/lam (ties broken to the smaller index)."""
    mu = 1.0 / lam
    tie = False
    if i is None:
        i, tie = _closest_mu_index(ritzset.mu_values, mu)
    delta = gap_delta(ritzset.mu_values, mu, exclude=(i,))
    if delta == 0.0:
        raise DegenerateGapError("coincident reciprocal Ritz values make the bound vacuous")
    if eta is None:
        eta = eta_K_oracle(A, M, K)
    mu1 = float(ritzset.mu_values[0])
    theta = math.sqrt(1.0 + mu1 * eta * eta / (delta * delta))
    eta_ki = (1.0 + mu1 / delta) * eta

    Eu = spectral_projection(ritzset, A, u, [i])
    err = u - Eu
    lhs_energy = norm(err, A)
    Ka = to_metric(K, A)
    proj_err = u - project(Ka, u)
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
    projection onto the first k Ritz vectors (needs m > k)."""
    if ritzset.m <= k:
        raise DegenerateGapError(f"block bounds need m > k, got m={ritzset.m}, k={k}")
    if eta is None:
        eta = eta_K_oracle(A, M, K)
    mu_k1 = float(ritzset.mu_values[k])
    Ka = to_metric(K, A)
    reports = []
    for i in range(k):
        lam_i = float(exact.values[i])
        u_i = exact.vectors[:, i]
        delta = gap_delta_block(ritzset.mu_values, 1.0 / lam_i, k)
        if delta == 0.0:
            raise DegenerateGapError("coincident reciprocal Ritz values make the bound vacuous")
        theta = math.sqrt(1.0 + mu_k1 * eta * eta / (delta * delta))
        eta_kki = (1.0 + mu_k1 / delta) * eta
        err = u_i - spectral_projection(ritzset, A, u_i, range(k))
        lhs_energy = norm(err, A)
        rhs_energy = theta * norm(u_i - project(Ka, u_i), A)
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
    lam: float,
    u: np.ndarray,
    ritzset: RitzSet,
    j: int,
) -> float:
    """|(lam_j~ - lam)(P_K u, u_j~) - lam(u - P_K u, u_j~)| in the L2/M metric;
    vanishes to round-off for exact eigenpairs."""
    Ka = to_metric(K, A)
    Pu = project(Ka, u)
    uj = ritzset.vectors[:, j]
    lhs = (float(ritzset.values[j]) - lam) * inner(Pu, uj, M)
    rhs = lam * inner(u - Pu, uj, M)
    return abs(lhs - rhs)


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
