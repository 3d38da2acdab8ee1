"""Inverse power iteration on an enriched subspace: block and single-vector
variants, with measured and theoretical contraction-factor tracking."""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (
    DENSE_LIMIT,
    Basis,
    SparseSymMatrix,
    cg_solve,
    norm,
    orthonormalize,
)
from .exceptions import ConfigError, DegenerateGapError
from .projection import (
    EtaOracle,
    ExactEigenSet,
    RitzSet,
    exact_eigenset,
    gap_delta,
    gap_delta_block,
    ritz,
)

InnerSolve = Callable[[np.ndarray], np.ndarray]

_ERROR_FLOOR = 1e-8  # below this the contraction ratio is round-off noise


@dataclass
class IpmConfig:
    """Outer-iteration configuration.

    inner_solve solves A x = b; when None a tight CG is used so the inner
    error stays negligible against the outer contraction.
    """

    k: int = 1
    max_outer: int = 50
    residual_tol: float = 1e-10
    inner_tol: float = 1e-12
    inner_solve: Optional[InnerSolve] = None
    track_exact: bool = False
    mode: str = "block"  # "block" (Algorithm 1) or "single" (Algorithm 2)
    target_index: int = 0  # single mode: which exact pair the start is near
    seed: int = 0
    dense_limit: int = DENSE_LIMIT

    def validate(self, n: int, k_dim: int) -> None:
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.residual_tol <= 0 or self.inner_tol <= 0:
            raise ConfigError("tolerances must be positive")
        if self.k + k_dim > n:
            raise ConfigError(f"k + dim(K) = {self.k + k_dim} exceeds n = {n}")
        if self.mode not in ("block", "single"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.mode == "single" and not 0 <= self.target_index < n:
            raise ConfigError(f"target_index {self.target_index} out of range 0..{n - 1}")


@dataclass
class IterationRecord:
    ell: int
    lambdas: list[float]
    residuals: list[float]
    energy_err: Optional[float] = None
    measured_rate: Optional[float] = None
    theo_rate: Optional[float] = None


@dataclass
class IterationReport:
    k: int
    seed: int
    status: str = "running"  # converged | stagnation | max_iter
    records: list[IterationRecord] = field(default_factory=list)

    @property
    def final_values(self) -> np.ndarray:
        return np.array(self.records[-1].lambdas)

    def to_json(self) -> str:
        def fmt(x):
            return None if x is None else float(f"{x:.17g}")

        payload = {
            "k": self.k,
            "seed": self.seed,
            "status": self.status,
            "iterations": [
                {
                    "ell": r.ell,
                    "lambda": [fmt(v) for v in r.lambdas],
                    "res": [fmt(v) for v in r.residuals],
                    "energy_err": fmt(r.energy_err),
                    "measured_rate": fmt(r.measured_rate),
                    "theo_rate": fmt(r.theo_rate),
                }
                for r in self.records
            ],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def to_csv(self) -> str:
        k = self.k
        header = (
            ["ell"]
            + [f"lambda_{i + 1}" for i in range(k)]
            + [f"res_{i + 1}" for i in range(k)]
            + ["energy_err", "measured_rate", "theo_rate"]
        )
        lines = [",".join(header)]
        for r in self.records:
            cells = [str(r.ell)]
            cells += [f"{v:.17g}" for v in r.lambdas]
            cells += [f"{v:.17g}" for v in r.residuals]
            for v in (r.energy_err, r.measured_rate, r.theo_rate):
                cells.append("" if v is None else f"{v:.17g}")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _default_inner_solve(A: SparseSymMatrix, tol: float) -> InnerSolve:
    return lambda b: cg_solve(A, b, tol=tol)


def _enriched_ritz(
    A: SparseSymMatrix,
    M: Optional[SparseSymMatrix],
    K: Basis,
    U: np.ndarray,
) -> RitzSet:
    """Ritz pairs of span(K) + span(U)."""
    W = np.column_stack([K.columns, U])
    return ritz(A, M, orthonormalize(W, weight=M))


def _residuals(
    A: SparseSymMatrix,
    M: Optional[SparseSymMatrix],
    rs: RitzSet,
    count: int,
    indices: Optional[list[int]] = None,
) -> list[float]:
    out = []
    for idx in indices if indices is not None else range(count):
        u = rs.vectors[:, idx]
        lam = float(rs.values[idx])
        r = A.matvec(u) - lam * (u if M is None else M.matvec(u))
        out.append(norm(r) / (lam * norm(u)))
    return out


def ipm_block_step(
    A: SparseSymMatrix,
    M: Optional[SparseSymMatrix],
    K: Basis,
    U_prev: np.ndarray,
    cfg: IpmConfig,
) -> tuple[RitzSet, np.ndarray]:
    """One step of the block iteration: enrich, project, inverse-power solve.

    Returns the full Ritz set of the enriched space (the gap terms of the
    bounds need all of it) and the new (un-normalized) iterate columns, one
    inner solve for each of the k smallest Ritz pairs.
    """
    rs = _enriched_ritz(A, M, K, U_prev)
    k = cfg.k
    if rs.m < k:
        raise DegenerateGapError(f"enriched space has rank {rs.m} < k = {k}")
    lam = rs.values[:k]
    solve = cfg.inner_solve or _default_inner_solve(A, cfg.inner_tol)
    rhs = rs.vectors[:, :k] * lam[None, :]
    if M is not None:
        rhs = M.matvec(rhs)
    U_next = np.column_stack([solve(rhs[:, i]) for i in range(k)])
    return rs, U_next


def ipm_single_step(
    A: SparseSymMatrix,
    M: Optional[SparseSymMatrix],
    K: Basis,
    u_prev: np.ndarray,
    cfg: IpmConfig,
) -> tuple[float, np.ndarray, int, RitzSet]:
    """One step of the single-vector iteration.

    The Ritz vector with the biggest orthogonal projection onto u_prev
    (M-weighted, ties to the lower index) is selected.  Returns
    (lambda, u_next, selected index, full enriched RitzSet).
    """
    if norm(u_prev) == 0.0:
        raise ConfigError("u_prev must be nonzero")
    rs = _enriched_ritz(A, M, K, u_prev[:, None])
    Mu = u_prev if M is None else M.matvec(u_prev)
    nu = math.sqrt(float(u_prev @ Mu))
    overlaps = np.empty(rs.m)
    for j in range(rs.m):
        uj = rs.vectors[:, j]
        overlaps[j] = abs(float(uj @ Mu)) / (norm(uj, M) * nu)
    sel = int(np.argmax(overlaps))  # argmax takes the first maximum on ties
    lam = float(rs.values[sel])
    u_tilde = rs.vectors[:, sel]
    solve = cfg.inner_solve or _default_inner_solve(A, cfg.inner_tol)
    rhs = lam * (u_tilde if M is None else M.matvec(u_tilde))
    u_next = solve(rhs)
    return lam, u_next, sel, rs


def theoretical_rate_block(
    exact_values: np.ndarray,
    rs: RitzSet,
    k: int,
    eta: float,
) -> float:
    """Bracketed one-step contraction factor for the block iteration:
    theta * sqrt(lam_k/lam_{k+1}) * sqrt(lam_k^{new}) * eta_{K,k,k}."""
    if rs.m <= k:
        raise DegenerateGapError("need more than k Ritz values for the block rate")
    mu_k = 1.0 / float(exact_values[k - 1])
    delta = gap_delta_block(rs.mu_values, mu_k, k)
    if delta == 0.0:
        raise DegenerateGapError("zero reciprocal gap in block rate")
    mu_k1_new = float(rs.mu_values[k])
    theta = math.sqrt(1.0 + mu_k1_new * eta * eta / (delta * delta))
    eta_kkk = (1.0 + mu_k1_new / delta) * eta
    return (
        theta
        * math.sqrt(float(exact_values[k - 1]) / float(exact_values[k]))
        * math.sqrt(float(rs.values[k - 1]))
        * eta_kkk
    )


def theoretical_rate_single(
    lam_exact: float,
    lam1_exact: float,
    rs: RitzSet,
    sel: int,
    eta: float,
) -> float:
    """One-step contraction factor for the single-vector iteration:
    theta * sqrt(lam * lam_sel^{new} / lam_1) * eta_{K,i}."""
    delta = gap_delta(rs.mu_values, 1.0 / lam_exact, exclude=(sel,))
    if delta == 0.0:
        raise DegenerateGapError("zero reciprocal gap in single rate")
    mu1_new = float(rs.mu_values[0])
    theta = math.sqrt(1.0 + mu1_new * eta * eta / (delta * delta))
    eta_ki = (1.0 + 1.0 / delta) * eta
    lam_new = float(rs.values[sel])
    return theta * math.sqrt(lam_exact * lam_new / lam1_exact) * eta_ki


def energy_error(
    A: SparseSymMatrix,
    exact_vectors: np.ndarray,
    U: np.ndarray,
) -> float:
    """sqrt(sum_i ||u_i - E u_i||_A^2) with E the A-orthogonal projection
    onto span(U); the exact columns must be A-normalized."""
    W = orthonormalize(U, weight=A).columns
    R = exact_vectors - W @ (W.T @ A.matvec(exact_vectors))
    total = float(np.sum(R * A.matvec(R)))
    return math.sqrt(max(total, 0.0))


def seeded_start(n: int, k: int, M: Optional[SparseSymMatrix], seed: int) -> np.ndarray:
    """Deterministic random M-orthonormal initial block."""
    rng = np.random.default_rng(seed)
    return orthonormalize(rng.uniform(-1.0, 1.0, size=(n, k)), weight=M).columns


def ipm_run(
    A: SparseSymMatrix,
    M: Optional[SparseSymMatrix],
    K: Basis,
    U0: Optional[np.ndarray],
    cfg: IpmConfig,
) -> IterationReport:
    """Outer loop around Algorithm 1 (block) or Algorithm 2 (single)."""
    cfg.validate(A.n, K.dim)
    k = cfg.k if cfg.mode == "block" else 1
    if U0 is None:
        U0 = seeded_start(A.n, k, M, cfg.seed)
    U = np.atleast_2d(np.asarray(U0, dtype=float))
    if U.shape[0] != A.n:
        U = U.T
    if U.shape[1] != k:
        raise ConfigError(f"U0 has {U.shape[1]} columns, expected {k}")

    report = IterationReport(k=k, seed=cfg.seed)
    track = cfg.track_exact
    if track and A.n > cfg.dense_limit:
        warnings.warn(f"track_exact ignored: n = {A.n} exceeds the dense limit "
                      f"{cfg.dense_limit}", RuntimeWarning, stacklevel=2)
        track = False
    exact = eta_oracle = None
    if track:
        exact = exact_eigenset(A, M, cfg.dense_limit)
        eta_oracle = EtaOracle(A, M, cfg.dense_limit)
        if cfg.mode == "block":
            exact_block = exact.vectors[:, :k]
        else:
            exact_block = exact.vectors[:, cfg.target_index : cfg.target_index + 1]
        prev_err = energy_error(A, exact_block, U)

    best_res = math.inf
    since_best = 0
    for ell in range(1, cfg.max_outer + 1):
        if cfg.mode == "block":
            full_rs, U_next = ipm_block_step(A, M, K, U, cfg)
            lam = full_rs.values[:k]
            res = _residuals(A, M, full_rs, k)
            sel_indices = list(range(k))
        else:
            lam_s, u_next, sel, full_rs = ipm_single_step(A, M, K, U[:, 0], cfg)
            lam = np.array([lam_s])
            U_next = u_next[:, None]
            res = _residuals(A, M, full_rs, 1, indices=[sel])
            sel_indices = [sel]

        rec = IterationRecord(ell=ell, lambdas=[float(v) for v in lam],
                              residuals=[float(r) for r in res])
        if track:
            err = energy_error(A, exact_block, U_next)
            rec.energy_err = err
            if prev_err > _ERROR_FLOOR:
                rec.measured_rate = err / prev_err
            eta = eta_oracle.eta(np.column_stack([K.columns, U]))
            try:
                if cfg.mode == "block":
                    rec.theo_rate = theoretical_rate_block(exact.values, full_rs, k, eta)
                else:
                    rec.theo_rate = theoretical_rate_single(
                        float(exact.values[cfg.target_index]),
                        float(exact.values[0]), full_rs, sel_indices[0], eta,
                    )
            except DegenerateGapError:
                rec.theo_rate = None
            prev_err = err
        report.records.append(rec)

        worst = max(res)
        if worst <= cfg.residual_tol:
            report.status = "converged"
            return report
        if worst < best_res * (1.0 - 1e-12):
            best_res = worst
            since_best = 0
        else:
            since_best += 1
            if since_best >= 5:
                report.status = "stagnation"
                return report
        U = U_next
    report.status = "max_iter"
    return report
