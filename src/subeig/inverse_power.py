"""Inverse power iteration on an enriched subspace: one step for the block
and the single-vector variant, with measured and theoretical
contraction-factor tracking."""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import dense
from .core import (
    DENSE_LIMIT,
    DROP_TOL,
    Basis,
    CoarseSpace,
    SparseSymMatrix,
    cg_solve,
    column_dots,
    column_norms,
    orthonormalize,
)
from .exceptions import ConfigError, DegenerateGapError
from .projection import (
    EtaOracle,
    RitzSet,
    _fix_signs,
    bound_factors,
    gap_delta,
    gap_delta_block,
    ritz_space,
)

# Solves A X = B for an n x p block of independent right-hand sides,
# returning X of B's shape.
InnerSolve = Callable[[np.ndarray], np.ndarray]

_ERROR_FLOOR = 1e-8  # below this the contraction ratio is round-off noise


@dataclass
class IpmConfig:
    """Outer-iteration configuration.

    inner_solve solves A X = B for an n x p block of independent
    right-hand sides, one call per step: p = k in block mode, p = 1 in
    single mode.  The step that converges makes no call unless the run
    tracks the energy error (track_exact), which needs its new iterate.
    The right-hand sides lam M u converge with the outer iteration, so a
    solver that keeps state between calls may start from its earlier
    solutions: the multigrid VCycleSolver.solve (gmg_eigensolve, the CLI's
    gmg and amg sources) starts PCG from the A-orthogonal projection onto
    the span of its earlier solution blocks.  Called without a tolerance,
    as by untracked CLI runs, it solves inexactly: each column stops once
    it has cut the residual of that warm start 100-fold, a stop that
    tightens as the outer iteration converges.  gmg_eigensolve, the verify
    suites and tracked CLI runs pass inner_tol, so the exact-inner rates
    they record certify the steps that ran.  Either way the run stops on
    the residual of each Ritz pair.  When None a tight, cold-started CG is
    used so the inner error stays negligible against the outer
    contraction.
    """

    k: int = 1
    max_outer: int = 50
    residual_tol: float = 1e-10
    inner_tol: float = 1e-12
    inner_solve: Optional[InnerSolve] = None
    track_exact: bool = False
    mode: str = "block"  # "block" (Algorithm 1) or "single" (Algorithm 2)
    target_index: int = 0  # single mode: position of the followed Ritz pair
    seed: int = 0

    def validate(self, n: int, k_dim: int) -> None:
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.max_outer < 1:
            raise ConfigError("max_outer must be >= 1")
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
            return None if x is None else float(x)

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
    K: Basis | CoarseSpace,
    U: np.ndarray,
    count: Optional[int] = None,
) -> RitzSet:
    """Ritz pairs of span(K) + span(U): the count + 1 lowest Ritz values and
    the count lowest Ritz vectors (every pair when count is None).

    K enters only through its Ritz basis V = P Y (ritz_space), which is
    never formed.  Only the k columns of U are orthonormalized: projected
    against K twice (block CGS2 in the M inner product), dropped when the
    residual falls below DROP_TOL times the column's M-norm, orthonormalized
    among themselves and projected against K once more.  The projected
    matrix is diag(theta) bordered by the new columns Q: C = V^T A Q and
    D = Q^T A Q, solved by dense.bordered_sym_eig; the Ritz vectors are
    lifted as P (Y y_V) + Q z.
    """
    space = ritz_space(A, M, K)
    U = np.asarray(U, dtype=float)
    original = column_norms(U, U if M is None else M.matvec(U))
    R = space.project_out(space.project_out(U))
    residual = column_norms(R, R if M is None else M.matvec(R))
    keep = (original > 0.0) & (residual >= DROP_TOL * original)
    if keep.any():
        Q = space.project_out(orthonormalize(R[:, keep], weight=M).columns)
    else:
        Q = np.zeros((A.n, 0))
    AQ = A.matvec(Q)
    D = Q.T @ AQ
    m, rank = space.dim, space.dim + Q.shape[1]
    wanted = rank if count is None else min(count, rank)
    vals, Z = dense.bordered_sym_eig(space.theta, space.restrict(AQ),
                                     0.5 * (D + D.T), wanted + 1, wanted)
    X = space.prolong(Z[:m]) + Q @ Z[m:]
    X /= column_norms(X, A.matvec(X))
    return RitzSet(values=vals, vectors=_fix_signs(X), mu_values=1.0 / vals,
                   rank=rank)


def _positions(cfg: IpmConfig) -> list[int]:
    """Positions of the Ritz pairs a step follows: the k lowest in block
    mode, target_index alone in single mode."""
    return list(range(cfg.k)) if cfg.mode == "block" else [cfg.target_index]


def _residuals(
    A: SparseSymMatrix,
    M: Optional[SparseSymMatrix],
    rs: RitzSet,
    idx: list[int],
) -> list[float]:
    """||A u - lam M u|| / (lam ||u||) for the Ritz pairs at positions idx,
    in Euclidean norms."""
    U = rs.vectors[:, idx]
    lam = rs.values[idx]
    R = A.matvec(U) - lam * (U if M is None else M.matvec(U))
    return (np.sqrt(column_dots(R, R)) / (lam * np.sqrt(column_dots(U, U)))).tolist()


def _step_ritz(
    A: SparseSymMatrix,
    M: Optional[SparseSymMatrix],
    K: Basis | CoarseSpace,
    U_prev: np.ndarray,
    cfg: IpmConfig,
) -> RitzSet:
    """The Ritz set of span(K) + span(U_prev) that a step needs."""
    top = _positions(cfg)[-1]
    rs = _enriched_ritz(A, M, K, U_prev, top + 1)
    if rs.m <= top:
        need = f"k = {cfg.k}" if cfg.mode == "block" else f"target_index {top} + 1"
        raise DegenerateGapError(f"enriched space has rank {rs.m} < {need}")
    return rs


def _inverse_power_solve(
    A: SparseSymMatrix,
    M: Optional[SparseSymMatrix],
    rs: RitzSet,
    cfg: IpmConfig,
) -> np.ndarray:
    """The new (un-normalized) iterate columns lam A^{-1} M u of the
    followed Ritz pairs: one inner solve on their n x p block."""
    idx = _positions(cfg)
    lam = rs.values[idx]
    solve = cfg.inner_solve or _default_inner_solve(A, cfg.inner_tol)
    rhs = rs.vectors[:, idx] * lam[None, :]
    if M is not None:
        rhs = M.matvec(rhs)
    return solve(rhs)


def ipm_block_step(
    A: SparseSymMatrix,
    M: Optional[SparseSymMatrix],
    K: Basis | CoarseSpace,
    U_prev: np.ndarray,
    cfg: IpmConfig,
) -> tuple[RitzSet, np.ndarray]:
    """One step of Algorithm 1 (block) or Algorithm 2 (single): enrich,
    project, inverse-power solve.

    The step follows the Ritz pairs of span(K) + span(U_prev) at the
    positions p = 0..k-1 (block) or p = target_index (single), so Algorithm
    2 follows its target by the minimax ordering rather than by overlap
    with U_prev.  Returns the Ritz set of the enriched space, with its
    top + 2 lowest Ritz values (top the highest followed position: the gaps
    of the rates are attained at or below top + 1) and its top + 1 lowest
    Ritz vectors, and the new (un-normalized) iterate columns: one inner
    solve on the n x p block of right-hand sides of the followed pairs.
    ipm_run passes the CoarseSpace it builds once; given a Basis, the step
    builds it itself.
    """
    rs = _step_ritz(A, M, K, U_prev, cfg)
    return rs, _inverse_power_solve(A, M, rs, cfg)


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
    theta, eta_kkk = bound_factors(float(rs.mu_values[k]), eta, delta)
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
    theta * sqrt(lam * lam_sel^{new} / lam_1) * eta_{K,i}, with
    eta_{K,i} = (1 + mu_1^{new} / delta) eta as in energy_bound_single."""
    delta = gap_delta(rs.mu_values, 1.0 / lam_exact, exclude=(sel,))
    if delta == 0.0:
        raise DegenerateGapError("zero reciprocal gap in single rate")
    theta, eta_ki = bound_factors(float(rs.mu_values[0]), eta, delta)
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
    K: Basis | CoarseSpace,
    U0: Optional[np.ndarray],
    cfg: IpmConfig,
) -> IterationReport:
    """Outer loop around Algorithm 1 (block) or Algorithm 2 (single).

    The run stops as converged when the worst residual of a step's Ritz
    pairs reaches cfg.residual_tol; that step makes its inner solve only
    when track_exact needs the new iterate's energy error.  It stops as
    stagnant when for 5 steps in a row neither the worst residual nor any
    Ritz value fell below its best so far."""
    cfg.validate(A.n, K.dim)
    idx = _positions(cfg)
    k = len(idx)
    if U0 is None:
        U0 = seeded_start(A.n, k, M, cfg.seed)
    U = np.atleast_2d(np.asarray(U0, dtype=float))
    if U.shape[0] != A.n:
        U = U.T
    if U.shape[1] != k:
        raise ConfigError(f"U0 has {U.shape[1]} columns, expected {k}")
    if not U.any():
        raise ConfigError("U0 must be nonzero")

    report = IterationReport(k=k, seed=cfg.seed)
    track = cfg.track_exact
    if track and A.n > DENSE_LIMIT:
        warnings.warn(f"track_exact ignored: n = {A.n} exceeds the dense limit "
                      f"{DENSE_LIMIT}", RuntimeWarning, stacklevel=2)
        track = False
    if track:
        oracle = EtaOracle(A, M)
        exact = oracle.exact
        exact_block = exact.vectors[:, idx]
        prev_err = energy_error(A, exact_block, U)

    space = ritz_space(A, M, K)
    best_res, best_lam = math.inf, np.full(k, math.inf)
    since_best = 0
    for ell in range(1, cfg.max_outer + 1):
        rs = _step_ritz(A, M, space, U, cfg)
        lam = rs.values[idx]
        res = _residuals(A, M, rs, idx)
        worst = max(res)
        converged = worst <= cfg.residual_tol
        # the converging step's iterate is needed only for its energy error
        if track or not converged:
            U_next = _inverse_power_solve(A, M, rs, cfg)

        rec = IterationRecord(ell=ell, lambdas=[float(v) for v in lam],
                              residuals=[float(r) for r in res])
        if track:
            err = energy_error(A, exact_block, U_next)
            rec.energy_err = err
            if prev_err > _ERROR_FLOOR:
                rec.measured_rate = err / prev_err
            eta = oracle.eta(K, U)
            try:
                if cfg.mode == "block":
                    rec.theo_rate = theoretical_rate_block(exact.values, rs, k, eta)
                else:
                    rec.theo_rate = theoretical_rate_single(
                        float(exact.values[idx[0]]), float(exact.values[0]), rs,
                        idx[0], eta)
            except DegenerateGapError:
                rec.theo_rate = None
            prev_err = err
        report.records.append(rec)

        if converged:
            report.status = "converged"
            return report
        if worst < best_res * (1.0 - 1e-12) or np.any(lam < best_lam * (1.0 - 1e-12)):
            since_best = 0
        else:
            since_best += 1
            if since_best >= 5:
                report.status = "stagnation"
                return report
        best_res, best_lam = min(best_res, worst), np.minimum(best_lam, lam)
        U = U_next
    report.status = "max_iter"
    return report
