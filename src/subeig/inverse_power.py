"""Inverse power iteration on an enriched subspace: one step for the block
and the single-vector variant, with measured and theoretical
contraction-factor tracking."""

from __future__ import annotations

import functools
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

# solve(B, tol=None) solves A X = B for an n x p block of independent
# right-hand sides, returning X of B's shape: to relative residual tol_j in
# column j (tol a scalar or one value per column), or by the solver's own
# stop without tol.
InnerSolve = Callable[..., np.ndarray]

_ERROR_FLOOR = 1e-8  # below this the contraction ratio is round-off noise

# The stagnation rule of ipm_run, which cli's cause line restates: a run is
# stagnant after STALL_WINDOW steps in a row in which neither the worst
# residual nor any Ritz value fell below (1 - STALL_RTOL) times its best.
STALL_WINDOW = 5
STALL_RTOL = 1e-12

# An untracked step whose worst residual is more than this times the last
# step's hands the next step [U + E, U, U_prev] instead of U + E, with
# U_prev the last step's Ritz vectors: Rayleigh-Ritz on
# K + span(U + E, U, U_prev) holds the three-term space of LOBPCG
# (Knyazev, SIAM J. Sci. Comput. 23(2), 2001), span{x_(i-1), x_i, w_i},
# and can only lower every Ritz value.  The constant sits in a measured
# gap.  Fast runs cut their worst residual by a ratio of at most 0.10 per
# step (gmg2d at seeds 0-7) or 0.144 (GMG at n = 16129, k = 4/8/16, before
# the last step); there a wider space costs time and saves no step
# (n = 16129, k = 16, [U + E, U, U_prev] at every step: 8 -> 11 steps,
# ipm_run 1.0 -> 3.2 s).  Slow runs settle at ratios of 0.31 or more (amg2d, the
# m = 49 GMG default at n = 961, AMG at n = 3969 and 16129) or split a
# near-degenerate pair; there it cuts the steps by a third or more (AMG
# at n = 3969, k = 4: 45 -> 15) and lets k cut a cluster (k = 2 on the
# m = 49 default at n = 961: 10 steps, where the plain step and the
# two-term space [U + E, U] end max_iter after 50).
#
# From the step after the first slow one, a block run also follows
# g = min(k, _GUARD_PAIRS) guard pairs, the next Ritz pairs above the k
# wanted ones (fewer when k + g + dim K would exceed n): its inner solve
# and the widened block carry k + g columns, while the convergence and
# stall tests and the records read the k wanted pairs alone.  Guard
# vectors are the classic remedy for slow block convergence (Saad,
# Numerical Methods for Large Eigenvalue Problems, 2nd ed., SIAM 2011):
# the block's rate is set by the gap to the pair above the last one it
# follows.  Measured, each with the same eigenvalues to 3e-13 relative:
# amg2d 11 -> 9 steps at seeds 0-7; AMG at n = 225, k = 2: 24 -> 12; AMG
# at n = 3969, k = 3/4: 12/15 -> 10/12; AMG at n = 16129, k = 4: 14 -> 11;
# the m = 49 GMG default at n = 961, k = 2/4: 10/9 -> 9/8; GMG at
# n = 16129, m = 961, k = 32: 11 -> 9.  There g = k saves one more step
# but costs time: 8 steps and ipm_run 5.1 s, against 9 steps and 4.3 s.
_SLOW_CONTRACTION = 0.2
_GUARD_PAIRS = 4


@dataclass
class IpmConfig:
    """Outer-iteration configuration.

    inner_solve(B, tol=None) solves A X = B for an n x p block of
    independent right-hand sides, one call per step: p = k in block mode
    (k + g once guard pairs join, see below), p = 1 in single mode.  The step that converges makes no call unless the
    run tracks the energy error (track_exact), which needs its new iterate.
    Every step starts from its Ritz vectors U: B is their residual block
    R = lam M U - A U, and the new iterate is X = U + E for the solution E
    of A E = R, which is lam A^{-1} M U when E is exact.  A tracked run
    (track_exact within the dense limit), and any run on the built-in CG
    (inner_solve None), passes the per-column tolerance
    tol_j = inner_tol ||lam_j M u_j|| / ||r_j||, so every column meets
    ||lam M u - A x|| <= inner_tol ||lam M u|| and the exact-inner rates a
    tracked run records certify the steps that ran.  Other runs call
    inner_solve(R) and the solver applies its own stop: the multigrid
    VCycleSolver.solve cuts the residual 100-fold, a correction that
    shrinks as the Ritz vectors converge.  Either way the run stops on the
    residual of each Ritz pair.  An untracked ipm_run step that contracts
    slowly (_SLOW_CONTRACTION) also hands on U and the last step's Ritz
    vectors U_prev, so the next space is K + span(U + E, U, U_prev), and
    from the next step on a block run follows g = min(k, _GUARD_PAIRS)
    guard pairs above the k wanted ones: its inner-solve calls then take
    n x (k + g) blocks.  Tracked runs and ipm_block_step keep
    K + span(U + E) and k columns.
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0 (--seed), got {self.seed}")
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


def _enriched_ritz(
    A: SparseSymMatrix,
    M: Optional[SparseSymMatrix],
    K: Basis | CoarseSpace,
    U: np.ndarray,
    count: Optional[int] = None,
    vectors: Optional[int] = None,
    shifts: Optional[np.ndarray] = None,
) -> RitzSet:
    """Ritz pairs of span(K) + span(U): the count lowest Ritz values and the
    vectors (default count) lowest Ritz vectors, every pair when count is
    None; shifts, near the wanted Ritz values, are passed on to
    dense.bordered_sym_eig.

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
    count = rank if count is None else count
    vals, Z = dense.bordered_sym_eig(space.theta, space.restrict(AQ), 0.5 * (D + D.T),
                                     count, count if vectors is None else vectors, shifts)
    X = space.prolong(Z[:m]) + Q @ Z[m:]
    X /= column_norms(X, A.matvec(X))
    return RitzSet(values=vals, vectors=_fix_signs(X), m=rank)


def _positions(cfg: IpmConfig) -> list[int]:
    """Positions of the Ritz pairs a step follows: the k lowest in block
    mode, target_index alone in single mode."""
    return list(range(cfg.k)) if cfg.mode == "block" else [cfg.target_index]


def _residuals(
    A: SparseSymMatrix,
    M: Optional[SparseSymMatrix],
    rs: RitzSet,
    idx: list[int],
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """The residual block R = lam M U - A U of the Ritz pairs (lam, U) at
    positions idx, the column norms of lam M U, and the relative residuals
    ||r_j|| / (lam_j ||u_j||), in Euclidean norms."""
    U = rs.vectors[:, idx]
    lam = rs.values[idx]
    LMU = lam * (U if M is None else M.matvec(U))
    R = LMU - A.matvec(U)
    rel = np.sqrt(column_dots(R, R)) / (lam * np.sqrt(column_dots(U, U)))
    return R, np.sqrt(column_dots(LMU, LMU)), rel.tolist()


def _step_ritz(
    A: SparseSymMatrix,
    M: Optional[SparseSymMatrix],
    K: Basis | CoarseSpace,
    U_prev: np.ndarray,
    cfg: IpmConfig,
    gap: bool = True,
    shifts: Optional[np.ndarray] = None,
    guard: int = 0,
) -> RitzSet:
    """The Ritz set of span(K) + span(U_prev) that a step needs: the
    Ritz vectors it follows and the guard pairs above them, their Ritz
    values and, with gap, the next Ritz value."""
    top = _positions(cfg)[-1]
    width = top + 1 + guard
    rs = _enriched_ritz(A, M, K, U_prev, width + 1 if gap else width, width, shifts)
    if rs.m <= top:
        need = f"k = {cfg.k}" if cfg.mode == "block" else f"target_index {top} + 1"
        raise DegenerateGapError(f"enriched space has rank {rs.m} < {need}")
    return rs


def _inverse_power_solve(
    A: SparseSymMatrix,
    U: np.ndarray,
    cfg: IpmConfig,
    R: np.ndarray,
    lmu_norms: np.ndarray,
    exact: bool,
) -> np.ndarray:
    """The new (un-normalized) iterate columns X = U + E of the followed
    Ritz vectors U, E from one inner solve of A E = R on the n x p residual
    block R = lam M U - A U; in exact arithmetic X = lam A^{-1} M U.  When
    exact, or on the built-in CG, the solve gets the per-column tolerance
    inner_tol ||lam M u_j|| / ||r_j||, so that ||lam M u_j - A x_j|| <=
    inner_tol ||lam M u_j||; a zero r_j needs no solve and gets tol 1, which
    the zero start meets."""
    if not exact and cfg.inner_solve is not None:
        return U + cfg.inner_solve(R)
    r = np.sqrt(column_dots(R, R))
    tol = np.divide(cfg.inner_tol * lmu_norms, r, out=np.ones_like(r), where=r > 0.0)
    solve = cfg.inner_solve or functools.partial(cg_solve, A)
    return U + solve(R, tol=tol)


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
    solve on the n x p residual block of the followed pairs, to inner_tol
    when cfg.track_exact (see IpmConfig).  ipm_run passes the CoarseSpace
    it builds once; given a Basis, the step builds it itself.
    """
    rs = _step_ritz(A, M, K, U_prev, cfg)
    idx = _positions(cfg)
    R, lmu_norms, _ = _residuals(A, M, rs, idx)
    return rs, _inverse_power_solve(A, rs.vectors[:, idx], cfg, R, lmu_norms,
                                    cfg.track_exact)


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
    stagnant when for STALL_WINDOW steps in a row neither the worst residual
    nor any Ritz value fell below its best so far.  Each step starts from
    the last one's Ritz pairs: its inner solve corrects their vectors, and
    its projected eigensolve takes their values as first shifts.  When an
    untracked step's worst residual is more than _SLOW_CONTRACTION times the
    last step's, the next step's space also keeps the step's Ritz vectors U
    and the last step's U_prev: Rayleigh-Ritz on K + span(U + E, U, U_prev)
    rather than K + span(U + E).  The first step, the second (which has no
    earlier step to compare with) and every step of a tracked run take the
    paper's space, so the rates a tracked run records are those of the
    paper's step.  From the step after the first slow one, a block run
    follows the k + g lowest Ritz pairs, g = min(k, _GUARD_PAIRS) guard
    pairs capped so that k + g + dim K <= n, and corrects all k + g of them;
    the convergence and stall tests, the records and so final_values read
    the k wanted pairs only.  Fast runs never trip the test, so they, like
    Algorithm 2 and tracked runs, follow k pairs throughout."""
    cfg.validate(A.n, K.dim)
    idx = _positions(cfg)
    k = len(idx)
    U = np.asarray(seeded_start(A.n, k, M, cfg.seed) if U0 is None else U0, dtype=float)
    if U.shape != (A.n, k):
        raise ConfigError(f"U0 has shape {U.shape}; expected (n, k) = ({A.n}, {k})")
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
    shifts = None
    last_worst = math.inf
    guard = 0  # pairs followed above the k wanted ones
    for ell in range(1, cfg.max_outer + 1):
        # the rates of a tracked run read the gap above the followed pairs
        rs = _step_ritz(A, M, space, U, cfg, gap=track, shifts=shifts, guard=guard)
        shifts = rs.values
        lam = rs.values[idx]
        follow = idx + list(range(k, min(k + guard, rs.m)))
        R, lmu_norms, res = _residuals(A, M, rs, follow)
        res = res[:k]
        worst = max(res)
        converged = worst <= cfg.residual_tol
        ritz_vectors = rs.vectors[:, follow]
        # the converging step's iterate is needed only for its energy error
        if track or not converged:
            U_next = _inverse_power_solve(A, ritz_vectors, cfg, R, lmu_norms, track)

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
        if worst < best_res * (1.0 - STALL_RTOL) or np.any(lam < best_lam * (1.0 - STALL_RTOL)):
            since_best = 0
        else:
            since_best += 1
            if since_best >= STALL_WINDOW:
                report.status = "stagnation"
                return report
        best_res, best_lam = min(best_res, worst), np.minimum(best_lam, lam)
        if not track and ell > 1 and worst > _SLOW_CONTRACTION * last_worst:
            # keep this step's and the last step's Ritz vectors: the next
            # space is K + span(U + E, U, U_prev); a block run follows
            # guard pairs from the next step on
            U_next = np.hstack([U_next, ritz_vectors, U_prev])
            if cfg.mode == "block" and not guard:
                guard = min(k, _GUARD_PAIRS, A.n - k - space.dim)
        last_worst = worst
        U, U_prev = U_next, ritz_vectors
    report.status = "max_iter"
    return report
