"""Randomized verification harness: every error bound and convergence-rate
estimate in the library instantiated as a numeric lhs <= rhs check over
seeded trials, with deterministic report serialization and replay files."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import amg, gmg, inverse_power
from .core import SparseSymMatrix, norm, orthonormalize
from .exceptions import ConfigError
from .gmg import mean_rates as _rate_means
from .inverse_power import IpmConfig, energy_error, ipm_block_step, seeded_start
from .io import deterministic_json, read_json_object
from .projection import (
    EtaOracle,
    energy_bound_block,
    energy_bound_single,
    exact_eigenset,
    gap_delta,
    gap_delta_block,
    rayleigh_quotient,
    ritz,
    strang_residual,
)

PASS_RTOL = 1e-9
PASS_ATOL = 1e-12

GAP_SAFEGUARD = 1e-3

# The parameters each suite takes besides seed and trials, which run_suite
# passes on only when given; all runs each suite at its own size (no n).
_SUITE_PARAMS = {
    "projection": ("n", "m"),
    "inverse": ("n",),
    "gmg": ("n",),
    "amg": ("n", "nc_sweep", "ideal_only"),
    "all": ("m", "nc_sweep", "ideal_only"),
}
SUITES = tuple(_SUITE_PARAMS)


@dataclass(frozen=True)
class CheckResult:
    """One verified inequality: passes iff lhs <= rhs*(1+1e-9) + 1e-12."""

    name: str
    lhs: float
    rhs: float
    margin: float
    passed: bool


def make_check(name: str, lhs: float, rhs: float) -> CheckResult:
    slack = rhs * (1.0 + PASS_RTOL) + PASS_ATOL
    return CheckResult(name=name, lhs=float(lhs), rhs=float(rhs),
                       margin=float(slack - lhs), passed=bool(lhs <= slack))


def contraction_checks(report: inverse_power.IterationReport, name: str,
                       tag: str = "") -> list[CheckResult]:
    """measured_rate <= theo_rate for every record of a tracked run that
    has both, named name[tag,ell=N] (name[ell=N] without a tag)."""
    head = f"{name}[{tag}," if tag else f"{name}["
    return [make_check(f"{head}ell={rec.ell}]", rec.measured_rate, rec.theo_rate)
            for rec in report.records
            if rec.measured_rate is not None and rec.theo_rate is not None]


@dataclass
class VerifyReport:
    suite: str
    seed: int
    trials: int
    params: dict = field(default_factory=dict)
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks) and bool(self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "params": self.params,
            "passed": self.passed,
            "n_checks": len(self.checks),
            "checks": [
                {"name": c.name, "lhs": c.lhs, "rhs": c.rhs,
                 "margin": c.margin, "pass": c.passed}
                for c in self.checks
            ],
        }
        return deterministic_json(payload)

    def replay_json(self) -> str:
        """Self-contained description of the failing run for reproduction."""
        payload = {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "params": self.params,
            "failures": [
                {"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "margin": c.margin}
                for c in self.failures()
            ],
        }
        return deterministic_json(payload)


def trial_seeds(master_seed: int, trials: int) -> list[int]:
    """Independent per-trial seeds spawned from the master seed."""
    return [int(s.generate_state(1)[0])
            for s in np.random.SeedSequence(master_seed).spawn(trials)]


def random_spd(rng: np.random.Generator, n: int,
               lo: float = 0.5, hi: float = 10.0) -> SparseSymMatrix:
    """Random SPD matrix with a uniform spectrum in [lo, hi].  The
    eigenvectors are the Q factor of a Gaussian matrix from Householder QR,
    its columns signed so that diag(R) > 0: Gram-Schmidt's Q up to
    round-off."""
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q *= np.where(np.diag(R) < 0.0, -1.0, 1.0)
    vals = np.sort(rng.uniform(lo, hi, size=n))
    S = (Q * vals[None, :]) @ Q.T
    return SparseSymMatrix.from_dense(0.5 * (S + S.T))


def random_pencil(rng: np.random.Generator, n: int
                  ) -> tuple[SparseSymMatrix, Optional[SparseSymMatrix]]:
    """Random (A, M) pencil; a fair coin from rng decides whether it is a
    plain standard problem (M = None)."""
    A = random_spd(rng, n)
    if rng.integers(2) == 0:
        return A, None
    return A, random_spd(rng, n, lo=0.5, hi=2.0)


def _projection_trial(t: int, seed: int, n_max: int, m_max: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, n_max + 1))
    m = int(rng.integers(3, min(m_max, n - 2) + 1))
    A, M = random_pencil(rng, n)
    K = orthonormalize(rng.standard_normal((n, m)), weight=M)
    rs = ritz(A, M, K)
    oracle = EtaOracle(A, M)
    exact = oracle.exact
    eta = oracle.eta(K)
    # the bounds' best approximations in the energy norm share one
    # A-orthonormal basis of span(K)
    Ka = orthonormalize(K.columns, weight=A)
    tag = f"projection/t{t:03d}"
    checks: list[CheckResult] = []

    # minimax upper bound: each Ritz value dominates its exact counterpart
    worst = int(np.argmax(exact.values[:m] - rs.values))
    checks.append(make_check(f"{tag}/upper_bound[i={worst}]",
                             float(exact.values[worst]), float(rs.values[worst])))

    # projected-pair identity residual over every (exact pair, Ritz index),
    # reported at the first (row-major) combination of largest excess
    R = strang_residual(A, M, Ka, exact.values, exact.vectors, rs)
    S = 1e-10 * (np.abs(rs.values)[None, :] + np.abs(exact.values)[:, None]) \
        * np.linalg.norm(exact.vectors, axis=0)[:, None]
    i, j = np.unravel_index(np.argmax(R - S), R.shape)
    checks.append(make_check(f"{tag}/projected_identity[{i},{j}]", R[i, j], S[i, j]))

    # single-pair energy / weighted-norm bounds at a gap-safe index
    order = rng.permutation(n)
    for i in order:
        mu = 1.0 / float(exact.values[i])
        closest = int(np.argmin(np.abs(rs.mu_values - mu)))
        delta = gap_delta(rs.mu_values, mu, exclude=(closest,))
        if delta < GAP_SAFEGUARD:
            continue
        rep = energy_bound_single(A, M, Ka, float(exact.values[i]),
                                  exact.vectors[:, i], rs, eta=eta)
        checks.append(make_check(f"{tag}/energy_bound[i={i}]",
                                 rep.lhs_energy, rep.rhs_energy))
        checks.append(make_check(f"{tag}/l2_bound[i={i}]", rep.lhs_l2, rep.rhs_l2))
        break

    # block bounds for the k smallest pairs when the block gap is safe
    k = min(3, rs.m - 1)
    if k >= 1:
        safe = all(
            gap_delta_block(rs.mu_values, 1.0 / float(exact.values[i]), k)
            >= GAP_SAFEGUARD
            for i in range(k)
        )
        if safe:
            for rep in energy_bound_block(A, M, Ka, exact, rs, k, eta=eta):
                checks.append(make_check(
                    f"{tag}/block_energy[i={rep.index}]",
                    rep.lhs_energy, rep.rhs_energy))
                checks.append(make_check(
                    f"{tag}/block_l2[i={rep.index}]", rep.lhs_l2, rep.rhs_l2))

    # Rayleigh-quotient expansion: perturb within span{u_i, ..., u_n} so the
    # quotient stays above lam_i, then sandwich the excess by the energy error
    i = int(rng.integers(0, n))
    coeffs = rng.standard_normal(n - i) * rng.uniform(1e-3, 0.1)
    psi = exact.vectors[:, i] + exact.vectors[:, i:] @ coeffs
    lam_hat = rayleigh_quotient(A, M, psi)
    err = exact.vectors[:, i] - psi
    checks.append(make_check(f"{tag}/rayleigh_lower[i={i}]",
                             float(exact.values[i]), lam_hat))
    checks.append(make_check(
        f"{tag}/rayleigh_upper[i={i}]",
        lam_hat - float(exact.values[i]),
        norm(err, A) ** 2 / norm(psi, M) ** 2,
    ))
    return checks


def suite_projection(seed: int = 0, trials: int = 100,
                     n: int = 24, m: int = 8) -> list[CheckResult]:
    """Randomized bound checks on dense-scale (A, M, K) instances."""
    return [c for t, s in enumerate(trial_seeds(seed, trials))
            for c in _projection_trial(t, s, n, m)]


def suite_inverse(seed: int = 0, n: int = 63) -> list[CheckResult]:
    """Contraction-factor checks for the block and single-vector iterations
    on the 1D model pencil with a two-levels-coarser FEM subspace.  Every
    run shares one coarse space and one V-cycle over the whole hierarchy,
    and solves with PCG preconditioned by that cycle to cfg.inner_tol."""
    mg = gmg.interval_hierarchy(n).multigrid
    if mg.n_levels < 3:
        raise ConfigError("need at least three levels for the coarse space")
    fine = mg.levels[0]
    K = mg.coarse_space(2)
    solver = mg.vcycle
    exact = exact_eigenset(fine.A, fine.M)
    checks: list[CheckResult] = []

    def run(U0: Optional[np.ndarray], **fields):
        cfg = IpmConfig(track_exact=True, seed=seed, **fields)
        cfg.inner_solve = solver.solve
        # looked up at call time, so a wrapped inverse_power.ipm_run sees it
        return inverse_power.ipm_run(fine.A, fine.M, K, U0, cfg)

    for k in (1, 2, 3):
        report = run(None, k=k)
        checks += contraction_checks(report, f"inverse/block_k{k}/contraction")
        checks.append(make_check(
            f"inverse/block_k{k}/eigenvalue_error",
            float(np.max(np.abs(report.final_values - exact.values[:k]))),
            1e-8 * float(exact.values[k - 1])))

    rng = np.random.default_rng(seed)
    for target in (0, 1):
        u0 = exact.vectors[:, target] + 0.2 * rng.standard_normal(fine.A.n)
        report = run(u0[:, None], k=1, mode="single", target_index=target)
        checks += contraction_checks(report, f"inverse/single_i{target + 1}/contraction")
        checks.append(make_check(
            f"inverse/single_i{target + 1}/targeted_eigenvalue",
            abs(float(report.final_values[0]) - float(exact.values[target])),
            1e-8 * float(exact.values[target])))
    return checks


def suite_gmg(seed: int = 0, n: int = 127) -> list[CheckResult]:
    """Mesh-size scaling of the contraction rate on the interval.

    The H-proportionality window applies to the evaluated rate estimate
    (built from each run's Ritz values and duality constant); the directly
    measured contraction superconverges (empirically ~H^2), so for it we
    assert domination by the estimate and a strict decrease in H.
    """
    k = 2  # the block of the two lowest pairs
    hier = gmg.interval_hierarchy(n)
    levels = hier.n_levels
    fine = hier.multigrid.levels[0]
    exact = exact_eigenset(fine.A, fine.M)
    checks: list[CheckResult] = []
    measured, theo = {}, {}
    for coarse_level in (levels - 4, levels - 3):
        cfg = IpmConfig(k=k, track_exact=True, seed=seed)
        run = gmg.gmg_eigensolve(hier, k, coarse_level, cfg)
        measured[coarse_level], theo[coarse_level] = _rate_means(run.report)
        H_tag = f"H=1/{round(1.0 / run.H)}"
        checks += contraction_checks(run.report, "gmg/contraction", H_tag)
        checks.append(make_check(f"gmg/mesh_condition[{H_tag}]",
                                 measured[coarse_level], 1.0 - 1e-6))
        checks.append(make_check(
            f"gmg/eigenvalue_error[{H_tag}]",
            float(np.max(np.abs(run.report.final_values - exact.values[:k]))),
            1e-8 * float(exact.values[k - 1])))
    ratio = theo[levels - 4] / theo[levels - 3]
    checks.append(make_check("gmg/h_scaling_ratio_lower", 1.4, ratio))
    checks.append(make_check("gmg/h_scaling_ratio_upper", ratio, 2.6))
    checks.append(make_check("gmg/measured_rate_decreases",
                             measured[levels - 3],
                             0.8 * measured[levels - 4]))
    return checks


def suite_amg(seed: int = 0, n: int = 80, nc_sweep: Sequence[int] = (4, 8, 16),
              ideal_only: bool = False) -> list[CheckResult]:
    """Duality-constant and contraction checks for the ideal eigenvector
    coarse spaces, plus aggregation-hierarchy sanity on the same pencil."""
    k = 2  # the block of the two lowest pairs
    mesh = gmg._interval_level(n)
    pencil = gmg.assemble_p1(mesh)
    A, M = pencil.A, pencil.M
    oracle = EtaOracle(A, M)
    exact = oracle.exact
    checks: list[CheckResult] = []

    for nc in nc_sweep:
        if nc <= k:
            raise ConfigError(f"nc = {nc} must exceed k = {k}")
        K = amg.ideal_coarse_space(A, M, nc)
        checks.append(make_check(
            f"amg/ideal_eta[nc={nc}]",
            oracle.eta(K),
            1.0 / math.sqrt(float(exact.values[nc])) + 1e-10,
        ))
        U = seeded_start(A.n, k, M, seed)
        err0 = energy_error(A, exact.vectors[:, :k], U)
        rs, U1 = ipm_block_step(A, M, K, U, IpmConfig(k=k, inner_tol=1e-12))
        err1 = energy_error(A, exact.vectors[:, :k], U1)
        factor = amg.ideal_rate_factor(
            exact.values, float(rs.values[k - 1]), rs.mu_values, k, nc)
        checks.append(make_check(
            f"amg/ideal_contraction[nc={nc}]", err1 / err0, factor))
    if ideal_only:
        return checks

    hier = amg.amg_setup(A, M)
    checks.append(make_check("amg/hierarchy_depth", 2.0, float(hier.n_levels)))
    solver = hier.vcycle
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(A.n)
    x = np.zeros(A.n)
    r_prev = norm(b)
    worst = 0.0
    for _ in range(10):
        x = solver.cycle(b, x0=x)
        r = norm(b - A.matvec(x))
        worst = max(worst, r / r_prev)
        r_prev = r
    checks.append(make_check("amg/vcycle_contraction", worst, 1.0 - 1e-6))

    depth = max(1, hier.n_levels - 2)
    K_agg = hier.coarse_space(depth)
    while K_agg.dim > A.n // 2 and depth < hier.n_levels - 1:
        depth += 1
        K_agg = hier.coarse_space(depth)
    cfg = IpmConfig(k=k, track_exact=True, seed=seed, inner_solve=solver.solve)
    report = inverse_power.ipm_run(A, M, K_agg, None, cfg)
    checks.append(make_check(
        "amg/aggregation_eigenvalue_error",
        float(np.max(np.abs(report.final_values - exact.values[:k]))),
        1e-8 * float(exact.values[k - 1])))
    return checks + contraction_checks(report, "amg/aggregation_contraction")


def run_suite(suite: str, seed: int = 0, trials: int = 100,
              **params) -> VerifyReport:
    """Run one named suite (or all of them) and collect its checks; each of
    params goes to the suite that takes it (_SUITE_PARAMS)."""
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {SUITES}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0 (--seed), got {seed}")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1 (--trials), got {trials}")
    for key in params:
        if key not in _SUITE_PARAMS[suite]:
            raise ConfigError(f"suite {suite} takes no parameter {key!r}")

    def given(name: str) -> dict:
        return {key: params[key] for key in _SUITE_PARAMS[name] if key in params}

    checks: list[CheckResult] = []
    if suite in ("projection", "all"):
        checks += suite_projection(seed=seed, trials=trials, **given("projection"))
    if suite in ("inverse", "all"):
        checks += suite_inverse(seed=seed, **given("inverse"))
    if suite in ("gmg", "all"):
        checks += suite_gmg(seed=seed, **given("gmg"))
    if suite in ("amg", "all"):
        checks += suite_amg(seed=seed, **given("amg"))
    return VerifyReport(suite=suite, seed=seed, trials=trials, params=params,
                        checks=checks)


def replay(path: str) -> VerifyReport:
    """Re-run the suite recorded in a replay file, reproducing the failure."""
    payload = read_json_object(path, "replay file", ("suite", "seed", "trials"))
    params = payload.get("params", {})
    return run_suite(payload["suite"], seed=payload["seed"],
                     trials=payload["trials"], **params)
