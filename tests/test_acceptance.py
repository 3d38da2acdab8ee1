"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every check instantiates an inequality or an end-to-end contract at its
stated tolerance; the heavy shared objects (the n = 255 interval hierarchy
and the 961-unknown square pencil oracle) are computed once per session.
"""

import math
import time

import numpy as np
import pytest

from subeig import amg, gmg
from subeig.core import norm, orthonormalize
from subeig.inverse_power import (
    IpmConfig,
    energy_error,
    ipm_block_step,
    ipm_run,
    seeded_start,
)
from subeig.projection import (
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
from subeig.verify import _rate_means

from .conftest import make_spd
from .ql_reference import ql_sym_eig

RTOL = 1e-9
ATOL = 1e-12


def holds(lhs, rhs):
    """The harness pass rule: lhs <= rhs up to round-off slack."""
    return lhs <= rhs * (1.0 + RTOL) + ATOL


def verdict(num, name, ok, t0):
    line = f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}" \
           f"  [{time.time() - t0:.1f}s]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def interval255():
    """7-level interval hierarchy (fine grid n = 255, h = 1/256) plus the
    fine-grid pencil and its dense oracle."""
    hier = gmg.build_hierarchy("interval", 3, 7)
    pencils, prolongations = gmg.assemble_hierarchy(hier)
    fine = pencils[-1]
    exact = exact_eigenset(fine.A, fine.M)
    return hier, pencils, prolongations, fine, exact


@pytest.fixture(scope="module")
def gmg_runs(interval255):
    """Memoized tracked block runs on the n = 255 hierarchy."""
    hier = interval255[0]
    cache = {}

    def run(k, coarse_level):
        key = (k, coarse_level)
        if key not in cache:
            cfg = IpmConfig(k=k, track_exact=True, seed=0)
            cache[key] = gmg.gmg_eigensolve(hier, k, coarse_level, cfg)
        return cache[key]

    return run


@pytest.fixture(scope="module")
def square961():
    """2D unit-square P1 pencil with 31x31 = 961 interior unknowns and its
    dense oracle (the single most expensive fixture in the suite)."""
    pencil = gmg.assemble_p1(gmg._square_level(31))
    exact = exact_eigenset(pencil.A, pencil.M)
    return pencil.A, pencil.M, exact


def test_criterion_01_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(50):
        n = int(rng.integers(5, 51))
        A = make_spd(rng, n)
        rs = ritz(A, None, orthonormalize(np.eye(n)))
        # the independent QL reference, so the LAPACK-backed oracle is not
        # compared with itself
        ref, _ = ql_sym_eig(A.to_dense(), vectors=False)
        for vals in (rs.values, exact_eigenset(A).values):
            ok = ok and np.max(np.abs(vals - ref) / np.abs(ref)) <= 1e-10
    verdict(1, "full-space Ritz and dense oracle equal the QL reference", ok, t0)


def test_criterion_02_upper_bound():
    t0 = time.time()
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(200):
        n = int(rng.integers(8, 41))
        m = int(rng.integers(2, min(12, n - 1) + 1))
        A = make_spd(rng, n)
        K = orthonormalize(rng.standard_normal((n, m)))
        rs = ritz(A, None, K)
        lam = exact_eigenset(A).values[:rs.m]
        ok = ok and np.all(lam <= rs.values + 1e-11 * rs.values)
    verdict(2, "Ritz values bound exact values above", ok, t0)


def test_criterion_03_projected_pair_identity():
    t0 = time.time()
    rng = np.random.default_rng(103)
    ok = True
    for trial in range(100):
        n = int(rng.integers(8, 21))
        m = int(rng.integers(3, 7))
        A = make_spd(rng, n)
        M = make_spd(rng, n, lo=0.5, hi=2.0) if trial % 2 else None
        K = orthonormalize(rng.standard_normal((n, m)), weight=M)
        rs = ritz(A, M, K)
        exact = exact_eigenset(A, M)
        R = strang_residual(A, M, K, exact.values, exact.vectors, rs)
        scale = 1e-10 * (np.abs(rs.values)[None, :] + np.abs(exact.values)[:, None]) \
            * np.array([norm(exact.vectors[:, i]) for i in range(n)])[:, None]
        ok = ok and R.shape == (n, rs.m) and bool(np.all(R <= scale))
    verdict(3, "projected-pair identity residual", ok, t0)


def test_criterion_04_single_pair_bounds():
    t0 = time.time()
    rng = np.random.default_rng(104)
    ok, contributed = True, 0
    for trial in range(100):
        n = int(rng.integers(10, 25))
        m = int(rng.integers(4, 9))
        A = make_spd(rng, n)
        M = make_spd(rng, n, lo=0.5, hi=2.0) if trial % 2 else None
        K = orthonormalize(rng.standard_normal((n, m)), weight=M)
        rs = ritz(A, M, K)
        exact = exact_eigenset(A, M)
        eta = EtaOracle(A, M).eta(K)
        for i in rng.permutation(n):
            mu = 1.0 / float(exact.values[i])
            closest = int(np.argmin(np.abs(rs.mu_values - mu)))
            if gap_delta(rs.mu_values, mu, exclude=(closest,)) < 1e-3:
                continue
            rep = energy_bound_single(A, M, K, float(exact.values[i]),
                                      exact.vectors[:, i], rs, eta=eta)
            ok = ok and holds(rep.lhs_energy, rep.rhs_energy)
            ok = ok and holds(rep.lhs_l2, rep.rhs_l2)
            contributed += 1
            break
    ok = ok and contributed >= 90
    verdict(4, "single-pair energy and weighted-norm bounds", ok, t0)


def test_criterion_05_block_bounds():
    t0 = time.time()
    rng = np.random.default_rng(105)
    ok, contributed = True, 0
    for trial in range(50):
        n = int(rng.integers(14, 28))
        m = int(rng.integers(6, 9))
        A = make_spd(rng, n)
        M = make_spd(rng, n, lo=0.5, hi=2.0) if trial % 2 else None
        K = orthonormalize(rng.standard_normal((n, m)), weight=M)
        rs = ritz(A, M, K)
        exact = exact_eigenset(A, M)
        k = min(5, rs.m - 1)
        safe = all(
            gap_delta_block(rs.mu_values, 1.0 / float(exact.values[i]), k) >= 1e-3
            for i in range(k))
        if not safe:
            continue
        for rep in energy_bound_block(A, M, K, exact, rs, k):
            ok = ok and holds(rep.lhs_energy, rep.rhs_energy)
            ok = ok and holds(rep.lhs_l2, rep.rhs_l2)
        contributed += 1
    ok = ok and contributed >= 35

    # and the 1D FEM pencil: n = 63, coarse space at H = 4h
    hier = gmg.build_hierarchy("interval", 3, 5)
    pencils, prolongations = gmg.assemble_hierarchy(hier)
    A, M = pencils[-1].A, pencils[-1].M
    K = gmg.coarse_space(pencils, prolongations, 4, 2)
    rs = ritz(A, M, K)
    exact = exact_eigenset(A, M)
    for rep in energy_bound_block(A, M, K, exact, rs, 5):
        ok = ok and holds(rep.lhs_energy, rep.rhs_energy)
        ok = ok and holds(rep.lhs_l2, rep.rhs_l2)
    verdict(5, "block energy and weighted-norm bounds", ok, t0)


def test_criterion_06_block_contraction_bound(interval255, gmg_runs):
    t0 = time.time()
    _, _, _, fine, exact = interval255
    ok = True
    for k in (1, 2, 3):
        run = gmg_runs(k, 3)  # K = V_H with H = 1/32
        tracked = [r for r in run.report.records
                   if r.measured_rate is not None and r.theo_rate is not None]
        ok = ok and run.report.status == "converged"
        ok = ok and len(tracked) >= 1
        for rec in tracked:
            ok = ok and holds(rec.measured_rate, rec.theo_rate)
    verdict(6, "block iteration: measured rate below the estimate", ok, t0)


def test_criterion_07_single_vector_contraction():
    t0 = time.time()
    hier = gmg.build_hierarchy("interval", 3, 5)  # n = 63
    pencils, prolongations = gmg.assemble_hierarchy(hier)
    A, M = pencils[-1].A, pencils[-1].M
    K = gmg.coarse_space(pencils, prolongations, 4, 2)  # H = 4h
    exact = exact_eigenset(A, M)
    rng = np.random.default_rng(0)
    ok = True
    for target in (0, 1):
        u = exact.vectors[:, target]
        u0 = u + 0.2 * rng.standard_normal(A.n)
        cfg = IpmConfig(k=1, mode="single", target_index=target,
                        track_exact=True, seed=0)
        report = ipm_run(A, M, K, u0[:, None], cfg)
        ok = ok and report.status == "converged"
        ok = ok and abs(float(report.final_values[0]) -
                        float(exact.values[target])) \
            <= 1e-8 * float(exact.values[target])
        for rec in report.records:
            if rec.measured_rate is not None and rec.theo_rate is not None:
                ok = ok and holds(rec.measured_rate, rec.theo_rate)
    verdict(7, "single-vector iteration targets the requested pair", ok, t0)


def test_criterion_08_gmg_h_scaling(interval255, gmg_runs):
    t0 = time.time()
    _, _, _, fine, exact = interval255
    k = 2
    ok, theo = True, {}
    for coarse_level, H_inv in ((2, 16), (3, 32)):
        run = gmg_runs(k, coarse_level)
        assert round(1.0 / run.H) == H_inv
        _, theo[H_inv] = _rate_means(run.report)
        ok = ok and run.report.status == "converged"
        ok = ok and np.max(np.abs(run.report.final_values - exact.values[:k])) \
            <= 1e-8 * float(exact.values[k - 1])
        for rec in run.report.records:
            if rec.measured_rate is not None and rec.theo_rate is not None:
                ok = ok and holds(rec.measured_rate, rec.theo_rate)
    ratio = theo[16] / theo[32]
    ok = ok and 1.4 <= ratio <= 2.6
    verdict(8, "coarse-mesh scaling of the contraction-rate estimate", ok, t0)


def test_criterion_09_ideal_coarse_space():
    t0 = time.time()
    pencil = gmg.assemble_p1(gmg._interval_level(80))
    A, M = pencil.A, pencil.M
    exact = exact_eigenset(A, M)
    oracle = EtaOracle(A, M)
    k, ok = 2, True
    for nc in (4, 8, 16):
        K = amg.ideal_coarse_space(A, M, nc)
        ok = ok and oracle.eta(K) <= 1.0 / math.sqrt(exact.values[nc]) + 1e-10
        U = seeded_start(A.n, k, M, 109)
        err0 = energy_error(A, exact.vectors[:, :k], U)
        rs, U1 = ipm_block_step(A, M, K, U, IpmConfig(k=k, inner_tol=1e-12))
        err1 = energy_error(A, exact.vectors[:, :k], U1)
        factor = amg.ideal_rate_factor(exact.values, float(rs.values[k - 1]),
                                       rs.mu_values, k, nc)
        ok = ok and holds(err1 / err0, factor)
    verdict(9, "eigenvector coarse space: duality constant and contraction",
            ok, t0)


def test_criterion_10_weyl_trend(square961):
    t0 = time.time()
    A, M, exact = square961
    # k = 1: the square's first eigenvalue is simple (lam_2 = lam_3 is a
    # degenerate pair, which would zero out the k = 2 gap terms)
    k = 1
    sweep = (4, 8, 16, 32, 64)
    factors, ok = [], True
    for nc in sweep:
        K = orthonormalize(exact.vectors[:, :nc], weight=M)
        U = seeded_start(A.n, k, M, 110)
        err0 = energy_error(A, exact.vectors[:, :k], U)
        rs, U1 = ipm_block_step(A, M, K, U, IpmConfig(k=k, inner_tol=1e-10))
        err1 = energy_error(A, exact.vectors[:, :k], U1)
        factor = amg.ideal_rate_factor(exact.values, float(rs.values[k - 1]),
                                       rs.mu_values, k, nc)
        factors.append(factor)
        ok = ok and holds(err1 / err0, factor)
    slope = float(np.polyfit(np.log([nc + 1.0 for nc in sweep]),
                             np.log(factors), 1)[0])
    ok = ok and -0.8 <= slope <= -0.2
    verdict(10, "rate estimate follows the eigenvalue-count power law", ok, t0)


def test_criterion_11_rayleigh_expansion():
    t0 = time.time()
    rng = np.random.default_rng(111)
    ok = True
    for trial in range(100):
        n = int(rng.integers(4, 20))
        A = make_spd(rng, n)
        M = make_spd(rng, n, lo=0.5, hi=2.0) if trial % 2 else None
        exact = exact_eigenset(A, M)
        i = int(rng.integers(0, n))
        coeffs = rng.standard_normal(n - i) * rng.uniform(1e-3, 0.1)
        psi = exact.vectors[:, i] + exact.vectors[:, i:] @ coeffs
        lam_hat = rayleigh_quotient(A, M, psi)
        lam_i = float(exact.values[i])
        bound = norm(exact.vectors[:, i] - psi, A) ** 2 / norm(psi, M) ** 2
        ok = ok and holds(lam_i, lam_hat)
        ok = ok and lam_hat - lam_i <= bound * (1 + 1e-9) + 1e-12
    verdict(11, "Rayleigh quotient error sandwich", ok, t0)


def test_criterion_12_determinism(tmp_path, monkeypatch):
    t0 = time.time()
    from subeig.cli import main

    monkeypatch.chdir(tmp_path)
    args = ["verify", "all", "--trials", "5", "--seed", "12"]
    assert main(args + ["--report", "first.json"]) == 0
    assert main(args + ["--report", "second.json"]) == 0
    ok = (tmp_path / "first.json").read_bytes() == \
        (tmp_path / "second.json").read_bytes()
    verdict(12, "byte-identical reports for identical seed", ok, t0)
