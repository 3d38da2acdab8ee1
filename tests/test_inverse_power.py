"""Block and single-vector inverse power iteration on an enriched subspace."""

import csv
import io
import json

import numpy as np
import pytest

from subeig.core import SparseSymMatrix, norm, orthonormalize
from subeig.exceptions import ConfigError
from subeig.inverse_power import (
    IpmConfig,
    energy_error,
    ipm_block_step,
    ipm_run,
    ipm_single_step,
    seeded_start,
    theoretical_rate_block,
)
from subeig.projection import EtaOracle, exact_eigenset

from .conftest import make_spd


def diag_problem(values):
    return SparseSymMatrix.from_dense(np.diag(np.asarray(values, float)), spd=True)


class TestBlockStep:
    def test_fixed_point(self, rng):
        A = make_spd(rng, 15)
        exact = exact_eigenset(A)
        K = orthonormalize(rng.standard_normal((15, 4)))
        cfg = IpmConfig(k=2)
        rs, U_next = ipm_block_step(A, None, K, exact.vectors[:, :2], cfg)
        assert np.allclose(rs.values[:2], exact.values[:2], rtol=1e-9)
        # new iterates stay in the invariant subspace (A-norm, after normalization)
        W = orthonormalize(U_next, weight=A).columns
        err = energy_error(A, exact.vectors[:, :2], W)
        assert err <= 1e-8

    def test_alpha_bound(self, rng):
        # 1/||u_i^(l+1)||_A <= 1 for every inverse-power solve
        A = make_spd(rng, 20)
        K = orthonormalize(rng.standard_normal((20, 5)))
        U = seeded_start(20, 3, None, 3)
        _, U_next = ipm_block_step(A, None, K, U, IpmConfig(k=3))
        for i in range(3):
            alpha = 1.0 / norm(U_next[:, i], A)
            assert alpha <= 1.0 + 1e-12

    def test_ideal_coarse_space_contracts(self, rng):
        A = make_spd(rng, 24)
        exact = exact_eigenset(A)
        nc = 6
        K = orthonormalize(exact.vectors[:, :nc])
        U = seeded_start(24, 1, None, 11)
        err0 = energy_error(A, exact.vectors[:, :1], U)
        # the gap terms of the rate factor need the full enriched Ritz set
        from subeig.amg import ideal_rate_factor

        rs, U1 = ipm_block_step(A, None, K, U, IpmConfig(k=1, inner_tol=1e-12))
        err1 = energy_error(A, exact.vectors[:, :1], U1)
        factor = ideal_rate_factor(exact.values, float(rs.values[0]),
                                   rs.mu_values, 1, nc)
        assert err1 <= factor * err0 * (1 + 1e-9) + 1e-12

    def test_energy_error_decreases(self):
        from subeig import gmg

        hier = gmg.build_hierarchy("interval", 3, 5)
        pencils, prolongations = gmg.assemble_hierarchy(hier)
        A, M = pencils[4].A, pencils[4].M
        K = gmg.coarse_space(pencils, prolongations, 4, 1)  # H = 8h
        exact = exact_eigenset(A, M)
        U = seeded_start(A.n, 2, M, 5)
        before = energy_error(A, exact.vectors[:, :2], U)
        _, U1 = ipm_block_step(A, M, K, U, IpmConfig(k=2))
        after = energy_error(A, exact.vectors[:, :2], U1)
        assert after < before


class TestSingleStep:
    def test_fixed_point(self, rng):
        A = make_spd(rng, 12)
        exact = exact_eigenset(A)
        K = orthonormalize(rng.standard_normal((12, 3)))
        lam, u_next, sel, _ = ipm_single_step(A, None, K, exact.vectors[:, 2],
                                              IpmConfig(mode="single"))
        assert lam == pytest.approx(float(exact.values[2]), rel=1e-9)
        u_hat = u_next / norm(u_next)
        u_ref = exact.vectors[:, 2] / norm(exact.vectors[:, 2])
        assert abs(float(u_hat @ u_ref)) == pytest.approx(1.0, abs=1e-8)

    def test_zero_start_rejected(self, rng):
        A = make_spd(rng, 8)
        K = orthonormalize(rng.standard_normal((8, 2)))
        with pytest.raises(ConfigError):
            ipm_single_step(A, None, K, np.zeros(8), IpmConfig(mode="single"))

    def test_targets_interior_pair(self, rng):
        # diagonal ladder with a coarse space that resolves the low modes:
        # starting near u_2 must converge to the second pair, not the first
        A = diag_problem(range(1, 11))
        exact = exact_eigenset(A)
        K = orthonormalize(np.eye(10)[:, :4])
        u2 = exact.vectors[:, 1]
        u0 = u2 + 0.1 * norm(u2) * rng.standard_normal(10)
        cfg = IpmConfig(mode="single", target_index=1, seed=0)
        report = ipm_run(A, None, K, u0[:, None], cfg)
        assert report.status == "converged"
        assert float(report.final_values[0]) == pytest.approx(
            float(exact.values[1]), rel=1e-8)


class TestIpmRun:
    def test_already_converged(self, rng):
        A = make_spd(rng, 10)
        exact = exact_eigenset(A)
        K = orthonormalize(rng.standard_normal((10, 3)))
        report = ipm_run(A, None, K, exact.vectors[:, :2], IpmConfig(k=2))
        assert report.status == "converged"
        assert len(report.records) == 1
        assert max(report.records[0].residuals) <= 1e-10

    def test_near_exact_coarse_space_fast(self):
        A = diag_problem(range(1, 11))
        K = orthonormalize(np.eye(10)[:, :4])
        cfg = IpmConfig(k=2, seed=0)
        report = ipm_run(A, None, K, None, cfg)
        assert report.status == "converged"
        assert len(report.records) <= 3
        assert np.allclose(report.final_values, [1.0, 2.0], atol=1e-10)

    def test_measured_below_theoretical(self, rng):
        A = make_spd(rng, 20, lo=1.0, hi=50.0)
        exact = exact_eigenset(A)
        K = orthonormalize(exact.vectors[:, :6])
        cfg = IpmConfig(k=2, track_exact=True, seed=1)
        report = ipm_run(A, None, K, None, cfg)
        tracked = [r for r in report.records
                   if r.measured_rate is not None and r.theo_rate is not None]
        for rec in tracked:
            assert rec.measured_rate <= rec.theo_rate * (1 + 1e-9) + 1e-12

    def test_ritz_values_are_upper_bounds(self, rng):
        A = make_spd(rng, 16)
        exact = exact_eigenset(A)
        K = orthonormalize(rng.standard_normal((16, 5)))
        report = ipm_run(A, None, K, None, IpmConfig(k=2, seed=2))
        for rec in report.records:
            for i, lam in enumerate(rec.lambdas):
                assert float(exact.values[i]) <= lam * (1 + 1e-11)

    def test_basis_invariance(self, rng):
        # replacing K's basis by another basis of the same subspace leaves
        # the final eigenvalues unchanged
        A = make_spd(rng, 14)
        W = rng.standard_normal((14, 4))
        K1 = orthonormalize(W)
        K2 = orthonormalize(W @ rng.standard_normal((4, 4)))
        r1 = ipm_run(A, None, K1, None, IpmConfig(k=2, seed=3))
        r2 = ipm_run(A, None, K2, None, IpmConfig(k=2, seed=3))
        assert np.allclose(r1.final_values, r2.final_values, rtol=1e-9)

    def test_track_exact_above_dense_limit_warns(self):
        A = diag_problem(range(1, 64))
        K = orthonormalize(np.eye(63)[:, :4])
        cfg = IpmConfig(k=2, seed=0, track_exact=True, dense_limit=50)
        with pytest.warns(RuntimeWarning, match="track_exact ignored"):
            report = ipm_run(A, None, K, None, cfg)
        assert report.records
        assert all(r.energy_err is None for r in report.records)

    def test_config_validation(self, rng):
        A = make_spd(rng, 6)
        K = orthonormalize(rng.standard_normal((6, 5)))
        with pytest.raises(ConfigError):
            ipm_run(A, None, K, None, IpmConfig(k=2))  # k + dim(K) > n
        with pytest.raises(ConfigError):
            ipm_run(A, None, orthonormalize(np.eye(6)[:, :2]), None,
                    IpmConfig(k=0))

    @pytest.mark.parametrize("target", [-1, 31, 40])
    def test_single_target_out_of_range(self, target):
        A = diag_problem(range(1, 32))
        K = orthonormalize(np.eye(31)[:, :4])
        cfg = IpmConfig(mode="single", target_index=target, track_exact=True)
        with pytest.raises(ConfigError, match="target_index"):
            ipm_run(A, None, K, None, cfg)


class TestReportSerialization:
    def _report(self):
        A = diag_problem(range(1, 9))
        K = orthonormalize(np.eye(8)[:, :3])
        return ipm_run(A, None, K, None, IpmConfig(k=2, seed=0, track_exact=True))

    def test_csv_layout(self):
        report = self._report()
        rows = list(csv.reader(io.StringIO(report.to_csv())))
        assert rows[0] == ["ell", "lambda_1", "lambda_2", "res_1", "res_2",
                           "energy_err", "measured_rate", "theo_rate"]
        assert len(rows) == len(report.records) + 1
        assert rows[1][0] == "1"

    def test_json_round_trip(self):
        report = self._report()
        payload = json.loads(report.to_json())
        assert payload["k"] == 2
        assert payload["status"] == "converged"
        assert len(payload["iterations"]) == len(report.records)
        first = payload["iterations"][0]
        assert set(first) == {"ell", "lambda", "res", "energy_err",
                              "measured_rate", "theo_rate"}


def test_theoretical_rate_block_uses_current_ritz_data(rng):
    A = make_spd(rng, 12)
    exact = exact_eigenset(A)
    K = orthonormalize(exact.vectors[:, :5])
    from subeig.inverse_power import _enriched_ritz

    U = seeded_start(12, 2, None, 7)
    rs = _enriched_ritz(A, None, K, U)
    eta = EtaOracle(A).eta(np.column_stack([K.columns, U]))
    rate = theoretical_rate_block(exact.values, rs, 2, eta)
    assert rate >= 0.0
