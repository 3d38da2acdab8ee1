"""Block and single-vector inverse power iteration on an enriched subspace."""

import csv
import io
import json
import re

import numpy as np
import pytest

from subeig import amg, gmg, inverse_power
from subeig.core import SparseSymMatrix, cg_solve, norm, orthonormalize
from subeig.exceptions import ConfigError, DegenerateGapError
from subeig.inverse_power import (
    IpmConfig,
    _enriched_ritz,
    energy_error,
    ipm_block_step,
    ipm_run,
    seeded_start,
    theoretical_rate_block,
    theoretical_rate_single,
)
from subeig.projection import EtaOracle, exact_eigenset, ritz

from .conftest import make_spd


def diag_problem(values):
    return SparseSymMatrix.from_dense(np.diag(np.asarray(values, float)))


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

    def test_one_inner_solve_per_step(self, rng):
        # the block step hands all k right-hand sides to one call, and
        # Algorithm 2 its one column as an n x 1 block; a run hands k + g
        # columns, g guard pairs, from the step after its first slow one
        A = make_spd(rng, 20)
        K = orthonormalize(rng.standard_normal((20, 5)))
        shapes = []

        def counting_solve(b):
            shapes.append(b.shape)
            return cg_solve(A, b)

        cfg = IpmConfig(k=3, inner_solve=counting_solve)
        _, U_next = ipm_block_step(A, None, K, seeded_start(20, 3, None, 3), cfg)
        assert shapes == [(20, 3)] and U_next.shape == (20, 3)
        shapes.clear()
        report = ipm_run(A, None, K, None, cfg)
        assert report.status == "converged"
        worst = [max(r.residuals) for r in report.records]
        slow = next(ell for ell in range(2, len(worst) + 1)
                    if worst[ell - 1] > inverse_power._SLOW_CONTRACTION * worst[ell - 2])
        # the converging step makes no call
        assert shapes == [(20, 3)] * slow + [(20, 6)] * (len(report.records) - 1 - slow)
        shapes.clear()
        ipm_block_step(A, None, K, seeded_start(20, 1, None, 4),
                       IpmConfig(mode="single", inner_solve=counting_solve))
        assert shapes == [(20, 1)]

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
        # K holds u_1 and u_2 exactly, so in span(K) + span(u_3) the pair
        # (lambda_3, u_3) sits at position 2 below the Ritz value of K's
        # remainder, which lies in span{u_4, ...}
        A = make_spd(rng, 12)
        exact = exact_eigenset(A)
        K = orthonormalize(np.column_stack([exact.vectors[:, :2],
                                            rng.standard_normal(12)]))
        rs, U_next = ipm_block_step(A, None, K, exact.vectors[:, 2:3],
                                    IpmConfig(mode="single", target_index=2))
        assert rs.m == 4 and U_next.shape == (12, 1)
        assert np.allclose(rs.values[:3], exact.values[:3], rtol=1e-9)
        u_hat = U_next[:, 0] / norm(U_next[:, 0])
        u_ref = exact.vectors[:, 2] / norm(exact.vectors[:, 2])
        assert abs(float(u_hat @ u_ref)) == pytest.approx(1.0, abs=1e-8)

    def test_zero_start_rejected(self, rng):
        A = make_spd(rng, 8)
        K = orthonormalize(rng.standard_normal((8, 2)))
        with pytest.raises(ConfigError, match="nonzero"):
            ipm_run(A, None, K, np.zeros((8, 1)), IpmConfig(mode="single"))

    def test_target_beyond_enriched_space_rejected(self, rng):
        # span(K) + span(u) has dimension 3, so there is no fourth Ritz pair
        A = make_spd(rng, 12)
        K = orthonormalize(rng.standard_normal((12, 2)))
        with pytest.raises(DegenerateGapError, match="target_index 3"):
            ipm_block_step(A, None, K, rng.standard_normal((12, 1)),
                           IpmConfig(mode="single", target_index=3))

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

    def test_lowest_target_is_the_block_of_one(self):
        # target_index 0 follows the same Ritz pair as k = 1, through the
        # same step, so only the theoretical rate may differ
        hier = gmg.build_hierarchy("unit-square", 1, 4)
        pencils, prolongations = gmg.assemble_hierarchy(hier)
        A, M = pencils[3].A, pencils[3].M
        K = gmg.coarse_space(pencils, prolongations, 3, 1)
        block = ipm_run(A, M, K, None, IpmConfig(k=1, seed=2))
        single = ipm_run(A, M, K, None, IpmConfig(mode="single", target_index=0,
                                                  seed=2))
        assert block.status == single.status == "converged"
        assert [(r.lambdas, r.residuals) for r in block.records] \
            == [(r.lambdas, r.residuals) for r in single.records]


class TestEnrichedRitz:
    """The incremental projection onto span(K) + span(U) against the full
    re-orthonormalization of [K, U]."""

    @staticmethod
    def _compare(A, M, K, U, rs, k):
        ref = ritz(A, M, orthonormalize(np.column_stack([K.columns, U]), weight=M))
        assert rs.m == ref.m
        q = rs.values.size  # the step keeps only the lowest Ritz values it reads
        assert q >= k + 1 or q == ref.m
        assert np.max(np.abs(rs.values - ref.values[:q]) / ref.values[:q]) <= 1e-12
        Ad = A.to_dense()
        P = rs.vectors[:, :k] @ (rs.vectors[:, :k].T @ Ad)
        P_ref = ref.vectors[:, :k] @ (ref.vectors[:, :k].T @ Ad)
        assert np.linalg.norm(P - P_ref, 2) <= 1e-10

    @staticmethod
    def _problem(rng, with_mass, wrong_metric=False, n=30, m=6):
        A = make_spd(rng, n)
        M = make_spd(rng, n, lo=0.5, hi=2.0) if with_mass else None
        W = rng.standard_normal((n, m))
        K = orthonormalize(W, weight=None if wrong_metric else M)
        return A, M, K

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("with_mass", [False, True])
    def test_block_matches_full_reorthonormalization(self, rng, k, with_mass):
        A, M, K = self._problem(rng, with_mass)
        U = rng.standard_normal((A.n, k))
        self._compare(A, M, K, U, _enriched_ritz(A, M, K, U), k)

    @pytest.mark.parametrize("with_mass", [False, True])
    def test_nearly_dependent_columns_stay_orthogonal_to_k(self, rng, with_mass):
        # orthonormalizing u and u + 1e-8 w amplifies the second column's
        # round-off components in K by 1e8; the Ritz vectors of an
        # M-orthonormal basis still satisfy X^T M X = diag(1/lambda)
        A, M, K = self._problem(rng, with_mass)
        v = rng.standard_normal(A.n)
        U = np.column_stack([v, v + 1e-8 * rng.standard_normal(A.n)])
        rs = _enriched_ritz(A, M, K, U)
        assert rs.m == K.dim + 2
        X = rs.vectors
        MX = X if M is None else M.matvec(X)
        assert np.abs((X.T @ MX) * rs.values - np.eye(rs.m)).max() <= 1e-12

    @pytest.mark.parametrize("with_mass", [False, True])
    def test_single_step_matches_full_reorthonormalization(self, rng, with_mass):
        A, M, K = self._problem(rng, with_mass)
        u = rng.standard_normal((A.n, 1))
        rs, _ = ipm_block_step(A, M, K, u, IpmConfig(mode="single"))
        self._compare(A, M, K, u, rs, 1)

    @pytest.mark.parametrize("k", [1, 3])
    def test_coarse_basis_in_the_wrong_metric(self, rng, k):
        # K orthonormal in L2 while the pencil has a mass matrix: the step
        # orthonormalizes K in M once and projects onto the same span
        A, M, K = self._problem(rng, True, wrong_metric=True)
        assert K.weight is None
        U = rng.standard_normal((A.n, k))
        self._compare(A, M, K, U, _enriched_ritz(A, M, K, U), k)

    def test_enrichment_inside_k_is_dropped(self, rng):
        A = make_spd(rng, 10)
        M = make_spd(rng, 10, lo=0.5, hi=2.0)
        K = orthonormalize(rng.standard_normal((10, 1)), weight=M)
        k0 = K.columns[:, 0]
        with pytest.raises(DegenerateGapError):
            ipm_block_step(A, M, K, np.column_stack([k0, 2.0 * k0]), IpmConfig(k=2))
        U = np.column_stack([k0, rng.standard_normal(10)])
        rs, _ = ipm_block_step(A, M, K, U, IpmConfig(k=2))
        assert rs.m == K.dim + 1


class TestPartialLift:
    """The block step lifts only the k Ritz vectors it reads, and keeps the
    k + 1 lowest Ritz values, which hold the gap terms of the bounds."""

    @staticmethod
    def _projector(A, X):
        return X @ (X.T @ A.to_dense())

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("with_mass", [False, True])
    def test_block_step_matches_the_full_lift(self, rng, k, with_mass):
        A, M, K = TestEnrichedRitz._problem(rng, with_mass)
        U = rng.standard_normal((A.n, k))
        rs, _ = ipm_block_step(A, M, K, U, IpmConfig(k=k))
        full = _enriched_ritz(A, M, K, U)
        assert rs.m == full.m == K.dim + k
        assert rs.vectors.shape == (A.n, k)
        assert full.vectors.shape == (A.n, K.dim + k)
        assert rs.values.shape == (k + 1,) and full.values.shape == (K.dim + k,)
        assert np.max(np.abs(rs.values - full.values[:k + 1]) / rs.values) <= 1e-12
        assert np.array_equal(rs.mu_values, 1.0 / rs.values)
        P = self._projector(A, rs.vectors)
        P_full = self._projector(A, full.vectors[:, :k])
        assert np.linalg.norm(P - P_full, 2) <= 1e-12 * np.linalg.norm(P_full, 2)

    @pytest.mark.parametrize("with_mass", [False, True])
    def test_count_above_the_rank_lifts_every_vector(self, rng, with_mass):
        A = make_spd(rng, 10)
        M = make_spd(rng, 10, lo=0.5, hi=2.0) if with_mass else None
        K = orthonormalize(rng.standard_normal((10, 1)), weight=M)
        k0 = K.columns[:, 0]
        U = np.column_stack([k0, 2.0 * k0])  # inside span(K): both dropped
        rs = _enriched_ritz(A, M, K, U, 2)
        assert rs.m == 1
        assert rs.vectors.shape == (10, 1)
        with pytest.raises(DegenerateGapError, match="rank 1 < k = 2"):
            ipm_block_step(A, M, K, U, IpmConfig(k=2))

    def test_run_matches_a_full_lift_run(self, monkeypatch):
        hier = gmg.build_hierarchy("unit-square", 1, 4)
        pencils, prolongations = gmg.assemble_hierarchy(hier)
        fine = len(pencils) - 1
        A, M = pencils[fine].A, pencils[fine].M
        K = gmg.coarse_space(pencils, prolongations, fine, 2)
        cfg = IpmConfig(k=3, residual_tol=1e-10, seed=0)
        partial = ipm_run(A, M, K, None, cfg)
        full_lift = inverse_power._enriched_ritz
        monkeypatch.setattr(inverse_power, "_enriched_ritz",
                            lambda A, M, K, U, *args: full_lift(A, M, K, U))
        full = ipm_run(A, M, K, None, cfg)
        assert partial.status == full.status == "converged"
        assert len(partial.records) == len(full.records)
        for a, b in zip(partial.records, full.records):
            assert np.max(np.abs(np.subtract(a.lambdas, b.lambdas)) / b.lambdas) <= 1e-12
            # the residuals are relative already; near 1e-10 their round-off
            # floor (about 1e-17) exceeds 1e-12 of their own size
            assert np.max(np.abs(np.subtract(a.residuals, b.residuals))) <= 1e-12


class TestCorrectionStep:
    """The step solves A E = R for the residual block R = lam M U - A U of
    its Ritz pairs and returns X = U + E, which is lam A^{-1} M U."""

    @staticmethod
    def _problem():
        hier = gmg.build_hierarchy("interval", 3, 5)  # n = 63
        pencils, prolongations = gmg.assemble_hierarchy(hier)
        K = gmg.coarse_space(pencils, prolongations, 4, 2)
        return pencils[-1].A, pencils[-1].M, K

    @pytest.mark.parametrize("mode", ["block", "single"])
    def test_exact_correction_is_the_inverse_power_iterate(self, mode):
        A, M, K = self._problem()
        Ad = A.to_dense()
        cfg = IpmConfig(k=3, mode=mode, target_index=1,
                        inner_solve=lambda b, tol=None: np.linalg.solve(Ad, b))
        U = seeded_start(A.n, cfg.k if mode == "block" else 1, M, 4)
        rs, X = ipm_block_step(A, M, K, U, cfg)
        idx = [0, 1, 2] if mode == "block" else [1]
        want = np.linalg.solve(Ad, M.to_dense() @ rs.vectors[:, idx]) * rs.values[idx]
        assert np.linalg.norm(X - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("solver", ["vcycle", "builtin_cg"])
    def test_tracked_steps_meet_inner_tol_per_column(self, solver):
        A, M, K = self._problem()
        calls = []
        vcycle = gmg.hierarchy_solver(gmg.build_hierarchy("interval", 3, 5))

        def recorded(b, **kwargs):
            calls.append(kwargs)
            return vcycle.solve(b, **kwargs)

        for track in (False, True):
            calls.clear()
            cfg = IpmConfig(k=2, track_exact=track,
                            inner_solve=recorded if solver == "vcycle" else None)
            U = seeded_start(A.n, 2, M, 5)
            for _ in range(3):
                rs, X = ipm_block_step(A, M, K, U, cfg)
                LMU = rs.values[:2] * M.matvec(rs.vectors[:, :2])
                res = np.linalg.norm(LMU - A.matvec(X), axis=0)
                if track or solver == "builtin_cg":
                    assert np.all(res <= 1e-12 * np.linalg.norm(LMU, axis=0))
                U = X
            if solver == "vcycle":
                # untracked steps leave the stop to the solver
                assert len(calls) == 3
                assert all(c.keys() == ({"tol"} if track else set()) for c in calls)
                if track:
                    assert all(np.shape(c["tol"]) == (2,) for c in calls)

    def test_tracked_run_passes_per_column_tolerances(self):
        A, M, K = self._problem()
        vcycle = gmg.hierarchy_solver(gmg.build_hierarchy("interval", 3, 5))
        for track in (False, True):
            calls = []

            def recorded(b, *args, **kwargs):
                calls.append((args, kwargs))
                return vcycle.solve(b, *args, **kwargs)

            report = ipm_run(A, M, K, None, IpmConfig(k=2, track_exact=track,
                                                      inner_solve=recorded))
            assert report.status == "converged" and calls
            if track:
                assert all(args == () and np.shape(kw["tol"]) == (2,) for args, kw in calls)
            else:
                assert all(args == () and kw == {} for args, kw in calls)

    def test_zero_residual_column_is_left_as_is(self):
        # exact eigenvectors inside span(K): R = 0, its tolerance 1 is met
        # by the zero start, and X = U
        A = diag_problem(range(1, 11))
        K = orthonormalize(np.eye(10)[:, :4])
        calls = []

        def recorded(b, tol=None):
            calls.append(tol)
            return cg_solve(A, b, tol=tol)

        rs, X = ipm_block_step(A, None, K, np.eye(10)[:, :2],
                               IpmConfig(k=2, track_exact=True, inner_solve=recorded))
        assert np.array_equal(X, rs.vectors[:, :2])
        assert len(calls) == 1 and np.all(calls[0] == 1.0)


class TestIpmRun:
    def test_already_converged(self, rng):
        A = make_spd(rng, 10)
        exact = exact_eigenset(A)
        K = orthonormalize(rng.standard_normal((10, 3)))
        report = ipm_run(A, None, K, exact.vectors[:, :2], IpmConfig(k=2))
        assert report.status == "converged"
        assert len(report.records) == 1
        assert max(report.records[0].residuals) <= 1e-10

    def test_converging_step_skips_its_inner_solve_unless_tracked(self):
        hier = gmg.build_hierarchy("interval", 3, 5)
        pencils, prolongations = gmg.assemble_hierarchy(hier)
        A, M = pencils[-1].A, pencils[-1].M
        K = gmg.coarse_space(pencils, prolongations, 4, 2)
        runs = {}
        for track in (False, True):
            calls = []

            def counting_solve(b, **kwargs):
                # a tracked run passes its per-column tolerance, which this
                # spy ignores, so both runs take the same steps
                assert ("tol" in kwargs) == track
                calls.append(b.shape)
                return cg_solve(A, b)

            report = ipm_run(A, M, K, None, IpmConfig(k=2, track_exact=track,
                                                      inner_solve=counting_solve))
            assert report.status == "converged" and len(report.records) > 1
            runs[track] = report, len(calls)
        (plain, plain_calls), (tracked, tracked_calls) = runs[False], runs[True]
        assert plain_calls == len(plain.records) - 1
        assert tracked_calls == len(tracked.records)
        assert tracked.records[-1].energy_err is not None
        assert [r.lambdas for r in plain.records] == [r.lambdas for r in tracked.records]
        assert [r.residuals for r in plain.records] == [r.residuals for r in tracked.records]
        assert plain.status == tracked.status

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

    def test_track_exact_above_dense_limit_warns(self, monkeypatch):
        monkeypatch.setattr(inverse_power, "DENSE_LIMIT", 50)
        A = diag_problem(range(1, 64))
        K = orthonormalize(np.eye(63)[:, :4])
        cfg = IpmConfig(k=2, seed=0, track_exact=True)
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

    @pytest.mark.parametrize("shape", [(2, 8), (8,)], ids=["transposed", "vector"])
    def test_start_block_must_be_n_by_k(self, shape):
        # a k x n block or a 1-D vector is refused, not reinterpreted
        A = diag_problem(range(1, 9))
        K = orthonormalize(np.eye(8)[:, :3])
        k = shape[0] if len(shape) == 2 else 1
        msg = f"U0 has shape {shape}; expected (n, k) = (8, {k})"
        with pytest.raises(ConfigError, match=re.escape(msg)):
            ipm_run(A, None, K, np.ones(shape), IpmConfig(k=k))

    @pytest.mark.parametrize("max_outer", [0, -1])
    def test_max_outer_below_one_rejected(self, max_outer):
        A = diag_problem(range(1, 9))
        K = orthonormalize(np.eye(8)[:, :3])
        with pytest.raises(ConfigError, match="max_outer"):
            ipm_run(A, None, K, None, IpmConfig(k=2, max_outer=max_outer))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_falling_ritz_value_is_progress(self, seed):
        # single mode on the unit-square pencil (n = 961) with a 9-dimensional
        # coarse space, following the top pair of span(K) + span(u): lambda
        # falls from about 8500 to about 320 in three steps while the
        # residual rises, which a residual-only rule called stagnation after
        # 6 steps
        hier = gmg.build_hierarchy("unit-square", 1, 5)
        pencils, prolongations = gmg.assemble_hierarchy(hier)
        K = gmg.coarse_space(pencils, prolongations, 4, 1)
        solver = gmg.VCycleSolver([p.A for p in pencils[3:]], prolongations[3:])
        cfg = IpmConfig(mode="single", target_index=9, seed=seed,
                        inner_solve=solver.solve)
        report = ipm_run(pencils[4].A, pencils[4].M, K, None, cfg)
        lams = [r.lambdas[0] for r in report.records]
        res = [r.residuals[0] for r in report.records]
        assert lams[2] < 0.1 * lams[0] and res[2] > res[0]
        assert len(report.records) > 6
        # a stagnant run stops after 5 steps in which neither lambda nor
        # the residual fell below its best so far
        assert report.status == "stagnation"
        assert min(lams[-5:]) >= min(lams[:-5]) * (1.0 - 1e-12)
        assert min(res[-5:]) >= min(res[:-5]) * (1.0 - 1e-12)

    @pytest.mark.parametrize("target", [-1, 31, 40])
    def test_single_target_out_of_range(self, target):
        A = diag_problem(range(1, 32))
        K = orthonormalize(np.eye(31)[:, :4])
        cfg = IpmConfig(mode="single", target_index=target, track_exact=True)
        with pytest.raises(ConfigError, match="target_index"):
            ipm_run(A, None, K, None, cfg)


class TestSlowContraction:
    """An untracked step whose worst residual falls by less than
    _SLOW_CONTRACTION hands the next step [U + E, U, U_prev]; the plain
    step, which hands over U + E alone, is the run with the constant set to
    infinity."""

    SLOW = inverse_power._SLOW_CONTRACTION

    @staticmethod
    def _amg2d():
        # n = 225 square, AMG coarse space at aggregation depth 2 (m = 13)
        # and PCG with one AMG V-cycle as preconditioner, k = 3
        pencil = gmg.assemble_p1(gmg.build_hierarchy("unit-square", 1, 4).levels[-1])
        hier = amg.amg_setup(pencil.A, pencil.M)
        K = amg.amg_coarse_space(hier, 2)
        assert (pencil.A.n, K.dim) == (225, 13)
        return pencil.A, pencil.M, K, amg.AmgVCycleSolver(hier).solve, 3

    @staticmethod
    def _gmg2d():
        # n = 961 square, K = level 3 (m = 225), V-cycle over levels 3-4, k = 4
        pencils, prolongations = gmg.assemble_hierarchy(
            gmg.build_hierarchy("unit-square", 1, 5))
        K = gmg.coarse_space(pencils, prolongations, 4, 3)
        solver = gmg.VCycleSolver([p.A for p in pencils[3:]], prolongations[3:])
        return pencils[4].A, pencils[4].M, K, solver.solve, 4

    @staticmethod
    def _gmg2d_default():
        # the CLI's default for the n = 961 square: K = level 2 (m = 49) and
        # a V-cycle over every level, k = 4
        hier = gmg.build_hierarchy("unit-square", 1, 5)
        pencils, prolongations = gmg.assemble_hierarchy(hier)
        K = gmg.coarse_space(pencils, prolongations, 4, 2)
        assert (pencils[4].A.n, K.dim) == (961, 49)
        return pencils[4].A, pencils[4].M, K, gmg.hierarchy_solver(hier).solve, 4

    @staticmethod
    def _spied_run(monkeypatch, problem, threshold, track=False):
        """The run's report and the column count of the block each step
        hands _enriched_ritz."""
        A, M, K, solve, k = problem
        monkeypatch.setattr(inverse_power, "_SLOW_CONTRACTION", threshold)
        widths = []

        def spy(A, M, K, U, *args):
            widths.append(U.shape[1])
            return _enriched_ritz(A, M, K, U, *args)

        monkeypatch.setattr(inverse_power, "_enriched_ritz", spy)
        cfg = IpmConfig(k=k, residual_tol=1e-10, seed=0, track_exact=track,
                        inner_solve=solve)
        return ipm_run(A, M, K, None, cfg), widths

    def test_amg2d_converges_faster_to_the_plain_values(self, monkeypatch):
        plain, _ = self._spied_run(monkeypatch, self._amg2d(), np.inf)
        report, widths = self._spied_run(monkeypatch, self._amg2d(), self.SLOW)
        assert plain.status == report.status == "converged"
        assert len(report.records) <= 9 < len(plain.records)
        assert np.max(np.abs(report.final_values - plain.final_values)
                      / plain.final_values) <= 1e-10
        assert all(len(r.lambdas) == len(r.residuals) == 3 for r in report.records)
        # step l + 1 gets the Ritz vectors of steps l and l - 1 too exactly
        # when step l cut the worst residual by less than the constant, and
        # every step after the first such l follows g = 3 guard pairs
        worst = [max(r.residuals) for r in report.records]
        slow = [b > self.SLOW * a for a, b in zip(worst, worst[1:])]
        follow, expected = [3, 3], [3, 3]  # pairs followed by, and blocks of, steps 1, 2
        for s in slow[:-1]:
            expected.append(follow[-1] + (follow[-1] + follow[-2] if s else 0))
            follow.append(6 if s or follow[-1] == 6 else 3)
        assert widths == expected
        assert any(slow)

    @pytest.mark.parametrize("make", ["_gmg2d_default", "_amg2d"])
    def test_k2_cluster_converges_to_the_wider_block_values(self, make):
        # k = 2 splits the near-degenerate pair lambda_2 ~ lambda_3, where
        # the plain step and the step on K + span(U + E, U) end max_iter
        A, M, K, solve, wide = getattr(self, make)()
        pair, block = (ipm_run(A, M, K, None, IpmConfig(k=k, inner_solve=solve))
                       for k in (2, wide))
        assert pair.status == block.status == "converged"
        exact = block.final_values[:2]
        assert np.max(np.abs(pair.final_values - exact) / exact) <= 1e-10

    def test_gmg2d_report_is_the_plain_steps(self, monkeypatch):
        plain, _ = self._spied_run(monkeypatch, self._gmg2d(), np.inf)
        report, widths = self._spied_run(monkeypatch, self._gmg2d(), self.SLOW)
        assert report.to_json() == plain.to_json()
        assert len(report.records) == 8 and set(widths) == {4}

    def test_tracked_and_first_steps_take_k_columns(self, monkeypatch):
        problem = self._amg2d()
        # a constant every step exceeds widens no step of a tracked run, and
        # neither the first step of an untracked one nor the step after it,
        # which has no earlier step to compare with
        tracked, widths = self._spied_run(monkeypatch, problem, 0.0, track=True)
        assert tracked.status == "converged"
        assert widths == [3] * len(tracked.records)
        _, widths = self._spied_run(monkeypatch, problem, 0.0)
        # k + g = 6 pairs from step 3 on: [U + E, U, U_prev] of 6 + 6 + 3
        # columns at step 4 and of 6 + 6 + 6 from step 5 on
        assert widths[:4] == [3, 3, 9, 15] and set(widths[4:]) == {18}
        widths.clear()
        A, M, K, solve, k = problem
        ipm_block_step(A, M, K, seeded_start(A.n, k, M, 0), IpmConfig(k=k))
        assert widths == [3]

    def test_guard_pairs_are_capped_by_n(self, rng, monkeypatch):
        # g = min(k, _GUARD_PAIRS) = 4 would make k + g + dim K = 13 > n = 12,
        # so the step after the first slow one follows k + 3 pairs
        A = make_spd(rng, 12)
        K = orthonormalize(rng.standard_normal((12, 5)))
        monkeypatch.setattr(inverse_power, "_SLOW_CONTRACTION", 0.0)
        vectors = []

        def spy(A, M, K, U, count, wanted, shifts):
            vectors.append(wanted)
            return _enriched_ritz(A, M, K, U, count, wanted, shifts)

        monkeypatch.setattr(inverse_power, "_enriched_ritz", spy)
        report = ipm_run(A, None, K, None, IpmConfig(k=4, inner_solve=lambda b: cg_solve(A, b)))
        assert report.status == "converged"
        assert vectors == [4, 4, 7] and len(report.records) == 3
        assert all(len(r.lambdas) == len(r.residuals) == 4 for r in report.records)
        exact = exact_eigenset(A)
        assert np.max(np.abs(report.final_values - exact.values[:4])
                      / exact.values[:4]) <= 1e-10


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


@pytest.mark.parametrize("with_mass", [False, True])
def test_theoretical_rate_single_is_scale_invariant(rng, with_mass):
    # lambda, 1/delta and 1/eta^2 all scale with A, so the rate of
    # (cA, M) is the rate of (A, M)
    A = make_spd(rng, 16)
    M = make_spd(rng, 16, lo=0.5, hi=2.0) if with_mass else None
    K = orthonormalize(rng.standard_normal((16, 4)), weight=M)
    u = rng.standard_normal((16, 1))
    rates = []
    for c in (1.0, 100.0):
        Ac = SparseSymMatrix.from_dense(c * A.to_dense())
        oracle = EtaOracle(Ac, M)
        rs, _ = ipm_block_step(Ac, M, K, u, IpmConfig(mode="single", target_index=1))
        eta = oracle.eta(np.column_stack([K.columns, u]))
        rates.append(theoretical_rate_single(float(oracle.exact.values[1]),
                                             float(oracle.exact.values[0]), rs, 1, eta))
    assert rates[1] == pytest.approx(rates[0], rel=1e-9)
