"""Algebraic multigrid: strength graph, aggregation, prolongation,
hierarchy setup, V-cycle and the ideal coarse-space rate estimates."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from subeig import amg, gmg
from subeig.core import SparseSymMatrix, cg_solve, norm, orthonormalize
from subeig.exceptions import ConfigError, NotPositiveDefiniteError
from subeig.inverse_power import (
    IpmConfig,
    energy_error,
    ipm_block_step,
    ipm_run,
    seeded_start,
)
from subeig.projection import EtaOracle, exact_eigenset

from .conftest import laplacian_1d, tridiag


class TestStrengthGraph:
    def test_diagonal_matrix_empty(self):
        A = SparseSymMatrix.from_dense(np.diag([1.0, 2.0, 3.0]))
        assert amg.strength_graph(A).nnz == 0

    def test_chain_all_strong(self):
        G = amg.strength_graph(tridiag(9), theta_s=0.25)
        # chain graph: 2*(n-1) directed strong edges
        assert G.nnz == 16

    def test_zero_threshold_keeps_pattern(self):
        A = tridiag(5)
        G = amg.strength_graph(A, theta_s=0.0)
        assert G.nnz == 8  # every stored off-diagonal

    def test_validation(self):
        with pytest.raises(ConfigError):
            amg.strength_graph(tridiag(4), theta_s=1.0)
        with pytest.raises(NotPositiveDefiniteError):
            amg.strength_graph(SparseSymMatrix.from_dense(np.diag([1.0, -1.0])))


class TestAggregate:
    def test_chain_of_nine(self):
        aggs = amg.aggregate(amg.strength_graph(tridiag(9)))
        assert aggs.n_c == 3
        # greedy seeding from the chain end yields sizes {2, 3, 4}
        assert sorted(aggs.sizes().tolist()) == [2, 3, 4]

    def test_empty_graph_singletons(self):
        G = sp.csr_matrix((5, 5))
        aggs = amg.aggregate(G)
        assert aggs.n_c == 5
        assert np.all(aggs.sizes() == 1)

    def test_complete_graph_one_aggregate(self):
        A = SparseSymMatrix.from_dense(4 * np.eye(4) - np.ones((4, 4)) + np.eye(4))
        aggs = amg.aggregate(amg.strength_graph(A))
        assert aggs.n_c == 1

    def test_partition_property(self):
        aggs = amg.aggregate(amg.strength_graph(laplacian_1d(40)))
        assert int(aggs.sizes().sum()) == 40
        assert np.all(aggs.sizes() > 0)


class TestTentativeProlongation:
    def test_two_aggregates(self):
        aggs = amg.AggregateSet(assignment=np.array([0, 0, 1]), n_c=2)
        P = amg.tentative_prolongation(aggs).toarray()
        c = 1.0 / math.sqrt(2.0)
        assert np.allclose(P, [[c, 0.0], [c, 0.0], [0.0, 1.0]])

    def test_orthonormal_columns(self):
        aggs = amg.aggregate(amg.strength_graph(tridiag(20)))
        P = amg.tentative_prolongation(aggs)
        assert np.abs((P.T @ P).toarray() - np.eye(aggs.n_c)).max() <= 1e-14

    def test_constant_in_range(self):
        aggs = amg.aggregate(amg.strength_graph(tridiag(12)))
        P = amg.tentative_prolongation(aggs)
        ones = np.ones(12)
        coeff = sp.linalg.lsqr(P, ones)[0]
        assert np.allclose(P @ coeff, ones, atol=1e-12)


class TestAmgSetup:
    def test_chain_level_sizes(self):
        hier = amg.amg_setup(laplacian_1d(255))
        sizes = [lvl.A.n for lvl in hier.levels]
        assert sizes[0] == 255
        # roughly factor-3 coarsening per level
        for a, b in zip(sizes, sizes[1:]):
            assert 2.0 <= a / b <= 4.5
        assert hier.n_levels >= 3

    def test_galerkin_identity(self):
        hier = amg.amg_setup(laplacian_1d(60))
        for lvl in range(hier.n_levels - 1):
            A_f = hier.levels[lvl].A.to_dense()
            A_c = hier.levels[lvl + 1].A.to_dense()
            P = hier.levels[lvl].P.toarray()
            assert np.abs(P.T @ A_f @ P - A_c).max() <= 1e-12 * np.abs(A_c).max()

    def test_2d_setup_depth(self):
        pencil = gmg.assemble_p1(gmg._square_level(63))  # n = 3969
        hier = amg.amg_setup(pencil.A, pencil.M)
        assert hier.n_levels >= 3

    def test_summary_json(self):
        import json

        hier = amg.amg_setup(laplacian_1d(50))
        payload = json.loads(hier.summary_json())
        assert payload["levels"] == hier.n_levels
        assert payload["sizes"][0] == 50
        assert payload["operator_complexity"] >= 1.0


class TestVCycle:
    def test_zero_rhs(self):
        hier = amg.amg_setup(laplacian_1d(100))
        assert np.array_equal(amg.AmgVCycleSolver(hier).solve(np.zeros(100)),
                              np.zeros(100))

    def test_agrees_with_cg(self):
        A = laplacian_1d(255)
        hier = amg.amg_setup(A)
        rng = np.random.default_rng(0)
        b = rng.standard_normal(255)
        x = amg.AmgVCycleSolver(hier).solve(b, tol=1e-12)
        ref = cg_solve(A, b, tol=1e-12)
        assert norm(x - ref) <= 1e-10 * norm(ref)

    def test_2d_cycle_contraction(self):
        pencil = gmg.assemble_p1(gmg._square_level(31))
        hier = amg.amg_setup(pencil.A, pencil.M)
        solver = amg.AmgVCycleSolver(hier)
        rng = np.random.default_rng(1)
        b = rng.standard_normal(pencil.A.n)
        x = np.zeros(pencil.A.n)
        r_prev = norm(b)
        factors = []
        for _ in range(8):
            x = solver.cycle(b, x0=x)
            r = norm(b - pencil.A.matvec(x))
            factors.append(r / r_prev)
            r_prev = r
        assert max(factors) < 1.0
        # regression bound for the plain-aggregation V(2,2) cycle
        assert max(factors) <= 0.8


class TestIdealCoarseSpace:
    def test_eta_bound(self):
        pencil = gmg.assemble_p1(gmg._interval_level(80))
        A, M = pencil.A, pencil.M
        exact = exact_eigenset(A, M)
        oracle = EtaOracle(A, M)
        for nc in (4, 8, 16):
            K = amg.ideal_coarse_space(A, M, nc)
            assert oracle.eta(K) <= 1.0 / math.sqrt(exact.values[nc]) + 1e-10

    def test_nc_validation(self):
        A = laplacian_1d(10)
        with pytest.raises(ConfigError):
            amg.ideal_coarse_space(A, None, 10)

    def test_rate_monotone_in_nc(self):
        # one-step measured contraction improves with a richer coarse space
        A = laplacian_1d(48)
        exact = exact_eigenset(A)
        rates = {}
        for nc in (4, 8):
            K = orthonormalize(exact.vectors[:, :nc])
            U = seeded_start(48, 2, None, 9)
            err0 = energy_error(A, exact.vectors[:, :2], U)
            _, U1 = ipm_block_step(A, None, K, U, IpmConfig(k=2, inner_tol=1e-12))
            rates[nc] = energy_error(A, exact.vectors[:, :2], U1) / err0
        assert rates[8] <= rates[4] + 0.05


class TestAmgCoarseSpace:
    def test_depth_zero_is_full_space(self):
        A = laplacian_1d(20)
        hier = amg.amg_setup(A)
        K = amg.amg_coarse_space(hier, 0)
        from subeig.projection import ritz

        rs = ritz(A, None, K)
        exact = exact_eigenset(A)
        assert np.allclose(rs.values, exact.values, rtol=1e-10)

    def test_depth_one_upper_bound(self):
        A = laplacian_1d(30)
        hier = amg.amg_setup(A)
        K = amg.amg_coarse_space(hier, 1)
        from subeig.projection import ritz

        rs = ritz(A, None, K)
        exact = exact_eigenset(A)
        assert float(exact.values[0]) <= float(rs.values[0]) * (1 + 1e-11)

    def test_eigensolve_with_amg_solver(self):
        pencil = gmg.assemble_p1(gmg._interval_level(80))
        A, M = pencil.A, pencil.M
        hier = amg.amg_setup(A, M)
        solver = amg.AmgVCycleSolver(hier)
        K = amg.amg_coarse_space(hier, 1)
        cfg = IpmConfig(k=2, seed=0,
                        inner_solve=lambda b: solver.solve(b, tol=1e-12))
        report = ipm_run(A, M, K, None, cfg)
        assert report.status == "converged"
        exact = exact_eigenset(A, M)
        assert np.max(np.abs(report.final_values - exact.values[:2])) \
            <= 1e-8 * float(exact.values[1])


def test_ideal_rate_factor_positive():
    exact_values = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    mu_new = 1.0 / np.array([1.0, 2.1, 3.2, 4.5])
    factor = amg.ideal_rate_factor(exact_values, 1.0005, mu_new, 1, 3)
    assert factor > 0.0
