"""Algebraic multigrid: strength graph, aggregation, prolongation,
hierarchy setup, V-cycle and the ideal coarse-space rate estimates."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from subeig import amg, gmg
from subeig.core import CoarseSpace, SparseSymMatrix, cg_solve, galerkin, norm, orthonormalize
from subeig.exceptions import ConfigError, NotPositiveDefiniteError
from subeig.inverse_power import (
    IpmConfig,
    energy_error,
    ipm_block_step,
    ipm_run,
    seeded_start,
)
from subeig.projection import EtaOracle, exact_eigenset

from . import amg_reference
from .conftest import laplacian_1d, tridiag


class TestStrengthGraph:
    def test_diagonal_matrix_empty(self):
        A = SparseSymMatrix.from_dense(np.diag([1.0, 2.0, 3.0]))
        assert amg.strength_graph(A).nnz == 0

    def test_chain_all_strong(self):
        G = amg.strength_graph(tridiag(9))
        # chain graph: 2*(n-1) directed strong edges
        assert G.nnz == 16

    def test_validation(self):
        with pytest.raises(NotPositiveDefiniteError,
                           match="not SPD: row 1 has the nonpositive diagonal entry -1"):
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

    @pytest.mark.parametrize("n", [9, 80, 225])
    def test_matches_loop_reference(self, n):
        aggs = amg.aggregate(amg.strength_graph(laplacian_1d(n)))
        P = amg.tentative_prolongation(aggs)
        ref = amg_reference.tentative_prolongation(aggs)
        # bit for bit
        assert np.array_equal(P.indptr, ref.indptr)
        assert np.array_equal(P.indices, ref.indices)
        assert np.array_equal(P.data, ref.data)


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

    @pytest.mark.parametrize("n", [3000, 4095])
    def test_1d_pencil_products_are_symmetric(self, n):
        # P^T S P rounds apart at (i, j) and (j, i); at n = 4095 the raw
        # product's asymmetry (4.3e-16) was rejected by from_csr
        pencil = gmg.assemble_p1(gmg._interval_level(n))
        hier = amg.amg_setup(pencil.A, pencil.M)
        assert hier.n_levels >= 6
        for lvl in hier.levels:
            assert (lvl.A.csr != lvl.A.csr.T).nnz == 0

    def test_deep_coarse_space_on_1d_pencil(self):
        # the coarse pencil at depth 5 of n = 3000 was rejected by from_csr
        # in ritz_space (asymmetry 6.9e-15)
        pencil = gmg.assemble_p1(gmg._interval_level(3000))
        hier = amg.amg_setup(pencil.A, pencil.M)
        K = amg.amg_coarse_space(hier, 5)
        assert K.dim == 13
        assert K.gram_defect() <= 1e-12
        assert np.all(np.diff(K.theta) > 0)


def _test_pencils():
    return {
        "1d-80": gmg.assemble_p1(gmg._interval_level(80)),
        "2d-225": gmg.assemble_p1(gmg._square_level(15)),
        "2d-961": gmg.assemble_p1(gmg._square_level(31)),
    }


class TestSmoothedAggregation:
    """The hierarchy keeps the aggregates of the tentative chain and
    smooths each of their prolongations by one damped-Jacobi step."""

    @pytest.mark.parametrize("name", ["1d-80", "2d-225", "2d-961"])
    def test_aggregates_match_tentative_chain(self, name):
        # the level sizes; test_prolongation_is_one_jacobi_step compares
        # each level's P, and so its aggregates, with the chain's
        pencil = _test_pencils()[name]
        hier = amg.amg_setup(pencil.A, pencil.M)
        ref = amg_reference.tentative_chain(pencil.A)
        assert sum(lvl.P is not None for lvl in hier.levels) == len(ref)
        sizes = [lvl.A.n for lvl in hier.levels]
        assert sizes == [pencil.A.n] + [aggs.n_c for aggs, _ in ref]

    def test_fixed_sizes_of_the_unit_square(self):
        # the amg2d depth rule and the verify pencil rest on these sizes
        pencils = _test_pencils()
        for name, sizes in (("1d-80", [80, 27, 9]), ("2d-225", [225, 43, 13, 5])):
            hier = amg.amg_setup(pencils[name].A, pencils[name].M)
            assert [lvl.A.n for lvl in hier.levels] == sizes

    @pytest.mark.parametrize("name", ["1d-80", "2d-225", "2d-961"])
    def test_prolongation_is_one_jacobi_step(self, name):
        pencil = _test_pencils()[name]
        hier = amg.amg_setup(pencil.A, pencil.M)
        ref = amg_reference.tentative_chain(pencil.A)
        for lvl, (_, P_tent) in zip(hier.levels, ref):
            A = lvl.A.to_dense()
            d = np.diag(A)
            omega = (4.0 / 3.0) / np.max(np.sum(np.abs(A), axis=1) / d)
            P_tent = P_tent.toarray()
            expected = P_tent - omega * (A @ P_tent) / d[:, None]
            assert np.abs(lvl.P.toarray() - expected).max() <= 1e-14

    def test_galerkin_identity_with_mass(self):
        pencil = _test_pencils()["2d-225"]
        hier = amg.amg_setup(pencil.A, pencil.M)
        for fine, coarse in zip(hier.levels, hier.levels[1:]):
            P = fine.P.toarray()
            for S, S_c in ((fine.A, coarse.A), (fine.M, coarse.M)):
                ref = P.T @ S.to_dense() @ P
                assert np.abs(S_c.to_dense() - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_setup_forms_three_products_per_level(self, monkeypatch):
        # the tentative A, the smoothed A and M of every coarsened level;
        # the finest level holds the given pencil
        calls = []

        def counting(P, S=None):
            calls.append(S)
            return galerkin(P, S)

        monkeypatch.setattr(amg, "galerkin", counting)
        pencil = _test_pencils()["2d-225"]
        hier = amg.amg_setup(pencil.A, pencil.M)
        coarsened = sum(lvl.P is not None for lvl in hier.levels)
        assert coarsened == 3
        assert len(calls) == 3 * coarsened
        assert hier.levels[0].A is pencil.A and hier.levels[0].M is pencil.M

    def test_eta_below_tentative_space(self):
        pencil = _test_pencils()["1d-80"]
        A, M = pencil.A, pencil.M
        oracle = EtaOracle(A, M)
        K_smoothed = amg.amg_coarse_space(amg.amg_setup(A, M), 1)
        _, P_tent = amg_reference.tentative_chain(A)[0]
        K_tent = orthonormalize(P_tent.toarray(), weight=M)
        assert K_smoothed.dim == K_tent.dim == 27
        eta_smoothed, eta_tent = oracle.eta(K_smoothed), oracle.eta(K_tent)
        # measured: 0.034 against 0.255
        assert eta_smoothed < 0.25 * eta_tent


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

    def test_block_solve_matches_column_solves(self):
        pencil = gmg.assemble_p1(gmg._square_level(15))
        hier = amg.amg_setup(pencil.A, pencil.M)
        B = np.random.default_rng(2).standard_normal((pencil.A.n, 3))
        X = amg.AmgVCycleSolver(hier).solve(B, tol=1e-12)
        # a fresh solver per column, so each column solve starts cold
        cols = np.column_stack([amg.AmgVCycleSolver(hier).solve(B[:, j], tol=1e-12)
                                for j in range(3)])
        assert X.shape == B.shape
        assert np.abs(X - cols).max() <= 1e-12 * np.abs(cols).max()

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
        # regression bound for the aggregation cycle
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


class TestProlongationChain:
    """The coarse space applied through its chain of smoothed prolongations
    equals the one applied through their composed product."""

    @pytest.mark.parametrize("levels, depth", [(4, 2), (6, 8)])
    def test_chain_equals_composed_prolongation(self, levels, depth):
        pencil = gmg.assemble_p1(gmg.build_hierarchy("unit-square", 1, levels).levels[-1])
        hier = amg.amg_setup(pencil.A, pencil.M)
        K = amg.amg_coarse_space(hier, depth)
        P = hier.levels[0].P
        for lvl in hier.levels[1:depth]:
            P = P @ lvl.P
        composed = CoarseSpace(factors=(P.tocsr(),), Y=K.Y, theta=K.theta, weight=K.weight)
        assert len(K.factors) == depth and K.dim == P.shape[1]
        X = np.random.default_rng(depth).standard_normal((pencil.A.n, 5))
        Z = np.random.default_rng(levels).standard_normal((K.dim, 5))

        def close(a, b):
            return np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

        assert close(K.restrict(X), composed.restrict(X))
        assert close(K.prolong(Z), composed.prolong(Z))
        assert close(K.project_out(X), composed.project_out(X))
        assert close(K.columns, composed.columns)

    def test_coarse_stiffness_is_the_level_matrix(self):
        # Ritz values of the chain's Galerkin pencil are those of the
        # hierarchy's own coarse level matrix against the chained mass
        pencil = gmg.assemble_p1(gmg._square_level(15))
        hier = amg.amg_setup(pencil.A, pencil.M)
        K = amg.amg_coarse_space(hier, 2)
        A_H = hier.levels[2].A.to_dense()
        V = K.Y
        assert np.abs(V.T @ A_H @ V - np.diag(K.theta)).max() <= 1e-12 * K.theta[-1]


def test_ideal_rate_factor_positive():
    exact_values = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    mu_new = 1.0 / np.array([1.0, 2.1, 3.2, 4.5])
    factor = amg.ideal_rate_factor(exact_values, 1.0005, mu_new, 1, 3)
    assert factor > 0.0
