"""P1 finite element hierarchies, assembly, prolongation, the geometric
V-cycle and the coarse-space eigensolver."""

import math
from dataclasses import replace

import numpy as np
import pytest

from subeig import gmg
from subeig.core import cg_solve, norm
from subeig.exceptions import ConfigError, ConvergenceError
from subeig.inverse_power import IpmConfig
from subeig.projection import exact_eigenset


class TestHierarchy:
    def test_interval_counts(self):
        hier = gmg.build_hierarchy("interval", 1, 3)
        counts = [int(lvl.interior.sum()) for lvl in hier.levels]
        assert counts == [1, 3, 7]

    def test_square_counts(self):
        hier = gmg.build_hierarchy("unit-square", 1, 2)
        counts = [int(lvl.interior.sum()) for lvl in hier.levels]
        assert counts == [1, 9]

    def test_nestedness(self):
        hier = gmg.build_hierarchy("unit-square", 1, 3)
        for coarse, fine in zip(hier.levels, hier.levels[1:]):
            fine_set = {tuple(np.round(v, 12)) for v in fine.vertices}
            for v in coarse.vertices:
                assert tuple(np.round(v, 12)) in fine_set
            assert fine.h == pytest.approx(coarse.h / 2)

    def test_bad_args(self):
        with pytest.raises(ConfigError):
            gmg.build_hierarchy("interval", 0, 2)
        with pytest.raises(ConfigError):
            gmg.build_hierarchy("triangle", 1, 2)
        with pytest.raises(ConfigError):
            gmg.build_hierarchy("unit-square", 63, 5, max_unknowns=10000)


class TestAssembly:
    def test_1d_stencils(self):
        mesh = gmg._interval_level(3)  # h = 1/4
        pencil = gmg.assemble_p1(mesh)
        h = 0.25
        A_ref = (1.0 / h) * (2 * np.eye(3) - np.eye(3, k=1) - np.eye(3, k=-1))
        M_ref = (h / 6.0) * (4 * np.eye(3) + np.eye(3, k=1) + np.eye(3, k=-1))
        assert np.allclose(pencil.A.to_dense(), A_ref, atol=1e-14)
        assert np.allclose(pencil.M.to_dense(), M_ref, atol=1e-14)

    def test_1d_eigenvalue_accuracy(self):
        pencil = gmg.assemble_p1(gmg._interval_level(15))  # h = 1/16
        exact = exact_eigenset(pencil.A, pencil.M)
        assert abs(exact.values[0] - math.pi ** 2) <= 0.005 * math.pi ** 2

    def test_2d_eigenvalue_accuracy(self):
        ref = 2 * math.pi ** 2
        errs = []
        for n in (7, 15):  # h = 1/8 and h = 1/16
            pencil = gmg.assemble_p1(gmg._square_level(n))
            exact = exact_eigenset(pencil.A, pencil.M)
            errs.append(abs(exact.values[0] - ref) / ref)
        assert errs[0] < 0.04
        assert errs[1] < 0.01
        # O(h^2): error drops by roughly 4x per halving
        assert errs[0] / errs[1] > 3.0

    def test_eigenvalues_decrease_under_refinement(self):
        prev = None
        for n in (7, 15, 31):
            pencil = gmg.assemble_p1(gmg._interval_level(n))
            vals = exact_eigenset(pencil.A, pencil.M).values[:3]
            if prev is not None:
                assert np.all(vals <= prev + 1e-12)
            prev = vals


class TestProlongation:
    def test_galerkin_consistency(self):
        hier = gmg.build_hierarchy("interval", 3, 3)
        pencils, prolongations = gmg.assemble_hierarchy(hier)
        for lvl, P in enumerate(prolongations):
            Af, Ac = pencils[lvl + 1].A.to_dense(), pencils[lvl].A.to_dense()
            Mf, Mc = pencils[lvl + 1].M.to_dense(), pencils[lvl].M.to_dense()
            Pd = P.toarray()
            assert np.abs(Pd.T @ Af @ Pd - Ac).max() <= 1e-12 * np.abs(Ac).max()
            assert np.abs(Pd.T @ Mf @ Pd - Mc).max() <= 1e-12 * np.abs(Mc).max()

    def test_interpolation_stencil_1d(self):
        hier = gmg.build_hierarchy("interval", 3, 2)
        P = gmg.prolongation(hier.levels[0], hier.levels[1]).toarray()
        # coarse hat j maps to fine values (..., 1/2, 1, 1/2, ...)
        col = P[:, 1]
        center = int(np.argmax(col))
        assert col[center] == 1.0
        assert col[center - 1] == 0.5 and col[center + 1] == 0.5

    def test_coarse_space_reproduces_coarse_functions(self):
        hier = gmg.build_hierarchy("interval", 3, 3)
        pencils, prolongations = gmg.assemble_hierarchy(hier)
        K = gmg.coarse_space(pencils, prolongations, 2, 0)
        # a coarse function lives inside the span exactly
        v = prolongations[1] @ (prolongations[0] @ np.array([1.0, -2.0, 0.5]))
        from subeig.projection import project

        assert np.allclose(project(K, v), v, atol=1e-10)


class TestVCycle:
    def _solver(self, n_levels=7):
        hier = gmg.build_hierarchy("interval", 3, n_levels)
        pencils, prolongations = gmg.assemble_hierarchy(hier)
        return gmg.VCycleSolver([p.A for p in pencils], prolongations), pencils[-1].A

    def test_zero_rhs(self):
        solver, _ = self._solver(3)
        assert np.array_equal(solver.solve(np.zeros(15)), np.zeros(15))

    def test_contraction_factor(self):
        # V(2,2) on the 1D Laplacian n = 255: classical multigrid efficiency
        solver, A = self._solver(7)
        rng = np.random.default_rng(0)
        b = rng.standard_normal(A.n)
        x = np.zeros(A.n)
        r_prev = norm(b)
        for _ in range(5):
            x = solver.cycle(b, x0=x)
            r = norm(b - A.matvec(x))
            assert r / r_prev <= 0.2
            r_prev = r

    def test_agrees_with_cg(self):
        solver, A = self._solver(5)
        rng = np.random.default_rng(1)
        b = rng.standard_normal(A.n)
        x_mg = solver.solve(b, tol=1e-12)
        x_cg = cg_solve(A, b, tol=1e-12)
        assert norm(x_mg - x_cg) <= 1e-10 * norm(x_cg)

    def test_one_level_is_the_coarse_solve(self):
        A = gmg.assemble_p1(gmg._interval_level(15)).A
        solver = gmg.VCycleSolver([A], [])
        b = np.random.default_rng(2).standard_normal(A.n)
        assert norm(b - A.matvec(solver.cycle(b))) <= 1e-12 * norm(b)
        x = solver.solve(b, tol=1e-12, max_cycles=1)
        assert norm(b - A.matvec(x)) <= 1e-12 * norm(b)

    def test_cycle_budget_exhausted(self):
        solver, A = self._solver(7)
        b = np.random.default_rng(3).standard_normal(A.n)
        with pytest.raises(ConvergenceError):
            solver.solve(b, tol=1e-12, max_cycles=1)


class TestGmgEigensolve:
    def test_converges_to_fine_grid_values(self):
        hier = gmg.build_hierarchy("interval", 3, 5)  # n = 63
        run = gmg.gmg_eigensolve(hier, 2, 2)
        assert run.report.status == "converged"
        pencils, _ = gmg.assemble_hierarchy(hier)
        exact = exact_eigenset(pencils[-1].A, pencils[-1].M)
        assert np.max(np.abs(run.report.final_values - exact.values[:2])) \
            <= 1e-8 * float(exact.values[1])
        assert run.h == pytest.approx(1.0 / 64)
        assert run.H == pytest.approx(1.0 / 16)

    def test_tracked_run_contracts(self):
        hier = gmg.build_hierarchy("interval", 3, 5)
        cfg = IpmConfig(k=2, track_exact=True, seed=0)
        run = gmg.gmg_eigensolve(hier, 2, 2, cfg)
        assert not run.mesh_condition_violated
        assert run.mean_rate is not None and run.mean_rate < 1.0
        for rec in run.report.records:
            if rec.measured_rate is not None and rec.theo_rate is not None:
                assert rec.measured_rate <= rec.theo_rate * (1 + 1e-9) + 1e-12

    def test_caller_config_unchanged(self):
        hier = gmg.build_hierarchy("interval", 3, 4)
        cfg = IpmConfig(k=1, seed=0)
        before = replace(cfg)
        gmg.gmg_eigensolve(hier, 2, 1, cfg)
        assert cfg == before

    def test_coarse_level_must_be_coarser(self):
        hier = gmg.build_hierarchy("interval", 3, 3)
        pencils, prolongations = gmg.assemble_hierarchy(hier)
        with pytest.raises(ConfigError):
            gmg.coarse_space(pencils, prolongations, 1, 2)
