"""P1 finite element hierarchies, assembly, prolongation, the geometric
V-cycle and the coarse-space eigensolver."""

import math
from dataclasses import replace

import numpy as np
import pytest

from subeig import amg, gmg, verify
from subeig.core import _DENSE_CYCLE, cg_solve, norm
from subeig.exceptions import ConfigError, ConvergenceError, DimensionMismatchError
from subeig.inverse_power import IpmConfig
from subeig.projection import exact_eigenset

from . import assembly_reference as ref
from .vcycle_reference import VCycleReference


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


def _assert_same_csr(S, R):
    """S and R hold identical CSR arrays: same dtypes, same bits."""
    for attr in ("indptr", "indices", "data"):
        s, r = getattr(S, attr), getattr(R, attr)
        assert s.dtype == r.dtype and np.array_equal(s, r), attr


class TestArraySetupMatchesLoops:
    """The array-built setup path against the element loops of
    assembly_reference.py, bit for bit."""

    @pytest.mark.parametrize("domain", ["interval", "unit-square"])
    @pytest.mark.parametrize("n_levels", [1, 2, 3, 4, 5])
    def test_hierarchy(self, domain, n_levels):
        hier = gmg.build_hierarchy(domain, 1, n_levels)
        pencils, prolongations = gmg.assemble_hierarchy(hier)
        n = 1
        for lvl, mesh in enumerate(hier.levels):
            if domain == "unit-square":
                assert np.array_equal(mesh.elements, ref.square_elements(n))
            A_ref, M_ref = ref.assemble_p1(mesh)
            _assert_same_csr(pencils[lvl].A.csr, A_ref)
            _assert_same_csr(pencils[lvl].M.csr, M_ref)
            if lvl > 0:
                parents = ref.refine_parents(mesh.dim, (n - 1) // 2)
                assert mesh.parents.dtype == parents.dtype
                assert np.array_equal(mesh.parents, parents)
                _assert_same_csr(prolongations[lvl - 1],
                                 ref.prolongation(hier.levels[lvl - 1], mesh))
            n = 2 * n + 1

    @pytest.mark.parametrize("n", [2, 5, 30])
    def test_unstructured_coordinates(self, n):
        """Jittered interior vertices and grids that are not dyadic, so the
        element matrices round."""
        rng = np.random.default_rng(n)
        for mesh in (gmg._interval_level(n), gmg._square_level(n)):
            jitter = 0.2 / (n + 1) * rng.uniform(-1.0, 1.0, mesh.vertices.shape)
            mesh = replace(mesh, vertices=mesh.vertices + jitter * mesh.interior[:, None])
            pencil = gmg.assemble_p1(mesh)
            A_ref, M_ref = ref.assemble_p1(mesh)
            _assert_same_csr(pencil.A.csr, A_ref)
            _assert_same_csr(pencil.M.csr, M_ref)


class TestAssemblyOncePerHierarchy:
    def test_second_call_returns_the_same_objects(self):
        hier = gmg.build_hierarchy("unit-square", 1, 3)
        pencils, prolongations = gmg.assemble_hierarchy(hier)
        again = gmg.assemble_hierarchy(hier)
        assert again[0] is pencils and again[1] is prolongations
        assert isinstance(pencils, tuple) and isinstance(prolongations, tuple)
        # a second hierarchy of the same shape assembles its own
        other, _ = gmg.assemble_hierarchy(gmg.build_hierarchy("unit-square", 1, 3))
        assert other[-1].A is not pencils[-1].A

    def test_inverse_suite_assembles_each_level_once(self, monkeypatch):
        calls = {"assemble_p1": 0, "prolongation": 0}

        def counted(name):
            original = getattr(gmg, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(gmg, name, counted(name))
        verify.suite_inverse(seed=7)  # n = 63: levels of 3, 7, 15, 31, 63 unknowns
        assert calls == {"assemble_p1": 5, "prolongation": 4}


class TestDegenerateElements:
    def test_zero_length_interval(self):
        interior = np.array([False, True, True, False])
        mesh = gmg.MeshLevel(
            dim=1, vertices=np.array([[0.0], [0.5], [0.5], [1.0]]),
            elements=np.array([[0, 1], [1, 2], [2, 3]]), h=0.5,
            interior=interior, interior_index=gmg._index_map(interior),
        )
        with pytest.raises(DimensionMismatchError):
            gmg.assemble_p1(mesh)

    def test_zero_area_triangle(self):
        # the last triangle's vertices are collinear
        interior = np.array([False, False, False, True, False])
        mesh = gmg.MeshLevel(
            dim=2,
            vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [1.0, 1.0]]),
            elements=np.array([[0, 1, 3], [1, 4, 3], [1, 3, 2]]), h=1.0,
            interior=interior, interior_index=gmg._index_map(interior),
        )
        with pytest.raises(DimensionMismatchError):
            gmg.assemble_p1(mesh)


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
        V = K.columns  # M-orthonormal
        assert np.allclose(V @ (V.T @ K.weight.matvec(v)), v, atol=1e-10)


class TestVCycle:
    def _solver(self, n_levels=7):
        hier = gmg.build_hierarchy("interval", 3, n_levels)
        pencils, prolongations = gmg.assemble_hierarchy(hier)
        return gmg.VCycleSolver([p.A for p in pencils], prolongations), pencils[-1].A

    def test_zero_rhs(self):
        solver, _ = self._solver(3)
        assert np.array_equal(solver.solve(np.zeros(15)), np.zeros(15))

    def test_contraction_factor(self):
        # the Chebyshev-smoothed cycle on the 1D Laplacian n = 255: classical
        # multigrid efficiency
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

    def test_block_solve_matches_column_solves(self):
        solver, A = self._solver(5)
        B = np.random.default_rng(4).standard_normal((A.n, 3))
        X = solver.solve(B, tol=1e-12)
        # a fresh solver per column, so each column solve starts cold
        cols = np.column_stack([self._solver(5)[0].solve(B[:, j], tol=1e-12)
                                for j in range(3)])
        assert X.shape == B.shape
        assert np.abs(X - cols).max() <= 1e-12 * np.abs(cols).max()

    @pytest.mark.parametrize("k", [None, 4])
    def test_solve_leaves_b_unchanged(self, k):
        solver, A = self._solver(5)
        b = np.random.default_rng(5).standard_normal((A.n,) if k is None else (A.n, k))
        b_copy = b.copy()
        x = solver.solve(b, tol=1e-12)
        assert np.array_equal(b, b_copy)
        assert np.linalg.norm(b - A.matvec(x)) <= 1e-10 * np.linalg.norm(b)

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


def _amg_square_solver(levels):
    pencil = gmg.assemble_p1(gmg.build_hierarchy("unit-square", 1, levels).levels[-1])
    return amg.AmgVCycleSolver(amg.amg_setup(pencil.A, pencil.M))


def _gmg_solver(hier, coarse_level=0):
    pencils, prolongations = gmg.assemble_hierarchy(hier)
    return gmg.VCycleSolver([p.A for p in pencils[coarse_level:]],
                            prolongations[coarse_level:])


class TestDenseTail:
    """From the highest level with at most _DENSE_CYCLE unknowns down, the
    cycle is one dense product; it must equal the level-by-level cycle."""

    @pytest.mark.parametrize("make, sizes, tail", [
        # amg2d's hierarchy: the tail is the finest level
        (lambda: _amg_square_solver(4), [5, 13, 43, 225], 3),
        # the tail starts above a coarsening stall and below the finest level
        (lambda: _amg_square_solver(5), [17, 18, 24, 60, 168, 961], 4),
        # the 1D n = 255 GMG chain
        (lambda: _gmg_solver(gmg.interval_hierarchy(255)),
         [3, 7, 15, 31, 63, 127, 255], 6),
    ], ids=["amg-n225", "amg-n961", "gmg-1d-n255"])
    def test_matches_level_by_level_cycle(self, make, sizes, tail):
        solver = make()
        assert [A.n for A in solver.matrices] == sizes
        assert solver._tail_level == tail
        ref_cycle = VCycleReference(solver.matrices, solver.prolongations).cycle
        n = sizes[-1]
        rng = np.random.default_rng(5)
        b = rng.standard_normal(n)
        B = rng.standard_normal((n, 3))
        x0 = ref_cycle(rng.standard_normal(n))  # an iterate, as in a contraction run
        for got, want in [(solver.cycle(b), ref_cycle(b)),
                          (solver.cycle(B), ref_cycle(B)),
                          (solver.cycle(b, x0.copy()), ref_cycle(b, x0))]:
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_tail_is_symmetric_positive_definite(self):
        T = _amg_square_solver(5)._tail
        assert T.shape == (168, 168)
        assert np.array_equal(T, T.T)
        np.linalg.cholesky(T)

    def test_tail_stays_coarsest_above_cap(self):
        # the gmg2d levels 225 and 961: the tail is the coarsest inverse
        solver = _gmg_solver(gmg.build_hierarchy("unit-square", 1, 5), 3)
        assert [A.n for A in solver.matrices] == [225, 961]
        assert solver.matrices[1].n > _DENSE_CYCLE
        assert solver._tail_level == 0
        A0 = solver.matrices[0].to_dense()
        assert np.allclose(solver._tail @ A0, np.eye(225), atol=1e-10)


def _counted(solver):
    """The solver with its finest-level cycles counted: the returned list
    gets one entry per cycle that solve applies."""
    calls = []
    cycle = solver.cycle

    def counted(b, x0=None):
        calls.append(b.shape)
        return cycle(b, x0)

    solver.cycle = counted
    return solver, calls


def _assert_solved(A, B, X, tol=1e-12):
    assert X.shape == B.shape
    R = B - A.matvec(X)
    assert np.all(np.linalg.norm(R, axis=0) <= tol * np.linalg.norm(B, axis=0))


class TestWarmStart:
    """solve starts CG from the A-orthogonal projection onto the span of
    the solver's earlier solution blocks; both backends share it."""

    @pytest.fixture(params=["gmg", "amg"])
    def make(self, request):
        # n = 961 on the unit square: the gmg2d levels 225 and 961, and the
        # AMG chain whose dense tail starts at 168 unknowns
        if request.param == "gmg":
            hier = gmg.build_hierarchy("unit-square", 1, 5)
            return lambda: _counted(_gmg_solver(hier, 3))
        return lambda: _counted(_amg_square_solver(5))

    def test_converging_rhs_take_fewer_cycles(self, make):
        solver, calls = make()
        A = solver.matrices[-1]
        rng = np.random.default_rng(11)
        limit = rng.standard_normal((A.n, 3))
        warm, cold = 0, 0
        for j in range(5):
            B = limit + 10.0 ** -(j + 1) * rng.standard_normal((A.n, 3))
            calls.clear()
            _assert_solved(A, B, solver.solve(B, tol=1e-12))
            warm += len(calls)
            fresh, fresh_calls = make()
            _assert_solved(A, B, fresh.solve(B, tol=1e-12))
            cold += len(fresh_calls)
        assert warm < cold

    def test_limit_plus_two_geometric_modes_is_solved_from_history(self, make):
        # b_j = L + 0.5^j E1 + 0.3^j E2: every solution lies in the span of
        # the first three, so from the fourth solve on the start is the
        # solution up to round-off (a start from the last block alone takes
        # 8-10 cycles for each of them)
        solver, calls = make()
        n = solver.matrices[-1].n
        L, E1, E2 = np.random.default_rng(16).standard_normal((3, n, 3))
        cycles = []
        for j in range(10):
            B = L + 0.5 ** j * E1 + 0.3 ** j * E2
            calls.clear()
            _assert_solved(solver.matrices[-1], B, solver.solve(B, tol=1e-12))
            cycles.append(len(calls))
        assert max(cycles[3:]) <= 1, cycles

    def test_history_is_capped_and_restarts_from_the_last_two_blocks(self, make):
        solver, _ = make()
        A = solver.matrices[-1]
        rng = np.random.default_rng(17)
        width, kept, blocks = 3, 0, []
        for _ in range(20):
            B = rng.standard_normal((A.n, width))
            blocks.append(solver.solve(B, tol=1e-12))
            # independent blocks are kept whole until the next would
            # exceed gmg._HISTORY_BLOCKS of them
            kept = kept + width if kept < gmg._HISTORY_BLOCKS * width else 2 * width
            assert solver._m == kept
            Q = solver._Q[:, :kept]
            assert np.abs(Q.T @ A.matvec(Q) - np.eye(kept)).max() <= 1e-10
            assert np.allclose(solver._AQ[:, :kept], A.matvec(Q), atol=1e-10)
            X = np.hstack(blocks[-(kept // width):])
            # Q spans exactly the last kept // width solution blocks
            assert np.abs(X - Q @ (Q.T @ A.matvec(X))).max() <= 1e-10 * np.abs(X).max()
        assert gmg._HISTORY_BLOCKS == 8 and gmg._RESTART_BLOCKS == 2

    def test_block_width_changes_between_calls(self, make):
        solver, _ = make()
        A = solver.matrices[-1]
        rng = np.random.default_rng(12)
        B4 = rng.standard_normal((A.n, 4))
        B9 = rng.standard_normal((A.n, 9))
        # the last pair restarts the history of a vector (8 columns) after
        # a block of 9, which alone does not fit it
        for B in (B4, B4 @ rng.standard_normal(4) + 1e-3 * rng.standard_normal(A.n),
                  B4[:, 1:3] + 1e-3 * rng.standard_normal((A.n, 2)),
                  B9, B9[:, 4] + 1e-3 * rng.standard_normal(A.n)):
            X = solver.solve(B, tol=1e-12)
            _assert_solved(A, B, X)
            fresh, _ = make()
            Y = fresh.solve(B, tol=1e-12)
            assert np.abs(X - Y).max() <= 1e-10 * np.abs(Y).max()

    def test_zero_rhs_after_history_is_exactly_zero(self, make):
        solver, _ = make()
        n = solver.matrices[-1].n
        solver.solve(np.random.default_rng(13).standard_normal((n, 3)), tol=1e-12)
        for shape in ((n,), (n, 2)):
            assert np.array_equal(solver.solve(np.zeros(shape), tol=1e-12), np.zeros(shape))

    def test_zero_and_repeated_history_columns(self, make):
        solver, calls = make()
        A = solver.matrices[-1]
        rng = np.random.default_rng(14)
        v, w = rng.standard_normal((2, A.n))
        solver.solve(np.column_stack([v, np.zeros(A.n), v, w]), tol=1e-12)
        b = v + 1e-6 * rng.standard_normal(A.n)
        calls.clear()
        x = solver.solve(b, tol=1e-12)
        _assert_solved(A, b, x)
        fresh, fresh_calls = make()
        fresh.solve(b, tol=1e-12)
        # the history holds v's solution, so the start is far better than zero
        assert len(calls) < len(fresh_calls)

    def test_solvers_keep_their_own_history(self, make):
        (first, first_calls), (second, second_calls) = make(), make()
        b = np.random.default_rng(15).standard_normal(first.matrices[-1].n)
        first.solve(b, tol=1e-12)
        cold = len(first_calls)
        second.solve(b, tol=1e-12)
        assert len(second_calls) == cold
        first_calls.clear()
        first.solve(b, tol=1e-12)
        assert len(first_calls) < cold


def _energy_contraction(solver, steps=30):
    """||I - B A||_A of the finest-level cycle by power iteration: the
    symmetric cycle makes I - B A self-adjoint in the A inner product."""
    A = solver.matrices[-1]
    e = np.random.default_rng(0).standard_normal(A.n)
    for _ in range(steps):
        e /= math.sqrt(e @ A.matvec(e))
        e = solver.cycle(np.zeros(A.n), e)
    return math.sqrt(e @ A.matvec(e))


class TestCycleContraction:
    """The Chebyshev-smoothed cycle contracts the energy error by a factor
    independent of n on both backends, and its dense tail is symmetric."""

    # measured: 0.180 (1D), 0.186 (2D), 0.209, 0.237 and 0.269 (AMG)
    @pytest.mark.parametrize("make, bound", [
        (lambda: _gmg_solver(gmg.interval_hierarchy(1023)), 0.2),
        (lambda: _gmg_solver(gmg.build_hierarchy("unit-square", 1, 6)), 0.2),
        (lambda: _amg_square_solver(4), 0.25),
        (lambda: _amg_square_solver(5), 0.25),
        (lambda: _amg_square_solver(6), 0.3),
    ], ids=["gmg-1d-n1023", "gmg-2d-n3969", "amg-n225", "amg-n961", "amg-n3969"])
    def test_energy_contraction(self, make, bound):
        solver = make()
        assert np.array_equal(solver._tail, solver._tail.T)
        assert _energy_contraction(solver) <= bound

    def test_near_dense_amg_tail_levels(self):
        # at n = 3969 the levels [28, 30, 33, 41] are (almost) full and
        # coarsen by a few unknowns; they all lie inside the dense tail,
        # which the cycle from each of them down must contract on its own
        solver = _amg_square_solver(6)
        sizes = [A.n for A in solver.matrices]
        assert sizes[:solver._tail_level + 1] == [27, 28, 30, 33, 41, 81, 221]
        for level in range(1, solver._tail_level + 1):
            A = solver.matrices[level]
            ref_cycle = VCycleReference(solver.matrices[:level + 1],
                                        solver.prolongations[:level]).cycle
            L = np.linalg.cholesky(A.to_dense())
            E = np.eye(A.n) - L.T @ ref_cycle(np.eye(A.n)) @ L  # I - BA, A-norm
            assert np.abs(np.linalg.eigvalsh(0.5 * (E + E.T))).max() <= 0.2, level


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
        measured = [r.measured_rate for r in run.report.records
                    if r.measured_rate is not None]
        assert measured and max(measured) < 1.0
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
