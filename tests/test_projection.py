"""Rayleigh-Ritz projection, the duality constant oracle and the single- and
block-pair error bounds."""

import gc
import json
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subeig import dense, projection
from subeig.core import Basis, SparseSymMatrix, inner, norm, orthonormalize
from subeig.exceptions import (
    DegenerateGapError,
    DimensionMismatchError,
    EmptyBasisError,
    NotPositiveDefiniteError,
)
from subeig.inverse_power import IpmConfig, ipm_block_step, ipm_run
from subeig.projection import (
    EtaOracle,
    energy_bound_block,
    energy_bound_single,
    exact_eigenset,
    gap_delta,
    gap_delta_block,
    rayleigh_quotient,
    ritz,
    ritz_space,
    spectral_projection,
    strang_residual,
)

from .conftest import laplacian_1d, make_spd


def fem_pencil_1d(n):
    from subeig import gmg

    pencil = gmg.assemble_p1(gmg._interval_level(n))
    return pencil.A, pencil.M


class TestRitz:
    def test_invariant_subspace_is_exact(self, rng):
        A = make_spd(rng, 16)
        exact = exact_eigenset(A)
        K = orthonormalize(exact.vectors[:, :5])
        rs = ritz(A, None, K)
        assert np.allclose(rs.values, exact.values[:5], rtol=1e-10)

    def test_full_space_equals_oracle(self, rng):
        A = make_spd(rng, 12)
        rs = ritz(A, None, orthonormalize(np.eye(12)))
        exact = exact_eigenset(A)
        assert np.allclose(rs.values, exact.values, rtol=1e-12)

    def test_coarse_hats_upper_bound(self):
        # 1D Laplacian h = 1/16, coarse hat functions injected on every 4th node
        A = laplacian_1d(15)
        W = np.zeros((15, 4))
        # nodes lie at j/16 for j=1..15; coarse nodes at j=4,8,12 plus one
        # extra hat, values of the coarse P1 hat at fine nodes
        for c, center in enumerate((3, 6, 9, 12)):
            for j in range(15):
                W[j, c] = max(0.0, 1.0 - abs(j - center) / 3.0)
        K = orthonormalize(W)
        rs = ritz(A, None, K)
        exact = exact_eigenset(A)
        assert np.all(exact.values[:4] <= rs.values * (1 + 1e-11))

    def test_ritz_set_invariants(self, rng):
        A, M = make_spd(rng, 14), make_spd(rng, 14, lo=0.5, hi=2.0)
        K = orthonormalize(rng.standard_normal((14, 6)), weight=M)
        rs = ritz(A, M, K)
        assert np.all(np.diff(rs.values) >= -1e-12)
        assert np.all(rs.values > 0)
        # A-orthonormal lifted vectors and the 1/lambda L2-norm identity
        gram = rs.vectors.T @ A.to_dense() @ rs.vectors
        assert np.abs(gram - np.eye(6)).max() <= 1e-10
        for j in range(6):
            assert norm(rs.vectors[:, j], M) ** 2 == pytest.approx(
                rs.mu_values[j], rel=1e-10)

    def test_monotone_under_enlargement(self, rng):
        A = make_spd(rng, 18)
        W = rng.standard_normal((18, 7))
        small = ritz(A, None, orthonormalize(W[:, :4]))
        big = ritz(A, None, orthonormalize(W))
        assert np.all(big.values[:4] <= small.values * (1 + 1e-11))


    def test_basis_orthonormal_in_another_metric(self, rng):
        # the projected pencil takes any full-rank basis: an L2-orthonormal
        # basis of a pencil with a mass matrix gives the Ritz pairs of its
        # M-orthonormalized twin
        A, M = make_spd(rng, 20), make_spd(rng, 20, lo=0.5, hi=2.0)
        B = orthonormalize(rng.standard_normal((20, 6)))
        assert Basis(columns=B.columns, weight=M).gram_defect() > 1e-2
        rs = ritz(A, M, B)
        ref = ritz(A, M, orthonormalize(B.columns, weight=M))
        assert np.allclose(rs.values, ref.values, rtol=1e-12, atol=0.0)
        assert np.abs(rs.vectors - ref.vectors).max() <= 1e-10
        gram = rs.vectors.T @ A.matvec(rs.vectors)
        assert np.abs(gram - np.eye(6)).max() <= 1e-12

    @pytest.mark.parametrize("with_mass", [False, True])
    def test_whole_space_without_a_basis(self, rng, with_mass, monkeypatch):
        # K = None is R^n with no identity formed; the projected mass matrix
        # is factored once
        A = make_spd(rng, 15)
        M = make_spd(rng, 15, lo=0.5, hi=2.0) if with_mass else None
        ref = ritz(A, M, Basis(columns=np.eye(15)))
        calls = []
        monkeypatch.setattr(dense, "cholesky",
                            lambda S, f=dense.cholesky: calls.append(1) or f(S))
        rs = ritz(A, M, None)
        assert len(calls) == 1
        assert np.allclose(rs.values, ref.values, rtol=1e-14, atol=0.0)
        assert np.abs(rs.vectors - ref.vectors).max() <= 1e-14 * np.abs(ref.vectors).max()

    def test_rank_deficient_basis_fails_loudly(self, rng):
        A, M = make_spd(rng, 12), make_spd(rng, 12, lo=0.5, hi=2.0)
        W = rng.standard_normal((12, 4))
        W = np.column_stack([W, W[:, 2] - 0.5 * W[:, 0]])
        with pytest.raises(NotPositiveDefiniteError):
            ritz(A, M, Basis(columns=W))


class TestEtaOracle:
    def test_full_space_is_zero(self, rng):
        A = make_spd(rng, 10)
        assert EtaOracle(A).eta(orthonormalize(np.eye(10))) <= 1e-7

    @pytest.mark.parametrize("with_mass", [False, True])
    def test_keeps_the_oracle_eigenpairs(self, rng, with_mass):
        A = make_spd(rng, 12)
        M = make_spd(rng, 12, lo=0.5, hi=2.0) if with_mass else None
        exact = exact_eigenset(A, M)
        kept = EtaOracle(A, M).exact
        assert np.array_equal(kept.values, exact.values)
        assert np.array_equal(kept.vectors, exact.vectors)

    def test_empty_rejected(self, rng):
        A = make_spd(rng, 6)
        with pytest.raises(EmptyBasisError):
            EtaOracle(A).eta(np.empty((6, 0)))

    def test_ideal_space_bound(self, rng):
        A, M = fem_pencil_1d(31)
        exact = exact_eigenset(A, M)
        for nc in (3, 6):
            K = orthonormalize(exact.vectors[:, :nc], weight=M)
            eta = EtaOracle(A, M).eta(K)
            assert eta <= 1.0 / math.sqrt(exact.values[nc]) + 1e-10

    def test_fem_coarse_space_halves_with_H(self):
        from subeig import gmg

        hier = gmg.build_hierarchy("interval", 3, 5)  # interiors 3..63
        pencils, prolongations = gmg.assemble_hierarchy(hier)
        etas = []
        for coarse_level in (2, 3):  # H = 1/16, then H = 1/32
            K = gmg.coarse_space(pencils, prolongations, 4, coarse_level)
            etas.append(EtaOracle(pencils[4].A, pencils[4].M).eta(K))
        ratio = etas[1] / etas[0]
        assert 0.35 <= ratio <= 0.65


    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_sandwich_formula(self, seed, with_mass):
        # the definition, evaluated directly: eta^2 = lambda_max(L^T C^T A C L)
        # with C = A^{-1} - Va Va^T and L the Cholesky factor of M
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        A = make_spd(rng, n)
        M = make_spd(rng, n, lo=0.5, hi=2.0) if with_mass else None
        cols = rng.standard_normal((n, int(rng.integers(1, n))))
        Ad = A.to_dense()
        Va = orthonormalize(cols, weight=A).columns
        C = np.linalg.inv(Ad) - Va @ Va.T
        S = C.T @ Ad @ C
        if M is not None:
            L = np.linalg.cholesky(M.to_dense())
            S = L.T @ S @ L
        expected = math.sqrt(np.linalg.eigvalsh(0.5 * (S + S.T))[-1])
        assert EtaOracle(A, M).eta(cols) == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestOracleMemo:
    """exact_eigenset computes the oracle once per (A, M) pair of objects
    while A lives and shares it read-only."""

    def test_same_pair_same_object(self, rng):
        A, M = make_spd(rng, 8), make_spd(rng, 8, lo=0.5, hi=2.0)
        assert exact_eigenset(A) is exact_eigenset(A)
        assert exact_eigenset(A, M) is exact_eigenset(A, M)

    def test_separate_entries_per_pair(self, rng):
        A, M = make_spd(rng, 8), make_spd(rng, 8, lo=0.5, hi=2.0)
        A2 = SparseSymMatrix.from_dense(A.to_dense())  # equal entries
        standard, pencil, second = exact_eigenset(A), exact_eigenset(A, M), exact_eigenset(A2)
        assert len({id(standard), id(pencil), id(second)}) == 3
        assert np.array_equal(second.values, standard.values)
        assert not np.allclose(pencil.values, standard.values)
        assert exact_eigenset(A) is standard and exact_eigenset(A, M) is pencil
        assert exact_eigenset(A2) is second

    def test_arrays_are_read_only(self, rng):
        exact = exact_eigenset(make_spd(rng, 6))
        with pytest.raises(ValueError):
            exact.values[0] = 1.0
        with pytest.raises(ValueError):
            exact.vectors[:, 0] *= 2.0

    def test_entry_dropped_with_the_pencil(self, rng):
        A, M = make_spd(rng, 8), make_spd(rng, 8, lo=0.5, hi=2.0)
        pencil, oracle = weakref.ref(A), weakref.ref(exact_eigenset(A, M))
        assert A in projection._ORACLES and oracle() is not None
        del A
        gc.collect()
        # the memo held neither the pencil nor, once it was gone, its oracle
        assert pencil() is None and oracle() is None

    @pytest.mark.parametrize("with_mass", [False, True])
    def test_eta_oracle_shares_the_eigenset(self, rng, with_mass):
        A = make_spd(rng, 8)
        M = make_spd(rng, 8, lo=0.5, hi=2.0) if with_mass else None
        assert EtaOracle(A, M).exact is exact_eigenset(A, M)

    @pytest.mark.parametrize("with_mass, smallest", [(False, "-2.000e+00"),
                                                     (True, "-1.000e+00")],
                             ids=["standard", "pencil"])
    def test_indefinite_a_names_its_smallest_eigenvalue(self, with_mass, smallest):
        A = SparseSymMatrix.from_dense(np.diag([-2.0, 1.0, 3.0, 4.0]))
        M = SparseSymMatrix.from_dense(np.diag([2.0, 1.0, 1.0, 1.0])) if with_mass else None
        with pytest.raises(NotPositiveDefiniteError,
                           match=re.escape(f"smallest eigenvalue is {smallest}")):
            exact_eigenset(A, M)


class TestIncrementalEta:
    """eta(K, U) continues CGS2 from the kept coordinates of K with U's
    columns alone, and equals eta of the stacked basis [K, U]."""

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_stacked_basis(self, seed, with_mass):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 30))
        A = make_spd(rng, n)
        M = make_spd(rng, n, lo=0.5, hi=2.0) if with_mass else None
        m = int(rng.integers(1, n - 2))
        K1 = orthonormalize(rng.standard_normal((n, m)), weight=M)
        K2 = orthonormalize(rng.standard_normal((n, n - 1 - m)), weight=M)
        oracle, reference = EtaOracle(A, M), EtaOracle(A, M)
        # alternate the two coarse spaces, so a stale Q_K would show
        for K in (K1, K1, K2, K1, K2, K2):
            k = int(rng.integers(1, n - K.dim))
            U = rng.standard_normal((n, k))
            expected = reference.eta(np.column_stack([K.columns, U]))
            assert oracle.eta(K, U) == pytest.approx(expected, rel=1e-13, abs=0.0)
        # U inside span(K): every column is dropped and eta is eta(K)
        U = K1.columns @ rng.standard_normal((m, 2))
        expected = reference.eta(np.column_stack([K1.columns, U]))
        assert expected == pytest.approx(reference.eta(K1.columns), rel=1e-13, abs=0.0)
        assert oracle.eta(K1, U) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_orthonormalizes_the_coarse_space_once(self, rng, monkeypatch):
        A = make_spd(rng, 20)
        K = orthonormalize(rng.standard_normal((20, 6)))
        appended = []
        kernel = projection._cgs2_append

        def counted(Q, GQ, m, W, *args):
            appended.append(W.shape[1])
            return kernel(Q, GQ, m, W, *args)

        monkeypatch.setattr(projection, "_cgs2_append", counted)
        oracle = EtaOracle(A)
        for _ in range(3):
            oracle.eta(K, rng.standard_normal((20, 2)))
        assert appended == [6, 2, 2, 2]

    def test_an_array_keeps_no_coordinates(self, rng):
        # an array may be changed in place between calls
        A = make_spd(rng, 12)
        oracle = EtaOracle(A)
        cols = rng.standard_normal((12, 4))
        before = oracle.eta(cols)
        cols[:] = rng.standard_normal((12, 4))
        assert oracle.eta(cols) != before
        assert oracle.eta(cols) == pytest.approx(EtaOracle(A).eta(cols.copy()), rel=1e-14)

    def test_all_columns_dropped_rejected(self, rng):
        with pytest.raises(EmptyBasisError):
            EtaOracle(make_spd(rng, 6)).eta(np.zeros((6, 2)), np.zeros((6, 1)))


class TestGapDelta:
    def test_examples(self):
        assert gap_delta([1.0, 0.5, 0.25], 1.0, exclude={0}) == 0.5
        assert gap_delta([1.0, 0.5], 0.5, exclude={1}) == 0.5
        assert gap_delta_block([1.0, 0.5, 0.2, 0.1], 0.45, 2) == pytest.approx(0.25)

    def test_empty_candidates(self):
        with pytest.raises(DegenerateGapError):
            gap_delta([1.0], 1.0, exclude={0})
        with pytest.raises(DegenerateGapError):
            gap_delta_block([1.0, 0.5], 0.5, 2)


class TestEnergyBounds:
    def _instance(self, seed, n=18, m=7):
        rng = np.random.default_rng(seed)
        A = make_spd(rng, n)
        M = make_spd(rng, n, lo=0.5, hi=2.0) if seed % 2 else None
        K = orthonormalize(rng.standard_normal((n, m)), weight=M)
        return A, M, K, ritz(A, M, K), exact_eigenset(A, M)

    def test_member_of_K_gives_zero_lhs(self, rng):
        A = make_spd(rng, 12)
        exact = exact_eigenset(A)
        cols = np.column_stack([exact.vectors[:, :3], rng.standard_normal((12, 2))])
        K = orthonormalize(cols)
        rs = ritz(A, None, K)
        rep = energy_bound_single(A, None, K, float(exact.values[0]),
                                  exact.vectors[:, 0], rs)
        assert rep.lhs_energy <= 1e-9
        assert rep.lhs_energy <= rep.rhs_energy + 1e-12

    def test_single_bound_random_instances(self):
        for seed in range(8):
            A, M, K, rs, exact = self._instance(seed)
            for i in range(A.n):
                mu = 1.0 / float(exact.values[i])
                closest = int(np.argmin(np.abs(rs.mu_values - mu)))
                if gap_delta(rs.mu_values, mu, exclude=(closest,)) < 1e-3:
                    continue
                rep = energy_bound_single(A, M, K, float(exact.values[i]),
                                          exact.vectors[:, i], rs)
                assert rep.lhs_energy <= rep.rhs_energy * (1 + 1e-9) + 1e-12
                assert rep.lhs_l2 <= rep.rhs_l2 * (1 + 1e-9) + 1e-12
                assert rep.theta >= 1.0 and rep.eta_Ki >= rep.eta_K
                break

    def test_block_bound_fem(self):
        # 1D FEM pencil n = 63, coarse space H = 4h
        from subeig import gmg

        hier = gmg.build_hierarchy("interval", 3, 5)
        pencils, prolongations = gmg.assemble_hierarchy(hier)
        A, M = pencils[4].A, pencils[4].M
        K = gmg.coarse_space(pencils, prolongations, 4, 2)
        rs = ritz(A, M, K)
        exact = exact_eigenset(A, M)
        for rep in energy_bound_block(A, M, K, exact, rs, 3):
            assert rep.lhs_energy <= rep.rhs_energy * (1 + 1e-9) + 1e-12
            assert rep.lhs_l2 <= rep.rhs_l2 * (1 + 1e-9) + 1e-12

    def test_block_needs_enough_ritz_values(self, rng):
        A = make_spd(rng, 10)
        K = orthonormalize(rng.standard_normal((10, 3)))
        rs = ritz(A, None, K)
        with pytest.raises(DegenerateGapError):
            energy_bound_block(A, None, K, exact_eigenset(A), rs, 3)

    def test_bound_report_json_fields(self, rng):
        A = make_spd(rng, 10)
        K = orthonormalize(rng.standard_normal((10, 4)))
        rs = ritz(A, None, K)
        exact = exact_eigenset(A)
        rep = energy_bound_single(A, None, K, float(exact.values[0]),
                                  exact.vectors[:, 0], rs)
        payload = json.loads(rep.to_json())
        assert set(payload) == {"eta_K", "delta", "theta", "eta_Ki",
                                "lhs_energy", "rhs_energy", "lhs_l2",
                                "rhs_l2", "index", "tie"}


def strang_reference(A, M, K, lam, u, x, lam_x):
    """|(lam_x - lam)(P_K u, x) - lam(u - P_K u, x)| in the M metric for one
    pair, with P_K the A-orthogonal projector W (W^T A W)^{-1} W^T A formed
    from the raw columns W of K."""
    W = K.columns
    AW = A.matvec(W)
    Pu = W @ np.linalg.solve(W.T @ AW, AW.T @ u)
    return abs((lam_x - lam) * inner(Pu, x, M) - lam * inner(u - Pu, x, M))


def assert_matches_reference(R, A, M, K, lams, U, rs):
    for i in range(R.shape[0]):
        for j in range(R.shape[1]):
            ref = strang_reference(A, M, K, lams[i], U[:, i],
                                   rs.vectors[:, j], float(rs.values[j]))
            assert R[i, j] == pytest.approx(ref, rel=1e-10, abs=1e-12)


def strang_scale(rs, lams, U):
    """Per-entry round-off bound 1e-10 (|lam_j~| + |lam_i|) ||u_i||."""
    p_r = rs.vectors.shape[1]
    return 1e-10 * (np.abs(rs.values[:p_r])[None, :] + np.abs(lams)[:, None]) \
        * np.array([norm(U[:, i]) for i in range(U.shape[1])])[:, None]


class TestStrang:
    def test_exact_ritz_pair_vanishes(self, rng):
        A = make_spd(rng, 12)
        exact = exact_eigenset(A)
        K = orthonormalize(exact.vectors[:, :4])
        rs = ritz(A, None, K)
        R = strang_residual(A, None, K, exact.values[:1], exact.vectors[:, :1], rs)
        assert R.shape == (1, 4)
        assert R[0, 0] <= 1e-12

    def test_every_combination(self):
        rng = np.random.default_rng(42)
        A = make_spd(rng, 20)
        M = make_spd(rng, 20, lo=0.5, hi=2.0)
        K = orthonormalize(rng.standard_normal((20, 6)), weight=M)
        rs = ritz(A, M, K)
        exact = exact_eigenset(A, M)
        R = strang_residual(A, M, K, exact.values, exact.vectors, rs)
        assert R.shape == (20, rs.m)
        assert np.all(R <= strang_scale(rs, exact.values, exact.vectors))

    @pytest.mark.parametrize("pencil", [False, True])
    def test_block_matches_per_pair_formula(self, pencil):
        # arbitrary (non-eigen) pairs, so every entry is O(1) and the block
        # products are compared with the per-pair formula, not with zero
        rng = np.random.default_rng(7)
        n, m, p = 18, 5, 4
        A = make_spd(rng, n)
        M = make_spd(rng, n, lo=0.5, hi=2.0) if pencil else None
        K = orthonormalize(rng.standard_normal((n, m)), weight=M)
        rs = ritz(A, M, K)
        lams = rng.uniform(0.5, 10.0, size=p)
        U = rng.standard_normal((n, p))
        R = strang_residual(A, M, K, lams, U, rs)
        assert R.shape == (p, rs.m)
        assert_matches_reference(R, A, M, K, lams, U, rs)

    @pytest.mark.parametrize("pencil", [False, True])
    def test_partial_ritz_set_from_block_step(self, pencil):
        # the block step lifts only k of its Ritz vectors: the matrix is p x k
        # and the identity holds on the enriched space span(K) + span(U_prev)
        rng = np.random.default_rng(11)
        n, m, k = 20, 5, 2
        A = make_spd(rng, n)
        M = make_spd(rng, n, lo=0.5, hi=2.0) if pencil else None
        K = orthonormalize(rng.standard_normal((n, m)), weight=M)
        U_prev = rng.standard_normal((n, k))
        rs, _ = ipm_block_step(A, M, K, U_prev, IpmConfig(k=k))
        assert rs.vectors.shape[1] == k < rs.m
        enriched = orthonormalize(np.hstack([K.columns, U_prev]), weight=M)
        exact = exact_eigenset(A, M)
        R = strang_residual(A, M, enriched, exact.values, exact.vectors, rs)
        assert R.shape == (n, k)
        assert np.all(R <= strang_scale(rs, exact.values, exact.vectors))
        lams = rng.uniform(0.5, 10.0, size=3)
        U = rng.standard_normal((n, 3))
        R = strang_residual(A, M, enriched, lams, U, rs)
        assert R.shape == (3, k)
        assert_matches_reference(R, A, M, enriched, lams, U, rs)

    def test_block_shape_mismatch_rejected(self, rng):
        A = make_spd(rng, 8)
        K = orthonormalize(rng.standard_normal((8, 3)))
        rs = ritz(A, None, K)
        with pytest.raises(DimensionMismatchError):
            strang_residual(A, None, K, np.ones(2), np.ones((8, 3)), rs)


class TestRayleigh:
    def test_exact_vector(self, rng):
        A = make_spd(rng, 10)
        exact = exact_eigenset(A)
        lam = rayleigh_quotient(A, None, exact.vectors[:, 3])
        assert lam == pytest.approx(float(exact.values[3]), rel=1e-12)

    def test_diag_example(self):
        A = SparseSymMatrix.from_dense(np.diag([1.0, 10.0]))
        assert rayleigh_quotient(A, None, np.array([1.0, 1.0])) == 5.5

    def test_second_order_perturbation(self, rng):
        A = make_spd(rng, 8)
        exact = exact_eigenset(A)
        eps = 1e-3
        psi = exact.vectors[:, 0] + eps * exact.vectors[:, 1]
        lam_hat = rayleigh_quotient(A, None, psi)
        gap = float(exact.values[1] - exact.values[0])
        assert 0.0 <= lam_hat - float(exact.values[0])
        assert lam_hat - float(exact.values[0]) <= \
            gap * eps ** 2 / norm(psi) ** 2 + 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_sandwich_property(self, seed):
        # perturbations inside span{u_i, ..., u_n} keep the quotient above
        # lam_i and below it by the energy error of the perturbation
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 14))
        A = make_spd(rng, n)
        M = make_spd(rng, n, lo=0.5, hi=2.0) if rng.integers(2) else None
        exact = exact_eigenset(A, M)
        i = int(rng.integers(0, n))
        coeffs = rng.standard_normal(n - i) * rng.uniform(1e-3, 0.1)
        psi = exact.vectors[:, i] + exact.vectors[:, i:] @ coeffs
        lam_hat = rayleigh_quotient(A, M, psi)
        lam_i = float(exact.values[i])
        err = exact.vectors[:, i] - psi
        assert lam_i <= lam_hat * (1 + 1e-9) + 1e-12
        assert lam_hat - lam_i <= \
            norm(err, A) ** 2 / norm(psi, M) ** 2 * (1 + 1e-9) + 1e-12


def test_spectral_projection_matches_galerkin(rng):
    A = make_spd(rng, 14)
    K = orthonormalize(rng.standard_normal((14, 5)))
    rs = ritz(A, None, K)
    x = rng.standard_normal(14)
    y = spectral_projection(rs, A, x, range(3))
    # the projection is A-orthogonal onto span of the selected Ritz vectors
    for j in range(3):
        assert inner(x - y, A.matvec(rs.vectors[:, j])) == pytest.approx(0.0, abs=1e-10)


def test_a_metric_orthonormalization_preserves_span(rng):
    A = make_spd(rng, 12)
    K = orthonormalize(rng.standard_normal((12, 4)))
    Ka = orthonormalize(K.columns, weight=A)
    # same subspace: projecting each new column onto the old span is identity
    V = K.columns
    for j in range(4):
        v = Ka.columns[:, j]
        assert np.allclose(V @ (V.T @ v), v, atol=1e-10)


class TestRitzSpace:
    """The implicit coarse space: the sparse prolongation P and the Ritz
    basis Y of the coarse pencil (P^T A P, P^T M P), against dense algebra
    on the formed columns P Y."""

    @staticmethod
    def _space(name):
        from subeig import amg, gmg

        if name == "amg":
            pencil = gmg.assemble_p1(gmg.build_hierarchy("unit-square", 1, 4).levels[-1])
            hier = amg.amg_setup(pencil.A, pencil.M)
            return pencil.A, pencil.M, amg.amg_coarse_space(hier, 2)
        domain, n0 = ("interval", 3) if name == "gmg-1d" else ("unit-square", 1)
        pencils, prolongations = gmg.assemble_hierarchy(gmg.build_hierarchy(domain, n0, 4))
        return pencils[3].A, pencils[3].M, gmg.coarse_space(pencils, prolongations, 3, 1)

    @pytest.mark.parametrize("name", ["gmg-1d", "gmg-2d", "amg"])
    def test_ritz_basis_of_the_coarse_pencil(self, name):
        A, M, K = self._space(name)
        V = K.columns
        assert np.all(np.diff(K.theta) >= 0.0)
        assert np.abs(V.T @ M.matvec(V) - np.eye(K.dim)).max() <= 1e-13
        H = V.T @ A.matvec(V)
        assert np.abs(H - np.diag(K.theta)).max() <= 1e-12 * K.theta[-1]
        # the coarse Ritz values are those of the dense Rayleigh-Ritz
        assert np.allclose(K.theta, ritz(A, M, K).values, rtol=1e-12)

    @pytest.mark.parametrize("name", ["gmg-2d", "amg"])
    def test_operators_match_the_formed_columns(self, name, rng):
        A, M, K = self._space(name)
        V = K.columns
        X = rng.standard_normal((K.n, 3))
        Z = rng.standard_normal((K.dim, 3))
        assert np.allclose(K.restrict(X), V.T @ X, rtol=0, atol=1e-12 * np.abs(X).max())
        assert np.allclose(K.prolong(Z), V @ Z, rtol=0, atol=1e-12 * np.abs(Z).max())
        R = K.project_out(X)
        assert np.abs(V.T @ M.matvec(R)).max() <= 1e-12 * np.abs(X).max()

    def test_a_solve_never_forms_the_columns(self):
        from subeig import gmg

        A, M, K = self._space("gmg-2d")
        report = ipm_run(A, M, K, None, IpmConfig(k=3, seed=0))
        assert report.status == "converged"
        assert "columns" not in vars(K)

    def test_dense_basis_in_any_metric(self, rng):
        # a Basis orthonormal in L2 while the pencil has a mass matrix
        A = make_spd(rng, 20)
        M = make_spd(rng, 20, lo=0.5, hi=2.0)
        B = orthonormalize(rng.standard_normal((20, 5)))
        K = ritz_space(A, M, B)
        assert ritz_space(A, M, K) is K
        assert K.gram_defect() <= 1e-12
        ref = ritz(A, M, orthonormalize(B.columns, weight=M))
        assert np.allclose(K.theta, ref.values, rtol=1e-12)

    @pytest.mark.parametrize("extra", ["duplicate", "combination", "zero"])
    def test_rank_deficient_prolongation_fails_loudly(self, extra):
        import scipy.sparse as sp

        from subeig import gmg
        from subeig.exceptions import NotPositiveDefiniteError

        pencils, prolongations = gmg.assemble_hierarchy(
            gmg.build_hierarchy("unit-square", 1, 4))
        P = sp.csr_matrix(prolongations[2] @ prolongations[1])
        col = {"duplicate": P[:, [0]],
               "combination": 3.0 * P[:, [1]] - 0.7 * P[:, [0]],
               "zero": sp.csr_matrix((P.shape[0], 1))}[extra]
        with pytest.raises(NotPositiveDefiniteError):
            ritz_space(pencils[3].A, pencils[3].M, sp.hstack([P, col]).tocsr())
