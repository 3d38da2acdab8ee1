"""Algebraic multigrid backend: strength graph, greedy aggregation,
tentative prolongation, multilevel Galerkin hierarchy, the V-cycle of
gmg.VCycleSolver run on it, and the coarse spaces (aggregation-based and
ideal-eigenvector) for the subspace iteration."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .core import Basis, SparseSymMatrix, orthonormalize
from .exceptions import ConfigError, ConvergenceError, NotPositiveDefiniteError
from .gmg import VCycleSolver
from .projection import exact_eigenset

DEFAULT_STRENGTH = 0.25


@dataclass(frozen=True)
class AggregateSet:
    assignment: np.ndarray  # per-unknown aggregate id
    n_c: int

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.n_c)


@dataclass(frozen=True)
class AmgLevel:
    A: SparseSymMatrix
    M: Optional[SparseSymMatrix]
    P: Optional[sp.csr_matrix]  # prolongation from this level's coarse child
    aggregates: Optional[AggregateSet]


@dataclass(frozen=True)
class AmgHierarchy:
    levels: list[AmgLevel]  # fine -> coarse
    strength_threshold: float

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def summary_json(self) -> str:
        sizes = [lvl.A.n for lvl in self.levels]
        nnz = [int(lvl.A.values.size) for lvl in self.levels]
        payload = {
            "levels": self.n_levels,
            "sizes": sizes,
            "nnz": nnz,
            "operator_complexity": sum(nnz) / nnz[0],
            "strength_threshold": self.strength_threshold,
        }
        return json.dumps(payload, sort_keys=True)


def strength_graph(A: SparseSymMatrix, theta_s: float = DEFAULT_STRENGTH) -> sp.csr_matrix:
    """Boolean adjacency of strong connections:
    |a_ij| >= theta_s * sqrt(a_ii * a_jj), i != j."""
    if not 0.0 <= theta_s < 1.0:
        raise ConfigError(f"strength threshold must be in [0, 1), got {theta_s}")
    diag = A.diagonal()
    if np.any(diag <= 0.0):
        raise NotPositiveDefiniteError("nonpositive diagonal entry in strength rule")
    C = sp.coo_matrix(
        (A.values, (np.repeat(np.arange(A.n), np.diff(A.row_offsets)), A.col_indices)),
        shape=(A.n, A.n),
    )
    off = C.row != C.col
    row, col, val = C.row[off], C.col[off], C.data[off]
    strong = np.abs(val) >= theta_s * np.sqrt(diag[row] * diag[col])
    return sp.csr_matrix(
        (np.ones(int(strong.sum())), (row[strong], col[strong])), shape=(A.n, A.n)
    )


def aggregate(graph: sp.csr_matrix) -> AggregateSet:
    """Greedy aggregation, deterministic in natural vertex order.

    Pass 1 seeds an aggregate (vertex plus neighbors) wherever the whole
    closed neighborhood is still free; pass 2 attaches leftovers to the
    adjacent aggregate with the strongest connection; isolated leftovers
    become singletons.
    """
    n = graph.shape[0]
    indptr, indices, data = graph.indptr, graph.indices, graph.data
    assignment = -np.ones(n, dtype=int)
    n_c = 0
    for i in range(n):
        if assignment[i] != -1:
            continue
        nbrs = indices[indptr[i]: indptr[i + 1]]
        if np.all(assignment[nbrs] == -1):
            assignment[i] = n_c
            assignment[nbrs] = n_c
            n_c += 1
    for i in range(n):
        if assignment[i] != -1:
            continue
        nbrs = indices[indptr[i]: indptr[i + 1]]
        w = data[indptr[i]: indptr[i + 1]]
        best, best_w = -1, -1.0
        for j, wj in zip(nbrs, w):
            if assignment[j] != -1 and wj > best_w:
                best, best_w = assignment[j], wj
        if best >= 0:
            assignment[i] = best
        else:
            assignment[i] = n_c
            n_c += 1
    return AggregateSet(assignment=assignment, n_c=n_c)


def tentative_prolongation(
    aggs: AggregateSet,
    near_null: Optional[np.ndarray] = None,
) -> sp.csr_matrix:
    """One normalized column per aggregate, piecewise near-null (default
    constant); disjoint supports make the columns orthonormal."""
    n = aggs.assignment.size
    vec = np.ones(n) if near_null is None else np.asarray(near_null, dtype=float)
    if vec.shape[0] != n:
        raise ConfigError("near-null vector length mismatch")
    vals = np.empty(n)
    for agg in range(aggs.n_c):
        mask = aggs.assignment == agg
        nv = math.sqrt(float(vec[mask] @ vec[mask]))
        if nv == 0.0:
            raise ConfigError(f"near-null vector vanishes on aggregate {agg}")
        vals[mask] = vec[mask] / nv
    return sp.csr_matrix(
        (vals, (np.arange(n), aggs.assignment)), shape=(n, aggs.n_c)
    )


@dataclass
class AmgParams:
    strength_threshold: float = DEFAULT_STRENGTH
    coarsest_size: int = 10
    max_levels: int = 20
    near_null: Optional[np.ndarray] = None


def amg_setup(
    A: SparseSymMatrix,
    M: Optional[SparseSymMatrix] = None,
    params: Optional[AmgParams] = None,
) -> AmgHierarchy:
    """Recursive plain-aggregation coarsening with Galerkin triple products."""
    params = params or AmgParams()
    levels: list[AmgLevel] = []
    A_cur, M_cur = A, M
    near_null = params.near_null
    while True:
        if A_cur.n <= params.coarsest_size or len(levels) + 1 >= params.max_levels:
            levels.append(AmgLevel(A=A_cur, M=M_cur, P=None, aggregates=None))
            break
        graph = strength_graph(A_cur, params.strength_threshold)
        aggs = aggregate(graph)
        if aggs.n_c >= A_cur.n:
            if len(levels) == 0:
                raise ConvergenceError(
                    f"coarsening stagnated at n = {A_cur.n} (n_c = {aggs.n_c}); "
                    f"threshold {params.strength_threshold} leaves no strong connections"
                )
            levels.append(AmgLevel(A=A_cur, M=M_cur, P=None, aggregates=None))
            break
        P = tentative_prolongation(aggs, near_null)
        levels.append(AmgLevel(A=A_cur, M=M_cur, P=P, aggregates=aggs))
        A_cur = SparseSymMatrix.from_csr((P.T @ A_cur._csr @ P).tocsr(), spd=A_cur.spd)
        M_cur = (
            SparseSymMatrix.from_csr((P.T @ M_cur._csr @ P).tocsr(), spd=M_cur.spd)
            if M_cur is not None
            else None
        )
        if near_null is not None:
            # restrict the near-null vector consistently (P has orthonormal columns)
            near_null = P.T @ near_null
    return AmgHierarchy(levels=levels, strength_threshold=params.strength_threshold)


def composed_prolongation(hier: AmgHierarchy, depth: int) -> sp.csr_matrix:
    if not 0 <= depth <= hier.n_levels - 1:
        raise ConfigError(f"depth {depth} out of range for {hier.n_levels} levels")
    P = sp.identity(hier.levels[0].A.n, format="csr")
    for lvl in range(depth):
        P = P @ hier.levels[lvl].P
    return P.tocsr()


def amg_coarse_space(hier: AmgHierarchy, depth: int) -> Basis:
    """Range of the composed prolongation at the given depth, orthonormalized
    in the M metric (plain L2 when the pencil has no mass matrix)."""
    P = composed_prolongation(hier, depth)
    return orthonormalize(P.toarray(), weight=hier.levels[0].M)


def ideal_coarse_space(
    A: SparseSymMatrix,
    M: Optional[SparseSymMatrix],
    n_c: int,
) -> Basis:
    """The n_c smallest oracle eigenvectors as a coarse space (desk scale)."""
    if n_c >= A.n:
        raise ConfigError(f"n_c = {n_c} must be smaller than n = {A.n}")
    exact = exact_eigenset(A, M)
    return orthonormalize(exact.vectors[:, :n_c], weight=M)


class AmgVCycleSolver(VCycleSolver):
    """The V-cycle and PCG solve of gmg.VCycleSolver on an aggregation
    hierarchy."""

    def __init__(self, hier: AmgHierarchy, nu: int = 2):
        coarse_to_fine = hier.levels[::-1]
        super().__init__([lvl.A for lvl in coarse_to_fine],
                         [lvl.P for lvl in coarse_to_fine[1:]], nu=nu)


def ideal_rate_factor(
    exact_values: np.ndarray,
    lam_k_new: float,
    mu_values_new: np.ndarray,
    k: int,
    n_c: int,
) -> float:
    """Full contraction-factor bound for the ideal eigenvector coarse space:
    sqrt(1 + 1/(lam_{k+1} lam_{nc+1} delta^2)) * sqrt(lam_k/lam_{k+1})
    * (1 + 1/(lam_{k+1} delta)) * sqrt(lam_k_new/lam_{nc+1})."""
    lam_k = float(exact_values[k - 1])
    lam_k1 = float(exact_values[k])
    lam_nc1 = float(exact_values[n_c])
    mu_k = 1.0 / lam_k
    delta = float(np.min(np.abs(mu_values_new[k:] - mu_k)))
    if delta == 0.0:
        raise ConvergenceError("zero reciprocal gap in ideal AMG rate")
    return (
        math.sqrt(1.0 + 1.0 / (lam_k1 * lam_nc1 * delta * delta))
        * math.sqrt(lam_k / lam_k1)
        * (1.0 + 1.0 / (lam_k1 * delta))
        * math.sqrt(lam_k_new / lam_nc1)
    )
