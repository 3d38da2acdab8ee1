"""Algebraic multigrid backend: strength graph, greedy aggregation,
tentative prolongation smoothed by one damped-Jacobi step (smoothed
aggregation), multilevel Galerkin hierarchy, the V-cycle of
gmg.VCycleSolver run on it, and the coarse spaces (aggregation-based and
ideal-eigenvector) for the subspace iteration.  The aggregates of every
level are formed on the tentative (piecewise-constant) Galerkin chain;
the levels, the V-cycle and the aggregation coarse space use the smoothed
chain.

The construction is fixed: strength threshold 0.25, a constant near-null
vector, and coarsening that stops at 10 unknowns or 20 levels."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .core import Basis, CoarseSpace, SparseSymMatrix, galerkin, gershgorin_bound, orthonormalize
from .exceptions import ConfigError, ConvergenceError, NotPositiveDefiniteError
from .gmg import VCycleSolver
from .projection import exact_eigenset, ritz_space

STRENGTH_THRESHOLD = 0.25
COARSEST_SIZE = 10  # a level of at most this many unknowns is not coarsened
MAX_LEVELS = 20


@dataclass(frozen=True)
class AggregateSet:
    assignment: np.ndarray  # per-unknown aggregate id
    n_c: int

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.n_c)


@dataclass(frozen=True)
class AmgLevel:
    A: SparseSymMatrix
    P: Optional[sp.csr_matrix]  # prolongation from this level's coarse child


@dataclass(frozen=True)
class AmgHierarchy:
    levels: list[AmgLevel]  # fine -> coarse
    M: Optional[SparseSymMatrix]  # the finest level's mass matrix

    @property
    def n_levels(self) -> int:
        return len(self.levels)


def strength_graph(A: SparseSymMatrix) -> sp.csr_matrix:
    """Boolean adjacency of strong connections:
    |a_ij| >= STRENGTH_THRESHOLD * sqrt(a_ii * a_jj), i != j."""
    diag = A.diagonal()
    bad = np.flatnonzero(diag <= 0.0)
    if bad.size:
        i = int(bad[0])
        raise NotPositiveDefiniteError(
            f"the matrix is not SPD: row {i} has the nonpositive diagonal entry "
            f"{diag[i]:.6g}")
    C = A.csr.tocoo()
    off = C.row != C.col
    row, col, val = C.row[off], C.col[off], C.data[off]
    strong = np.abs(val) >= STRENGTH_THRESHOLD * np.sqrt(diag[row] * diag[col])
    return sp.csr_matrix(
        (np.ones(int(strong.sum())), (row[strong], col[strong])), shape=(A.n, A.n)
    )


def aggregate(graph: sp.csr_matrix) -> AggregateSet:
    """Greedy aggregation, deterministic in natural vertex order.

    Pass 1 seeds an aggregate (vertex plus neighbors) wherever the whole
    closed neighborhood is still free, so a vertex without strong
    connections becomes a singleton there; pass 2 attaches each leftover,
    which pass 1 skipped only because a neighbor was already taken, to the
    adjacent aggregate with the strongest connection.
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
        assignment[i] = best
    return AggregateSet(assignment=assignment, n_c=n_c)


def tentative_prolongation(aggs: AggregateSet) -> sp.csr_matrix:
    """One normalized column per aggregate, piecewise constant (the
    near-null vector); disjoint supports make the columns orthonormal."""
    n = aggs.assignment.size
    vals = 1.0 / np.sqrt(aggs.sizes().astype(float))[aggs.assignment]
    return sp.csr_matrix(
        (vals, (np.arange(n), aggs.assignment)), shape=(n, aggs.n_c)
    )


def smoothed_prolongation(A: SparseSymMatrix, P_tent: sp.csr_matrix) -> sp.csr_matrix:
    """One damped-Jacobi step on the tentative prolongation:
    P = P_tent - omega D^{-1} (A P_tent), omega = (4/3) / rho_hat, where
    rho_hat = max_i sum_j |a_ij| / a_ii is the Gershgorin bound on the
    spectral radius of D^{-1} A (core.gershgorin_bound)."""
    d = A.diagonal()
    omega = (4.0 / 3.0) / gershgorin_bound(A)
    return (P_tent - sp.diags(omega / d) @ (A.csr @ P_tent)).tocsr()


def amg_setup(A: SparseSymMatrix, M: Optional[SparseSymMatrix] = None) -> AmgHierarchy:
    """Recursive smoothed-aggregation coarsening with Galerkin triple
    products, down to COARSEST_SIZE unknowns or MAX_LEVELS levels.

    The strength graph and the aggregates of each level are formed on the
    tentative Galerkin chain A_t <- P_t^T A_t P_t, whose levels have the
    same sizes; the hierarchy's levels hold the smoothed prolongation of
    smoothed_prolongation and the Galerkin products of the smoothed chain.
    The mass matrix M is held as given, for the finest level only:
    amg_coarse_space is its one reader.
    """
    levels: list[AmgLevel] = []
    A_cur, A_tent = A, A
    while A_cur.n > COARSEST_SIZE and len(levels) + 1 < MAX_LEVELS:
        aggs = aggregate(strength_graph(A_tent))
        if aggs.n_c >= A_cur.n:
            if len(levels) == 0:
                raise ConvergenceError(
                    f"coarsening stagnated at n = {A_cur.n} (n_c = {aggs.n_c}); "
                    f"threshold {STRENGTH_THRESHOLD} leaves no strong connections"
                )
            break
        P_tent = tentative_prolongation(aggs)
        P = smoothed_prolongation(A_cur, P_tent)
        levels.append(AmgLevel(A=A_cur, P=P))
        A_tent = galerkin(P_tent, A_tent)
        A_cur = galerkin(P, A_cur)
    levels.append(AmgLevel(A=A_cur, P=None))
    return AmgHierarchy(levels=levels, M=M)


def amg_coarse_space(hier: AmgHierarchy, depth: int) -> CoarseSpace:
    """Range of the smoothed prolongation chain P_0 ... P_(depth-1) (the
    whole space at depth 0), held by its Ritz basis, M-orthonormal (plain
    L2 when the pencil has no mass matrix).  The chain is applied factor by
    factor and never composed: its product fills in to a dense n x m
    matrix."""
    if not 0 <= depth <= hier.n_levels - 1:
        raise ConfigError(f"depth {depth} out of range for {hier.n_levels} levels")
    chain = [lvl.P for lvl in hier.levels[:depth]]
    return ritz_space(hier.levels[0].A, hier.M,
                      chain or sp.identity(hier.levels[0].A.n, format="csr"))


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

    def __init__(self, hier: AmgHierarchy):
        coarse_to_fine = hier.levels[::-1]
        super().__init__([lvl.A for lvl in coarse_to_fine],
                         [lvl.P for lvl in coarse_to_fine[1:]])


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
