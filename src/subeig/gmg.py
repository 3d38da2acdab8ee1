"""P1 finite element hierarchies on the unit interval / unit square,
stiffness and mass assembly and nested prolongation; the multigrid
hierarchy of Galerkin levels that both backends build (GMG from nested
meshes, amg.amg_setup from its aggregation chain), with its coarse spaces
and its Chebyshev-smoothed V-cycle and PCG solve; and the
coarse-space-driven eigensolver."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from . import dense
from .core import (
    _DENSE_CYCLE,
    CoarseSpace,
    SparseSymMatrix,
    _Chebyshev,
    cg_solve,
    column_norms,
    galerkin,
    spmm,
)
from .exceptions import ConfigError, DimensionMismatchError
from .inverse_power import IpmConfig, IterationReport, ipm_run
from .projection import ritz

MAX_UNKNOWNS = 2_000_000
# The relative residual at which a solve without a tolerance stops.
_INEXACT_TOL = 1e-2


@dataclass(frozen=True)
class GalerkinLevel:
    """One level of a multigrid hierarchy: its pencil (A, M) and the
    prolongation P from the next-coarser level (None on the coarsest)."""

    A: SparseSymMatrix
    M: Optional[SparseSymMatrix]  # None only on the finest level of a pencil without one
    P: Optional[sp.csr_matrix] = None


@dataclass(frozen=True, eq=False)
class GalerkinHierarchy:
    """The multigrid hierarchy of both backends, levels fine -> coarse.
    The finest level holds the given pencil; each coarser one holds the
    Galerkin pencil (P^T A P, P^T M P) of the level above it, with P^T P
    for the mass matrix where the finest level has none.  GMG builds it
    from nested meshes (MeshHierarchy.multigrid), AMG from its aggregation
    chain (amg.amg_setup); the coarse spaces and the V-cycle read it and
    form no Galerkin product of their own."""

    levels: tuple[GalerkinLevel, ...]

    @staticmethod
    def from_chain(A: SparseSymMatrix, M: Optional[SparseSymMatrix],
                   chain: Iterable[sp.csr_matrix]) -> GalerkinHierarchy:
        """The hierarchy of the pencil (A, M) down a prolongation chain
        given fine -> coarse."""
        levels = []
        for P in chain:
            levels.append(GalerkinLevel(A, M, P))
            A, M = galerkin(P, A), galerkin(P, M)
        return GalerkinHierarchy((*levels, GalerkinLevel(A, M)))

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def coarse_space(self, depth: int) -> CoarseSpace:
        """The range of the prolongation chain from level depth to the
        finest (the whole space at depth 0), held by the Ritz basis of that
        level's pencil as it is: ritz on all of R^m, its vectors scaled to
        unit M_depth-norm, so P Y is M-orthonormal.  (Scaling the
        A-normalized vectors by sqrt(theta) instead leaves a Gram defect
        near eps * cond(A_depth).)  The chain is passed as its factors and
        never composed: a composed AMG chain fills in to a dense n x m
        matrix.  A rank-deficient chain raises NotPositiveDefiniteError
        from ritz, as the level's M is then singular."""
        if not 0 <= depth < self.n_levels:
            raise ConfigError(f"depth {depth} out of range for {self.n_levels} levels")
        level = self.levels[depth]
        rs = ritz(level.A, level.M, None)
        X = rs.vectors
        chain = tuple(lvl.P for lvl in self.levels[:depth])
        return CoarseSpace(
            factors=chain or (sp.identity(level.A.n, format="csr"),),
            Y=X / column_norms(X, X if level.M is None else level.M.matvec(X)),
            theta=rs.values, weight=self.levels[0].M)

    @functools.cached_property
    def vcycle(self) -> VCycleSolver:
        """The V-cycle over every level, built on first use; it keeps no
        state between solves, so every run on the hierarchy shares it,
        whatever level its coarse space comes from."""
        coarse_to_fine = self.levels[::-1]
        return VCycleSolver([lvl.A for lvl in coarse_to_fine],
                            [lvl.P for lvl in coarse_to_fine[1:]])


@dataclass(frozen=True)
class MeshLevel:
    dim: int
    vertices: np.ndarray  # nv x dim coordinates
    elements: np.ndarray  # ne x (dim+1) vertex ids
    h: float
    interior: np.ndarray  # bool mask over vertices
    # map vertex id -> interior unknown id (-1 on the boundary)
    interior_index: np.ndarray
    # per fine vertex: the one or two coarse parent vertex ids (equal when
    # the vertex persists from the coarse level); empty on the coarsest level
    parents: np.ndarray = field(default=None, repr=False)


@dataclass(frozen=True)
class MeshHierarchy:
    domain: str  # "interval" or "unit-square"
    levels: list[MeshLevel]  # coarse -> fine

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @functools.cached_property
    def multigrid(self) -> GalerkinHierarchy:
        """The Galerkin hierarchy of the nested-mesh chain: the pencil
        assembled on the finest mesh and its Galerkin products down the
        prolongations, built on first use and shared by every reader.  The
        Galerkin levels equal the pencils assembled on the coarser meshes
        (tests/test_gmg.py)."""
        meshes = self.levels[::-1]
        fine = assemble_p1(meshes[0])
        return GalerkinHierarchy.from_chain(
            fine.A, fine.M, [prolongation(c, f) for f, c in zip(meshes, meshes[1:])])


def _interval_level(n_interior: int) -> MeshLevel:
    nv = n_interior + 2
    x = np.linspace(0.0, 1.0, nv)
    elements = np.column_stack([np.arange(nv - 1), np.arange(1, nv)])
    interior = np.ones(nv, dtype=bool)
    interior[0] = interior[-1] = False
    return MeshLevel(
        dim=1, vertices=x[:, None], elements=elements, h=1.0 / (nv - 1),
        interior=interior, interior_index=_index_map(interior),
    )


def _index_map(interior: np.ndarray) -> np.ndarray:
    idx = -np.ones(interior.size, dtype=int)
    idx[interior] = np.arange(int(interior.sum()))
    return idx


def _square_level(n_interior: int) -> MeshLevel:
    npts = n_interior + 2
    xs = np.linspace(0.0, 1.0, npts)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel()])
    # lower-left vertex of every cell, cells in row-major (i, j) order; each
    # cell is split along its (i,j)-(i+1,j+1) diagonal
    v00 = (np.arange(npts - 1)[:, None] * npts + np.arange(npts - 1)).ravel()
    v10, v11, v01 = v00 + npts, v00 + npts + 1, v00 + 1
    elements = np.column_stack([v00, v10, v11, v00, v11, v01]).reshape(-1, 3)
    I, J = np.divmod(np.arange(npts * npts), npts)
    interior = (I > 0) & (I < npts - 1) & (J > 0) & (J < npts - 1)
    h = math.sqrt(2.0) / (npts - 1)  # max element diameter
    return MeshLevel(
        dim=2, vertices=vertices, elements=elements, h=h,
        interior=interior, interior_index=_index_map(interior),
    )


def _refine_parents(dim: int, n_coarse_interior: int) -> np.ndarray:
    """Parent pairs for midpoint refinement on the structured grids: a fine
    grid index i sits on coarse index i // 2 when even and between i // 2
    and i // 2 + 1 when odd; a vertex odd in both directions is the midpoint
    of the cell diagonal used by the triangulation."""
    npts_c = n_coarse_interior + 2
    npts_f = 2 * (npts_c - 1) + 1
    if dim == 1:
        half, odd = np.divmod(np.arange(npts_f), 2)
        return np.column_stack([half, half + odd])
    i, j = np.divmod(np.arange(npts_f * npts_f), npts_f)
    (ic, io), (jc, jo) = np.divmod(i, 2), np.divmod(j, 2)
    return np.column_stack([ic * npts_c + jc, (ic + io) * npts_c + jc + jo])


def build_hierarchy(domain: str, n0: int, n_levels: int,
                    max_unknowns: int = MAX_UNKNOWNS) -> MeshHierarchy:
    """Nested uniform hierarchy by midpoint refinement, coarse to fine."""
    if n0 < 1 or n_levels < 1:
        raise ConfigError("need n0 >= 1 and n_levels >= 1")
    if domain not in ("interval", "unit-square"):
        raise ConfigError(f"unknown domain {domain!r}")
    levels = []
    n = n0
    for lvl in range(n_levels):
        unknowns = n if domain == "interval" else n * n
        if unknowns > max_unknowns:
            raise ConfigError(f"level {lvl} would have {unknowns} unknowns (cap {max_unknowns})")
        level = _interval_level(n) if domain == "interval" else _square_level(n)
        if lvl > 0:
            level = replace(level, parents=_refine_parents(level.dim, (n - 1) // 2))
        levels.append(level)
        n = 2 * n + 1
    return MeshHierarchy(domain=domain, levels=levels)


def interval_hierarchy(n: int) -> MeshHierarchy:
    """Nested interval hierarchy refined from 3 up to n interior unknowns
    (n = 2^p * 4 - 1)."""
    size, levels = 3, 1
    while size < n:
        size, levels = 2 * size + 1, levels + 1
    if size != n:
        raise ConfigError(f"n = {n} is not reachable by refinement from 3")
    return build_hierarchy("interval", 3, levels)


def assemble_p1(mesh: MeshLevel) -> GalerkinLevel:
    """P1 stiffness/mass with homogeneous Dirichlet unknowns eliminated, as
    the finest level of a hierarchy (no prolongation).

    All element matrices are computed at once as an (elements x d+1 x d+1)
    array and scattered by one coo_matrix per operator over all vertices,
    entries in element order, so duplicates are summed in a fixed order;
    the boundary rows and columns are dropped after the sum."""
    el = mesh.elements
    if mesh.dim == 1:
        x = mesh.vertices[:, 0]
        he = np.abs(x[el[:, 1]] - x[el[:, 0]])
        if np.any(he == 0.0):
            raise DimensionMismatchError("degenerate interval element")
        Ke = (1.0 / he)[:, None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])
        Me = (he / 6.0)[:, None, None] * np.array([[2.0, 1.0], [1.0, 2.0]])
    else:
        pts = mesh.vertices[el]
        e1, e2 = pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]  # columns of J
        detJ = e1[:, 0] * e2[:, 1] - e2[:, 0] * e1[:, 1]
        area = np.abs(detJ) / 2.0
        if np.any(area == 0.0):
            raise DimensionMismatchError("degenerate triangle element")
        # gradients of the reference hats mapped to the element
        Jinv = np.stack([np.column_stack([e2[:, 1], -e2[:, 0]]),
                         np.column_stack([-e1[:, 1], e1[:, 0]])], axis=1)
        Jinv /= detJ[:, None, None]
        G = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]) @ Jinv
        Ke = area[:, None, None] * (G @ G.transpose(0, 2, 1))
        Me = (area / 12.0)[:, None, None] * (np.ones((3, 3)) + np.eye(3))
    d1 = el.shape[1]
    rows = np.repeat(el, d1, axis=1).ravel()  # entry (e, a, b) sits at row el[e, a]
    cols = np.tile(el, (1, d1)).ravel()  # and at column el[e, b]
    nv = mesh.vertices.shape[0]
    A, M = (_interior_block(sp.coo_matrix((E.ravel(), (rows, cols)), shape=(nv, nv)).tocsr(),
                            mesh)
            for E in (Ke, Me))
    return GalerkinLevel(A=SparseSymMatrix.from_csr(A), M=SparseSymMatrix.from_csr(M))


def _interior_block(C: sp.csr_matrix, mesh: MeshLevel) -> sp.csr_matrix:
    """The interior-interior block of a summed vertex CSR matrix, taken by
    index arithmetic on its indptr and indices: the entries whose row and
    column are both interior, in their stored order, renumbered to interior
    unknowns (interior_index is increasing, so the order stays sorted)."""
    row = np.repeat(np.arange(C.shape[0]), np.diff(C.indptr))
    kept = mesh.interior[row] & mesh.interior[C.indices]
    n = int(mesh.interior.sum())
    indptr = np.zeros(n + 1, dtype=C.indptr.dtype)
    np.cumsum(np.bincount(mesh.interior_index[row[kept]], minlength=n), out=indptr[1:])
    return sp.csr_matrix((C.data[kept], mesh.interior_index[C.indices[kept]], indptr),
                         shape=(n, n))


def prolongation(coarse: MeshLevel, fine: MeshLevel) -> sp.csr_matrix:
    """Interior-to-interior P1 interpolation between nested levels: a fine
    vertex that persists from the coarse level takes its value (weight 1),
    a new one the mean of its two parents (weight 1/2 each); boundary
    parents contribute nothing."""
    if fine.parents is None:
        raise ConfigError("fine level carries no refinement parentage")
    f = np.flatnonzero(fine.interior)
    parents = fine.parents[f]
    cols = coarse.interior_index[parents]
    persists = parents[:, 0] == parents[:, 1]
    keep = cols >= 0
    keep[:, 1] &= ~persists  # a persisting vertex has one parent
    rows = np.broadcast_to(fine.interior_index[f][:, None], cols.shape)
    vals = np.broadcast_to(np.where(persists, 1.0, 0.5)[:, None], cols.shape)
    n_f = int(fine.interior.sum())
    n_c = int(coarse.interior.sum())
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n_f, n_c))


def assemble_hierarchy(
    hier: MeshHierarchy,
) -> tuple[tuple[GalerkinLevel, ...], tuple[sp.csr_matrix, ...]]:
    """The levels of hier.multigrid coarse -> fine and their prolongation
    chain; kept for `perfbench/workload.py` until ROADMAP item 6."""
    levels = hier.multigrid.levels[::-1]
    return levels, tuple(lvl.P for lvl in levels[1:])


def coarse_space(pencils: Sequence[GalerkinLevel], prolongations: Sequence[sp.csr_matrix],
                 target_level: int, coarse_level: int) -> CoarseSpace:
    """GalerkinHierarchy.coarse_space on the levels of assemble_hierarchy up
    to target_level, which carry their prolongations; kept for
    `perfbench/workload.py` until ROADMAP item 6."""
    hier = GalerkinHierarchy(tuple(pencils[target_level::-1]))
    return hier.coarse_space(target_level - coarse_level)


class VCycleSolver:
    """The symmetric V-cycle of both multigrid backends, over SPD levels
    given coarse -> fine: one step of the Chebyshev smoother
    (core._Chebyshev) before and one after the coarse correction, down to
    the dense tail.  The tail is the highest level with at most
    _DENSE_CYCLE unknowns (or the coarsest level, when even it is larger):
    the cycle from that level down is a linear map B of the right-hand
    side, formed once as a dense symmetric matrix by running the cycle on
    the identity, so one product applies it.  On one level, B is the
    inverse from the Cholesky factor.  The levels are the caller's choice;
    runs take every level of their hierarchy (GalerkinHierarchy.vcycle),
    whatever level their coarse space comes from.  Every method takes an
    n-vector or an n x k block of independent right-hand sides; a block
    runs each cycle once for all its columns."""

    def __init__(self, matrices: Sequence[SparseSymMatrix],
                 prolongations: Sequence[sp.csr_matrix]):
        if len(matrices) != len(prolongations) + 1:
            raise ConfigError("need one prolongation per level pair")
        self.matrices = matrices
        self.prolongations = [P.tocsr() for P in prolongations]
        self._restrictions = [P.T.tocsr() for P in prolongations]
        self._tail_level = 0
        self._tail = dense.spd_inverse(matrices[0].to_dense())
        self._smoothers = [None] + [_Chebyshev(A) for A in matrices[1:]]
        top = 0
        while top + 1 < len(matrices) and matrices[top + 1].n <= _DENSE_CYCLE:
            top += 1
        if top > 0:
            n = matrices[top].n
            C = np.empty((n, n))
            for j in range(0, n, 64):  # column chunks bound the cycle's temporaries
                C[:, j:j + 64] = self._cycle(np.eye(n, min(64, n - j), -j), top)
            C += C.T  # numpy buffers the overlapping transpose
            C *= 0.5
            self._tail_level, self._tail = top, C

    def cycle(self, b: np.ndarray, x0: Optional[np.ndarray] = None) -> np.ndarray:
        """One V-cycle for A x = b (b a vector or a block) on the finest
        level, starting from x0 (which it may overwrite) or from zero."""
        return self._cycle(b, len(self.matrices) - 1, x0)

    def _cycle(self, b: np.ndarray, level: int,
               x0: Optional[np.ndarray] = None) -> np.ndarray:
        if level == self._tail_level:
            if x0 is None:
                return self._tail @ b
            return x0 + self._tail @ (b - self.matrices[level].matvec(x0))
        smoother = self._smoothers[level]
        x = smoother.smooth(b, x0)
        r = b - self.matrices[level].matvec(x)
        x += spmm(self.prolongations[level - 1], self._cycle(
            spmm(self._restrictions[level - 1], r), level - 1))
        return smoother.smooth(b, x)

    def solve(self, b: np.ndarray, tol: Optional[float] = None,
              max_cycles: int = 200) -> np.ndarray:
        """CG on the finest level from zero with one V-cycle as
        preconditioner, one cycle per CG iteration; a block b gets one CG
        per column and one V-cycle per block.  The solver keeps no state
        between calls.

        With tol (a scalar or one value per column), each column stops at
        that relative residual.  Without it the solve is inexact: each
        column stops at relative residual _INEXACT_TOL = 1e-2.  Inverse power
        iteration hands it the residual of its current Ritz vectors and
        solves for their correction, so this stop cuts the residual of that
        warm start 100-fold, and the correction shrinks as the outer
        iteration converges (inexact inverse iteration: Golub & Ye, BIT 40,
        2000).  The eigensolvers check their results by the a-posteriori
        residual of each Ritz pair, whatever the inner accuracy; runs that
        certify rates against the exact inner step pass tol.

        The symmetric cycle is an SPD preconditioner, so CG converges at
        least as fast as repeating the cycle (in the energy norm), and it
        keeps unsmoothed aggregation cycles, which stall near factor 0.9 on
        their own on stiff 1D chains, cheap to converge.
        """
        return cg_solve(self.matrices[-1], b, tol=_INEXACT_TOL if tol is None else tol,
                        max_iter=max_cycles, preconditioner=self.cycle)


@dataclass
class GmgRunResult:
    report: IterationReport
    h: float
    H: float


def mean_rates(report: IterationReport) -> tuple[Optional[float], Optional[float]]:
    """Geometric means of the per-iteration measured and theoretical rates,
    each None when no iteration recorded one."""
    def mean(rates):
        rates = [r for r in rates if r is not None]
        return float(np.exp(np.mean(np.log(rates)))) if rates else None

    return (mean([r.measured_rate for r in report.records]),
            mean([r.theo_rate for r in report.records]))


def gmg_eigensolve(
    hier: MeshHierarchy,
    k: int,
    coarse_level: int,
    cfg: Optional[IpmConfig] = None,
) -> GmgRunResult:
    """Block inverse power on the finest level with K = the coarse FEM space
    of coarse_level and the hierarchy's full-depth V-cycle as inner solver."""
    mg = hier.multigrid
    fine = mg.levels[0]
    K = mg.coarse_space(hier.n_levels - 1 - coarse_level)
    if k > K.dim:
        raise ConfigError(f"k = {k} exceeds the coarse-space dimension {K.dim}")
    cfg = replace(cfg or IpmConfig(), k=k)  # the caller's config stays as given
    cfg.inner_solve = mg.vcycle.solve
    report = ipm_run(fine.A, fine.M, K, None, cfg)
    return GmgRunResult(report=report, h=hier.levels[-1].h,
                        H=hier.levels[coarse_level].h)
