"""P1 finite element hierarchies on the unit interval / unit square,
stiffness and mass assembly, nested prolongation, the Chebyshev-smoothed
V-cycle of both multigrid backends with its PCG solve, and the
coarse-space-driven eigensolver."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from . import dense
from .core import (
    _DENSE_CYCLE,
    CoarseSpace,
    SparseSymMatrix,
    _Chebyshev,
    _cgs2_append,
    cg_solve,
    spmm,
)
from .exceptions import ConfigError, DimensionMismatchError
from .inverse_power import IpmConfig, IterationReport, ipm_run
from .projection import ritz_space

MAX_UNKNOWNS = 2_000_000
# The warm start's history holds at most this many solution blocks of the
# current width, and restarts from the last _RESTART_BLOCKS of them, so Q
# and AQ hold at most _HISTORY_BLOCKS * k columns of length n each.  The
# CGS2 drop rule keeps it smaller near convergence: the 7 solves of gmg2d
# end at 20 columns (room for 32), and amg2d restarts once in 18 solves.
_HISTORY_BLOCKS = 8
_RESTART_BLOCKS = 2


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
    def _assembly(self) -> tuple[tuple[FemPencil, ...], tuple[sp.csr_matrix, ...]]:
        pencils = tuple(map(assemble_p1, self.levels))
        prolongations = tuple(prolongation(coarse, fine)
                              for coarse, fine in zip(self.levels, self.levels[1:]))
        return pencils, prolongations


@dataclass(frozen=True)
class FemPencil:
    A: SparseSymMatrix
    M: SparseSymMatrix


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


def assemble_p1(mesh: MeshLevel) -> FemPencil:
    """P1 stiffness/mass with homogeneous Dirichlet unknowns eliminated.

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
    return FemPencil(A=SparseSymMatrix.from_csr(A), M=SparseSymMatrix.from_csr(M))


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
) -> tuple[tuple[FemPencil, ...], tuple[sp.csr_matrix, ...]]:
    """Pencils for every level plus the prolongation chain (coarse->fine).

    The hierarchy assembles them on the first call and keeps them, so every
    later call returns the same objects: gmg_eigensolve, the CLI and the
    verify suites share one assembly (and one oracle per pencil) per
    hierarchy.  Callers must not modify them."""
    return hier._assembly


def coarse_space(
    pencils: Sequence[FemPencil],
    prolongations: Sequence[sp.csr_matrix],
    target_level: int,
    coarse_level: int,
) -> CoarseSpace:
    """The span of the coarse hat functions expressed on the target level,
    held implicitly by the sparse composed prolongation P and the Ritz
    basis of the coarse pencil (P^T A P, P^T M P), solved once here."""
    if not coarse_level < target_level:
        raise ConfigError(f"need coarse_level < target_level, got {coarse_level} >= {target_level}")
    P = prolongations[coarse_level]
    for lvl in range(coarse_level + 1, target_level):
        P = prolongations[lvl] @ P
    return ritz_space(pencils[target_level].A, pencils[target_level].M, P)


class VCycleSolver:
    """The symmetric V-cycle of both multigrid backends, over SPD levels
    given coarse -> fine: one step of the Chebyshev smoother
    (core._Chebyshev) before and one after the coarse correction, down to
    the dense tail.  The tail is the highest level with at most
    _DENSE_CYCLE unknowns (or the coarsest level, when even it is larger):
    the cycle from that level down is a linear map B of the right-hand
    side, formed once as a dense symmetric matrix by running the cycle on
    the identity, so one product applies it.  On one level, B is the
    inverse from the Cholesky factor.  Every method takes an n-vector or an
    n x k block of independent right-hand sides; a block runs each cycle
    once for all its columns."""

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
        # the warm start: an A-orthonormal basis of the earlier solutions in
        # the first _m columns of _Q, their A-images in _AQ, and the last
        # _RESTART_BLOCKS solution blocks to restart from
        self._Q: Optional[np.ndarray] = None
        self._AQ: Optional[np.ndarray] = None
        self._m = 0
        self._recent: list[np.ndarray] = []

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

    def solve(self, b: np.ndarray, tol: float = 1e-12,
              max_cycles: int = 200) -> np.ndarray:
        """CG on the finest level with one V-cycle as preconditioner, one
        cycle per CG iteration; a block b gets one CG per column and one
        V-cycle per block.

        The symmetric cycle is an SPD preconditioner, so CG converges at
        least as fast as repeating the cycle (in the energy norm), and it
        keeps unsmoothed aggregation cycles, which stall near factor 0.9 on
        their own on stiff 1D chains, cheap to converge.

        CG starts from x0 = Q Q^T b, the A-orthogonal projection of the
        solution onto the span of the solver's earlier solution blocks, for
        an A-orthonormal basis Q of that span; the first solve starts from
        zero.  So a sequence of converging right-hand sides, as in inverse
        power iteration, needs fewer cycles, and more so the more earlier
        solutions its limit draws on (Fischer, Comput. Methods Appl. Mech.
        Engrg. 163, 1998).  Each solution block is then appended to Q by
        the CGS2 kernel core._cgs2_append weighted by the finest-level A,
        which drops zero, repeated and dependent columns by its rule, at
        the cost of one block product A X and one product A v per column;
        Q keeps its A-images AQ.  When Q would exceed _HISTORY_BLOCKS
        blocks of the current width, it restarts from the last
        _RESTART_BLOCKS solution blocks, so the block width may change
        between calls and the history stays bounded.
        """
        A = self.matrices[-1]
        b = np.asarray(b, dtype=float)
        x = cg_solve(A, b, tol=tol, max_iter=max_cycles, preconditioner=self.cycle,
                     x0=self._warm_start(b))
        self._remember(x.reshape(A.n, -1))
        return x

    def _warm_start(self, b: np.ndarray) -> Optional[np.ndarray]:
        """x0 = Q Q^T b, or None (a cold start) without a history."""
        if self._m == 0 or b.shape[0] != self._Q.shape[0]:
            return None  # a wrong length is cg_solve's error to raise
        Q = self._Q[:, :self._m]
        return Q @ (Q.T @ b)

    def _remember(self, X: np.ndarray) -> None:
        """Append the solution block X to the history Q, or restart Q from
        the last _RESTART_BLOCKS blocks when it would exceed
        _HISTORY_BLOCKS blocks of X's width."""
        width = X.shape[1]
        capacity = _HISTORY_BLOCKS * width
        self._recent = (self._recent + [X.copy()])[-_RESTART_BLOCKS:]
        if self._Q is not None and self._Q.shape[1] == capacity \
                and self._m + width <= capacity:
            self._m = _cgs2_append(self._Q, self._AQ, self._m, X, self.matrices[-1])
            return
        W = np.hstack(self._recent)
        if W.shape[1] > capacity:  # a much wider earlier block
            W = X
        self._Q = np.empty((X.shape[0], capacity), order="F")
        self._AQ = np.empty_like(self._Q)
        self._m = _cgs2_append(self._Q, self._AQ, 0, W, self.matrices[-1])


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
    and the V-cycle as inner solver."""
    pencils, prolongations = assemble_hierarchy(hier)
    fine = pencils[-1]
    K = coarse_space(pencils, prolongations, hier.n_levels - 1, coarse_level)
    if k > K.dim:
        raise ConfigError(f"k = {k} exceeds the coarse-space dimension {K.dim}")
    solver = VCycleSolver(
        [p.A for p in pencils[coarse_level:]], prolongations[coarse_level:]
    )
    cfg = replace(cfg or IpmConfig(), k=k)  # the caller's config stays as given
    cfg.inner_solve = lambda b: solver.solve(b, tol=cfg.inner_tol)
    report = ipm_run(fine.A, fine.M, K, None, cfg)
    return GmgRunResult(report=report, h=hier.levels[-1].h,
                        H=hier.levels[coarse_level].h)
