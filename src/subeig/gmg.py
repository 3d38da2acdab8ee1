"""P1 finite element hierarchies on the unit interval / unit square,
stiffness and mass assembly, nested prolongation, the Gauss-Seidel V-cycle
of both multigrid backends with its PCG solve, and the coarse-space-driven
eigensolver."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import dense
from .core import Basis, SparseSymMatrix, _GaussSeidel, cg_solve, orthonormalize
from .exceptions import ConfigError, DimensionMismatchError
from .inverse_power import IpmConfig, IterationReport, ipm_run

MAX_UNKNOWNS = 2_000_000


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


@dataclass(frozen=True)
class FemPencil:
    A: SparseSymMatrix
    M: SparseSymMatrix
    level: int


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

    def vid(i, j):
        return i * npts + j

    tris = []
    for i in range(npts - 1):
        for j in range(npts - 1):
            # split each cell along the (i,j)-(i+1,j+1) diagonal
            tris.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            tris.append((vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)))
    I, J = np.divmod(np.arange(npts * npts), npts)
    interior = (I > 0) & (I < npts - 1) & (J > 0) & (J < npts - 1)
    h = math.sqrt(2.0) / (npts - 1)  # max element diameter
    return MeshLevel(
        dim=2, vertices=vertices, elements=np.array(tris, dtype=int), h=h,
        interior=interior, interior_index=_index_map(interior),
    )


def _refine_parents(dim: int, n_coarse_interior: int) -> np.ndarray:
    """Parent pairs for midpoint refinement on the structured grids."""
    if dim == 1:
        npts_c = n_coarse_interior + 2
        npts_f = 2 * (npts_c - 1) + 1
        parents = np.empty((npts_f, 2), dtype=int)
        for f in range(npts_f):
            if f % 2 == 0:
                parents[f] = (f // 2, f // 2)
            else:
                parents[f] = (f // 2, f // 2 + 1)
        return parents
    npts_c = n_coarse_interior + 2
    npts_f = 2 * (npts_c - 1) + 1

    def cvid(i, j):
        return i * npts_c + j

    parents = np.empty((npts_f * npts_f, 2), dtype=int)
    for i in range(npts_f):
        for j in range(npts_f):
            f = i * npts_f + j
            ic, jc = i // 2, j // 2
            if i % 2 == 0 and j % 2 == 0:
                parents[f] = (cvid(ic, jc), cvid(ic, jc))
            elif i % 2 == 1 and j % 2 == 0:
                parents[f] = (cvid(ic, jc), cvid(ic + 1, jc))
            elif i % 2 == 0 and j % 2 == 1:
                parents[f] = (cvid(ic, jc), cvid(ic, jc + 1))
            else:
                # midpoint of the cell diagonal used by the triangulation
                parents[f] = (cvid(ic, jc), cvid(ic + 1, jc + 1))
    return parents


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
            level = MeshLevel(
                dim=level.dim, vertices=level.vertices, elements=level.elements,
                h=level.h, interior=level.interior,
                interior_index=level.interior_index,
                parents=_refine_parents(level.dim, (n - 1) // 2),
            )
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
    """P1 stiffness/mass with homogeneous Dirichlet unknowns eliminated."""
    rows_a, cols_a, vals_a = [], [], []
    rows_m, cols_m, vals_m = [], [], []
    if mesh.dim == 1:
        for el in mesh.elements:
            a, b = el
            he = abs(mesh.vertices[b, 0] - mesh.vertices[a, 0])
            if he == 0.0:
                raise DimensionMismatchError("degenerate interval element")
            Ke = (1.0 / he) * np.array([[1.0, -1.0], [-1.0, 1.0]])
            Me = (he / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
            _scatter(el, Ke, rows_a, cols_a, vals_a)
            _scatter(el, Me, rows_m, cols_m, vals_m)
    else:
        for el in mesh.elements:
            pts = mesh.vertices[el]
            J = np.column_stack([pts[1] - pts[0], pts[2] - pts[0]])
            detJ = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
            area = abs(detJ) / 2.0
            if area == 0.0:
                raise DimensionMismatchError("degenerate triangle element")
            # gradients of the reference hats mapped to the element
            Jinv = np.array([[J[1, 1], -J[0, 1]], [-J[1, 0], J[0, 0]]]) / detJ
            G = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]) @ Jinv
            Ke = area * (G @ G.T)
            Me = (area / 12.0) * (np.ones((3, 3)) + np.eye(3))
            _scatter(el, Ke, rows_a, cols_a, vals_a)
            _scatter(el, Me, rows_m, cols_m, vals_m)
    nv = mesh.vertices.shape[0]
    A_full = sp.coo_matrix((vals_a, (rows_a, cols_a)), shape=(nv, nv)).tocsr()
    M_full = sp.coo_matrix((vals_m, (rows_m, cols_m)), shape=(nv, nv)).tocsr()
    keep = np.flatnonzero(mesh.interior)
    A = A_full[np.ix_(keep, keep)]
    M = M_full[np.ix_(keep, keep)]
    return FemPencil(
        A=SparseSymMatrix.from_csr(A, spd=True),
        M=SparseSymMatrix.from_csr(M, spd=True),
        level=-1,
    )


def _scatter(el, Ke, rows, cols, vals):
    for a in range(len(el)):
        for b in range(len(el)):
            rows.append(el[a])
            cols.append(el[b])
            vals.append(Ke[a, b])


def prolongation(coarse: MeshLevel, fine: MeshLevel) -> sp.csr_matrix:
    """Interior-to-interior P1 interpolation between nested levels."""
    if fine.parents is None:
        raise ConfigError("fine level carries no refinement parentage")
    rows, cols, vals = [], [], []
    for f in np.flatnonzero(fine.interior):
        fi = fine.interior_index[f]
        p0, p1 = fine.parents[f]
        if p0 == p1:
            c = coarse.interior_index[p0]
            if c >= 0:
                rows.append(fi)
                cols.append(c)
                vals.append(1.0)
        else:
            for p in (p0, p1):
                c = coarse.interior_index[p]
                if c >= 0:
                    rows.append(fi)
                    cols.append(c)
                    vals.append(0.5)
    n_f = int(fine.interior.sum())
    n_c = int(coarse.interior.sum())
    return sp.csr_matrix((vals, (rows, cols)), shape=(n_f, n_c))


def assemble_hierarchy(hier: MeshHierarchy) -> tuple[list[FemPencil], list[sp.csr_matrix]]:
    """Pencils for every level plus the prolongation chain (coarse->fine)."""
    pencils = [
        FemPencil(A=p.A, M=p.M, level=lvl)
        for lvl, p in enumerate(assemble_p1(m) for m in hier.levels)
    ]
    prolongations = [
        prolongation(hier.levels[lvl], hier.levels[lvl + 1])
        for lvl in range(hier.n_levels - 1)
    ]
    return pencils, prolongations


def coarse_space(
    pencils: list[FemPencil],
    prolongations: list[sp.csr_matrix],
    target_level: int,
    coarse_level: int,
) -> Basis:
    """Coarse hat functions expressed on the target level, M-orthonormalized."""
    if not coarse_level < target_level:
        raise ConfigError(f"need coarse_level < target_level, got {coarse_level} >= {target_level}")
    P = prolongations[coarse_level]
    for lvl in range(coarse_level + 1, target_level):
        P = prolongations[lvl] @ P
    return orthonormalize(P.toarray(), weight=pencils[target_level].M)


class VCycleSolver:
    """The symmetric V-cycle of both multigrid backends, over SPD levels
    given coarse -> fine: forward Gauss-Seidel pre-smoothing, backward
    post-smoothing, and on the coarsest level the dense inverse formed once
    from its Cholesky factor."""

    def __init__(self, matrices: list[SparseSymMatrix],
                 prolongations: list[sp.csr_matrix], nu: int = 2):
        if len(matrices) != len(prolongations) + 1:
            raise ConfigError("need one prolongation per level pair")
        self.matrices = matrices
        self.prolongations = prolongations
        self.nu = nu
        self._A0_inv = dense.spd_inverse(matrices[0].to_dense())
        self._smoothers = [None] + [_GaussSeidel(A) for A in matrices[1:]]

    def cycle(self, b: np.ndarray, x0: Optional[np.ndarray] = None) -> np.ndarray:
        """One V-cycle for A x = b on the finest level, starting from x0
        (which it may overwrite) or from zero."""
        return self._cycle(b, len(self.matrices) - 1, x0)

    def _cycle(self, b: np.ndarray, level: int,
               x0: Optional[np.ndarray] = None) -> np.ndarray:
        if level == 0:
            return self._A0_inv @ b
        smoother = self._smoothers[level]
        x = np.zeros_like(b) if x0 is None else x0
        smoother.smooth(x, b, self.nu)
        r = b - self.matrices[level].matvec(x)
        P = self.prolongations[level - 1]
        x += P @ self._cycle(P.T @ r, level - 1)
        smoother.smooth(x, b, self.nu, reverse=True)
        return x

    def solve(self, b: np.ndarray, tol: float = 1e-12,
              max_cycles: int = 200) -> np.ndarray:
        """CG on the finest level with one V-cycle as preconditioner.

        The symmetric cycle is an SPD preconditioner, so CG converges at
        least as fast as repeating the cycle (in the energy norm), and it
        keeps unsmoothed aggregation cycles, which stall near factor 0.9 on
        their own on stiff 1D chains, cheap to converge.
        """
        return cg_solve(self.matrices[-1], b, tol=tol, max_iter=max_cycles,
                        preconditioner=self.cycle)


@dataclass
class GmgRunResult:
    report: IterationReport
    h: float
    H: float
    mean_rate: Optional[float]
    mesh_condition_violated: bool


def measured_mean_rate(report: IterationReport) -> Optional[float]:
    rates = [r.measured_rate for r in report.records if r.measured_rate is not None]
    if not rates:
        return None
    return float(np.exp(np.mean(np.log(rates))))


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
    mean_rate = measured_mean_rate(report)
    violated = any(
        r.measured_rate is not None and r.measured_rate >= 1.0 for r in report.records
    )
    return GmgRunResult(
        report=report,
        h=hier.levels[-1].h,
        H=hier.levels[coarse_level].h,
        mean_rate=mean_rate,
        mesh_condition_violated=violated,
    )
