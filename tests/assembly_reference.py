"""Independent reference for the P1 setup path: the element-by-element loops
that build the unit-square triangles, the refinement parents, the P1
stiffness and mass matrices and the nested prolongation.  The library
builds the same objects from index and element arrays; the tests compare
the two bit for bit."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from subeig.exceptions import DimensionMismatchError


def square_elements(n_interior: int) -> np.ndarray:
    """Triangles of the unit square with n_interior interior points per side,
    each cell split along its (i,j)-(i+1,j+1) diagonal."""
    npts = n_interior + 2

    def vid(i, j):
        return i * npts + j

    tris = []
    for i in range(npts - 1):
        for j in range(npts - 1):
            tris.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            tris.append((vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)))
    return np.array(tris, dtype=int)


def refine_parents(dim: int, n_coarse_interior: int) -> np.ndarray:
    """Parent pairs for midpoint refinement on the structured grids."""
    npts_c = n_coarse_interior + 2
    npts_f = 2 * (npts_c - 1) + 1
    if dim == 1:
        parents = np.empty((npts_f, 2), dtype=int)
        for f in range(npts_f):
            if f % 2 == 0:
                parents[f] = (f // 2, f // 2)
            else:
                parents[f] = (f // 2, f // 2 + 1)
        return parents

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
                parents[f] = (cvid(ic, jc), cvid(ic + 1, jc + 1))
    return parents


def assemble_p1(mesh) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """P1 stiffness and mass of a gmg.MeshLevel with the Dirichlet unknowns
    eliminated, as CSR matrices, one element matrix at a time."""
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
    return A_full[np.ix_(keep, keep)], M_full[np.ix_(keep, keep)]


def _scatter(el, Ke, rows, cols, vals):
    for a in range(len(el)):
        for b in range(len(el)):
            rows.append(el[a])
            cols.append(el[b])
            vals.append(Ke[a, b])


def prolongation(coarse, fine) -> sp.csr_matrix:
    """Interior-to-interior P1 interpolation between nested gmg.MeshLevels,
    one fine vertex at a time."""
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
