"""Independent reference for the symmetric eigensolver: Householder
tridiagonalization followed by implicit-shift QL, written with numpy array
arithmetic only (no LAPACK).  The library's dense kernels call LAPACK; the
tests compare them against this code so that the oracle is not checked
against itself."""

from __future__ import annotations

import math

import numpy as np

from subeig.exceptions import ConvergenceError

_EPS = np.finfo(float).eps


def tridiagonalize(S: np.ndarray, vectors: bool = True):
    """Householder reduction of symmetric S to tridiagonal form.

    Returns (d, e, Q) with Q^T S Q = tridiag(d, e); Q is None when
    vectors=False.
    """
    A = np.array(S, dtype=float, copy=True)
    n = A.shape[0]
    Q = np.eye(n) if vectors else None
    for k in range(n - 2):
        x = A[k + 1 :, k]
        nx = math.sqrt(float(x @ x))
        if nx == 0.0:
            continue
        v = x.copy()
        v[0] += math.copysign(nx, v[0] if v[0] != 0.0 else 1.0)
        v /= math.sqrt(float(v @ v))
        # two-sided application of H = I - 2 v v^T to the trailing block
        w = A[k + 1 :, k + 1 :] @ v
        w -= v * float(v @ w)
        A[k + 1 :, k + 1 :] -= 2.0 * (np.outer(v, w) + np.outer(w, v))
        tail = A[k + 1 :, k]
        tail -= 2.0 * v * float(v @ tail)
        A[k, k + 1 :] = A[k + 1 :, k]
        if Q is not None:
            Q[:, k + 1 :] -= 2.0 * np.outer(Q[:, k + 1 :] @ v, v)
    d = np.diag(A).copy()
    e = np.diag(A, -1).copy()
    return d, e, Q


def tql_implicit(d: np.ndarray, e: np.ndarray, Q: np.ndarray | None, max_sweeps: int = 100):
    """Implicit-shift QL iteration on a symmetric tridiagonal matrix.

    d (length n) and e (length n-1) are modified in place; rotations are
    accumulated into the columns of Q when it is given.  Returns the
    eigenvalues in d, unsorted.
    """
    n = d.size
    ee = np.zeros(n)
    ee[: n - 1] = e
    # backward-stable absolute deflation floor: zeroing an off-diagonal below
    # eps*||T|| perturbs the matrix by at most eps*||T||, and without it the
    # relative test stalls on heavily graded spectra
    anorm = float(np.max(np.abs(d)) + (np.max(np.abs(e)) if n > 1 else 0.0))
    floor = _EPS * anorm
    for l in range(n):
        sweeps = 0
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(ee[m]) <= _EPS * dd + floor:
                    break
                m += 1
            if m == l:
                break
            sweeps += 1
            if sweeps > max_sweeps:
                raise ConvergenceError(f"QL iteration failed to deflate index {l}")
            g = (d[l + 1] - d[l]) / (2.0 * ee[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + ee[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            broke = False
            for i in range(m - 1, l - 1, -1):
                f = s * ee[i]
                b = c * ee[i]
                r = math.hypot(f, g)
                ee[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    ee[m] = 0.0
                    broke = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                if Q is not None:
                    qi1 = Q[:, i + 1].copy()
                    Q[:, i + 1] = s * Q[:, i] + c * qi1
                    Q[:, i] = c * Q[:, i] - s * qi1
            if broke:
                continue
            d[l] -= p
            ee[l] = g
            ee[m] = 0.0
    return d


def ql_sym_eig(S: np.ndarray, vectors: bool = True):
    """All eigenvalues (ascending) of symmetric S; vectors as orthonormal
    columns when requested.  Returns (values, vectors_or_None)."""
    S = np.asarray(S, dtype=float)
    n = S.shape[0]
    if n == 0:
        return np.empty(0), (np.empty((0, 0)) if vectors else None)
    if n == 1:
        return S[0, :1].astype(float).copy(), (np.ones((1, 1)) if vectors else None)
    d, e, Q = tridiagonalize(S, vectors=vectors)
    tql_implicit(d, e, Q)
    order = np.argsort(d, kind="stable")
    vals = d[order]
    vecs = Q[:, order] if vectors else None
    return vals, vecs
