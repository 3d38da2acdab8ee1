"""Independent reference for the V-cycle: the level-by-level recursive
V(nu, nu) cycle, with Gauss-Seidel pre- and post-smoothing on every level
and an exact solve on the coarsest.  The library applies the cycle from a
size cap down as one dense product; the tests compare the two."""

from __future__ import annotations

from typing import Optional

import numpy as np

from subeig.core import _GaussSeidel


class VCycleReference:
    """The V-cycle over the matrices and prolongations of a VCycleSolver
    (levels coarse -> fine)."""

    def __init__(self, matrices, prolongations, nu: int = 2):
        self.matrices = matrices
        self.prolongations = prolongations
        self.nu = nu
        self.smoothers = [None] + [_GaussSeidel(A) for A in matrices[1:]]

    def cycle(self, b: np.ndarray, x0: Optional[np.ndarray] = None) -> np.ndarray:
        return self._cycle(b, len(self.matrices) - 1, x0)

    def _cycle(self, b, level, x0=None):
        A = self.matrices[level]
        if level == 0:
            return np.linalg.solve(A.to_dense(), b)
        x = np.zeros_like(b) if x0 is None else x0.copy()
        self.smoothers[level].smooth(x, b, self.nu)
        P = self.prolongations[level - 1]
        x += P @ self._cycle(P.T @ (b - A.matvec(x)), level - 1)
        self.smoothers[level].smooth(x, b, self.nu, reverse=True)
        return x
