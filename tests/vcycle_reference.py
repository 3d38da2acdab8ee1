"""Independent reference for the V-cycle: the level-by-level recursive
cycle, with one step of the library's Chebyshev smoother before and after
the coarse correction on every level and an exact solve on the coarsest.
The library applies the cycle from a size cap down as one dense product;
the tests compare the two."""

from __future__ import annotations

from typing import Optional

import numpy as np

from subeig.core import _Chebyshev


class VCycleReference:
    """The V-cycle over the matrices and prolongations of a VCycleSolver
    (levels coarse -> fine)."""

    def __init__(self, matrices, prolongations):
        self.matrices = matrices
        self.prolongations = prolongations
        self.smoothers = [None] + [_Chebyshev(A) for A in matrices[1:]]

    def cycle(self, b: np.ndarray, x0: Optional[np.ndarray] = None) -> np.ndarray:
        return self._cycle(b, len(self.matrices) - 1, x0)

    def _cycle(self, b, level, x0=None):
        A = self.matrices[level]
        if level == 0:
            return np.linalg.solve(A.to_dense(), b)
        x = np.zeros_like(b) if x0 is None else x0.copy()
        x = self.smoothers[level].smooth(b, x)
        P = self.prolongations[level - 1]
        x += P @ self._cycle(P.T @ (b - A.matvec(x)), level - 1)
        return self.smoothers[level].smooth(b, x)
