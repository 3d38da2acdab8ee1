"""Dense kernels for the small projected problems and the desk-scale
oracles: Cholesky, the inverse Cholesky factor, the symmetric (and
symmetric-definite) eigensolver, all backed by numpy's LAPACK, and the
lowest pairs of a diagonal matrix with a narrow border.

numpy.linalg is used rather than scipy.linalg because numpy loads its
LAPACK at import anyway, while importing scipy.linalg raises the peak
resident set size of a small solve by about 15%.
"""

from __future__ import annotations

import numpy as np

from .exceptions import NotPositiveDefiniteError


def cholesky(S: np.ndarray) -> np.ndarray:
    """Lower-triangular L with S = L L^T.  Raises if S is not SPD."""
    try:
        return np.linalg.cholesky(np.asarray(S, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"Cholesky failed: {exc}") from exc


def inverse_cholesky(S: np.ndarray) -> np.ndarray:
    """W = L^{-1} for the Cholesky factor L of SPD S, so that
    W S W^T = I and S^{-1} = W^T W.  Computed once, it turns every later
    solve with S into matrix products."""
    return np.linalg.inv(cholesky(S))


def spd_inverse(S: np.ndarray) -> np.ndarray:
    """S^{-1} = W^T W for SPD S, from its inverse Cholesky factor W."""
    W = inverse_cholesky(S)
    return W.T @ W


def sym_eig(S: np.ndarray, vectors: bool = True):
    """All eigenvalues (ascending) of symmetric S; vectors as orthonormal
    columns when requested.  Returns (values, vectors_or_None)."""
    S = np.asarray(S, dtype=float)
    if vectors:
        vals, vecs = np.linalg.eigh(S)
        return vals, vecs
    return np.linalg.eigvalsh(S), None


def generalized_sym_eig(A: np.ndarray, M: np.ndarray, vectors: bool = True):
    """Solve A x = lam M x for symmetric A and SPD M via Cholesky reduction.

    Returned vectors are M-orthonormal columns.
    """
    return reduced_sym_eig(A, inverse_cholesky(M), vectors)


def reduced_sym_eig(A: np.ndarray, W: np.ndarray, vectors: bool = True):
    """generalized_sym_eig for the M whose inverse Cholesky factor is W
    (W M W^T = I), for a caller that has factored M already."""
    C = W @ np.asarray(A, dtype=float) @ W.T
    C = 0.5 * (C + C.T)  # round-off symmetrization of the reduced operator
    vals, Z = sym_eig(C, vectors=vectors)
    X = W.T @ Z if vectors else None
    return vals, X


# The Rayleigh-Ritz solve of bordered_sym_eig runs only on bordered matrices
# of at least this order, and only when its basis stays small against the
# order: 2 * count * p <= m + p.  Otherwise one LAPACK eigh of the whole
# matrix is about as fast or faster.  Measured on one core (min of 3 rounds,
# certified borders of the runs named):
# - the k = 4 borders of the gmg2d benchmark (count 5, p 4) cut to order N:
#   eigh 0.3, 0.5, 1.3, 2.1 and 7.8 ms at N = 48, 64, 96, 128 and 229,
#   the Rayleigh-Ritz solve 0.4, 0.8, 1.2, 0.9 and 1.6 ms;
# - GMG at n = 3969 (m = 225, N = m + p): count * p = 72 / 156 / 272 took
#   2.5 / 6.6 / 13.5 ms against 5.7 / 6.0 / 8.2 ms for eigh;
# - GMG at n = 16129 (m = 961): count * p = 20 / 72 / 272 / 600 / 1056 took
#   1.8 / 11 / 59 / 171 / 371 ms against 205-272 ms for eigh.
# So the crossover lies near count * p = 0.6 (m + p) at both sizes, and
# near N = 96 for the gmg2d request; the order bound also keeps every border
# of the verify suites (m + p < 128) on eigh.
_SECULAR_MIN_ORDER = 128
# Poles nearer than this share of the scale to a shift contribute their unit
# vector to the Rayleigh-Ritz basis of the lifts.
_NEAR_POLE = 1e-3
# Rayleigh-Ritz passes before the solve gives up.  Measured: the borders of
# GMG runs at n = 16129 (m = 961) certify after one pass, those at n = 961
# and 3969 (m = 225) after two, and the AMG borders at n = 16129 (m = 161,
# strongly coupled) after three.
_MAX_PASSES = 3


def bordered_sym_eig(theta: np.ndarray, C: np.ndarray, D: np.ndarray,
                     count: int, vectors: int):
    """The count lowest eigenvalues of H = [[diag(theta), C], [C^T, D]] and
    orthonormal eigenvectors of its vectors <= count lowest, as (values,
    (m + p) x vectors array); theta ascending (m), C m x p, D symmetric p x p.

    Small matrices, and requests for many pairs, go to one eigh of H.
    Otherwise Rayleigh-Ritz on a small subspace answers (_lift_ritz).  For
    sigma off the poles theta_i, the eigenvectors of H for an eigenvalue
    lam are [-(Theta - lam I)^{-1} C z; z], so the columns of the shift-
    invert lifts [-(Theta - sigma I)^{-1} C; I], one p-column block per
    shift, with the unit vectors of poles near a shift split off, span them
    when the shifts are the wanted eigenvalues.  The first shifts are the
    count lowest eigenvalues of the leading block [[diag(theta_1..theta_r),
    C_r], [C_r^T, D]], r = count + p (one small eigvalsh), upper bounds by
    Cauchy interlacing; each further pass, up to _MAX_PASSES, shifts at the
    previous pass's Ritz values, until every one of the count Ritz pairs
    (not only the vectors returned) leaves a residual ||H x - lam x|| of at
    most tol = 100 eps times the scale of H.  Kahan's residual bound
    (Parlett, The Symmetric Eigenvalue Problem, 11.5) then puts count
    eigenvalues of H within sqrt(count) tol of the Ritz values, and they
    are the count lowest when H has exactly count eigenvalues below
    lam_count + sqrt(count) tol.  That count is Haynsworth's inertia
    additivity, #{theta_i < sigma} plus the negative eigenvalues of the
    p x p Schur complement S(sigma) = D - sigma I - C^T (Theta - sigma I)^{-1} C,
    with sigma stepped off a pole it hits.  When the residuals or the count
    fail, H goes to eigh after all."""
    theta = np.asarray(theta, dtype=float)
    m, p = C.shape
    count = min(count, m + p)
    vectors = min(vectors, count)
    if p > 0 and m + p >= _SECULAR_MIN_ORDER and 2 * count * p <= m + p:
        out = _lift_ritz(theta, C, D, count, vectors)
        if out is not None:
            return out
    H = np.block([[np.diag(theta), C], [C.T, D]])
    vals, Y = sym_eig(0.5 * (H + H.T))
    return vals[:count], Y[:, :vectors]


def _lift_ritz(theta, C, D, count, vectors):
    """The certified Rayleigh-Ritz solve of bordered_sym_eig, or None when
    its certificate fails."""
    m, p = C.shape
    scale = max(float(np.abs(theta).max()), float(np.linalg.norm(D))) \
        + float(np.linalg.norm(C))
    tol = 100.0 * np.finfo(float).eps * scale
    r = min(count + p, m)
    lam = np.linalg.eigvalsh(np.block([[np.diag(theta[:r]), C[:r]], [C[:r].T, D]]))[:count]
    for _ in range(_MAX_PASSES):
        lam, X, residual = _lift_pairs(theta, C, D, lam, scale)
        if residual.max() <= tol:
            break
    if residual.max() > tol \
            or _count_below(theta, C, D, lam[-1] + np.sqrt(count) * tol) != count:
        return None
    return lam, X[:, :vectors]


def _lift_pairs(theta, C, D, shifts, scale):
    """One Rayleigh-Ritz pass on the span of the lifts at the shifts: the
    lowest shifts.size Ritz values, their orthonormal Ritz vectors and
    residual norms."""
    m, p = C.shape
    c = shifts.size
    diff = theta[None, :] - shifts[:, None]
    near = (np.abs(diff) <= _NEAR_POLE * scale).any(axis=0)
    lift = -C[None, :, :] / np.where(near, 1.0, diff)[:, :, None]  # c x m x p
    lift[:, near, :] = 0.0
    B = np.zeros((m + p, c * p + int(near.sum())))
    B[:m, :c * p] = lift.transpose(1, 0, 2).reshape(m, c * p)
    B[m:, :c * p] = np.tile(np.eye(p), c)
    B[np.flatnonzero(near), c * p + np.arange(int(near.sum()))] = 1.0
    Q = np.linalg.qr(B)[0] if B.shape[1] < m + p else np.eye(m + p)
    HQ = np.vstack([theta[:, None] * Q[:m] + C @ Q[m:], C.T @ Q[:m] + D @ Q[m:]])
    lam, V = np.linalg.eigh(0.5 * (Q.T @ HQ + HQ.T @ Q))
    lam, V = lam[:c], V[:, :c]
    X = Q @ V
    return lam, X, np.linalg.norm(HQ @ V - X * lam[None, :], axis=0)


def _count_below(theta, C, D, sigma):
    """The number of eigenvalues of H below sigma by Haynsworth inertia
    additivity, sigma stepped off any pole it hits."""
    while np.any(theta == sigma):
        sigma = np.nextafter(sigma, np.inf)
    S = D - sigma * np.eye(D.shape[0]) - (C.T / (theta - sigma)) @ C
    return int(np.searchsorted(theta, sigma, "left")) \
        + int(np.count_nonzero(np.linalg.eigvalsh(S) < 0.0))
