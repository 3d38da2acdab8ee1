"""Dense kernels for the small projected problems and the desk-scale
oracles: Cholesky, the inverse Cholesky factor, the symmetric (and
symmetric-definite) eigensolver, all backed by numpy's LAPACK, and the
secular solve of a diagonal matrix with a narrow border.

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


# The secular solve of bordered_sym_eig runs only on bordered matrices of at
# least this order, and only when it asks for few pairs: 4 * count * p <= m + p.
# Below it one LAPACK eigh of the whole matrix is cheaper: measured on one
# core with the k = 4 bordered matrices of the gmg2d benchmark cut to order
# N, eigh took 0.4, 1.1, 2.0 and 7.7 ms at N = 48, 96, 128 and 229, the
# secular solve about 2 ms at each.
_SECULAR_MIN_ORDER = 128
_SECULAR_MAX_ITER = 100
# Poles nearer than this share of the scale to a wanted root contribute their
# unit vector to the Rayleigh-Ritz basis of the secular eigenvectors.
_NEAR_POLE = 1e-3


def bordered_sym_eig(theta: np.ndarray, C: np.ndarray, D: np.ndarray,
                     count: int, vectors: int):
    """The count lowest eigenvalues of H = [[diag(theta), C], [C^T, D]] and
    orthonormal eigenvectors of its vectors <= count lowest, as (values,
    (m + p) x vectors array); theta ascending (m), C m x p, D symmetric p x p.

    Small matrices, and requests for many pairs, go to one eigh of H.
    Otherwise the roots come from a secular solve of the p-column border
    (Haynsworth inertia additivity): for sigma off the poles theta_i, the
    number of eigenvalues of H below sigma is #{theta_i < sigma} plus the
    number of negative eigenvalues of the p x p Schur complement
    S(sigma) = D - sigma I - C^T (Theta - sigma I)^{-1} C, evaluated for
    all wanted roots at once from the precomputed m x p^2 products c_i c_i^T.
    Counts just off the lowest poles isolate each root between two poles,
    narrowed by Cauchy interlacing, theta_{j-p} <= lam_j <= min(theta_j,
    d_j) with d the eigenvalues of D.  Each iterate then updates the
    bracket by its count and steps to the root of a one-pole model of the
    eigenvalue branch of S that crosses zero (model_root in _secular),
    falling back to bisection.  Every branch has slope at most -1, since
    S'(sigma) = -I - C^T (Theta - sigma I)^{-2} C, so each root is a simple
    zero of its branch even when roots of H coincide.  The eigenvectors
    [-(Theta - lam I)^{-1} C z; z], z in ker S(lam), all lie in the span of
    the columns of [-(Theta - lam_j I)^{-1} C; I] over the wanted roots,
    with the unit vectors of poles close to a root split off; one
    Rayleigh-Ritz step on that span, orthonormalized once, gives the
    vectors, so near-degenerate roots share one orthonormal basis.  If the
    solve stalls or its vectors leave a residual above round-off, H goes to
    eigh after all."""
    theta = np.asarray(theta, dtype=float)
    m, p = C.shape
    count = min(count, m + p)
    vectors = min(vectors, count)
    if p > 0 and m + p >= _SECULAR_MIN_ORDER and 4 * count * p <= m + p:
        out = _secular(theta, C, D, count, vectors)
        if out is not None:
            return out
    H = np.block([[np.diag(theta), C], [C.T, D]])
    vals, Y = sym_eig(0.5 * (H + H.T))
    return vals[:count], Y[:, :vectors]


def _secular(theta, C, D, count, vectors):
    """The secular solve of bordered_sym_eig, or None when it fails."""
    m, p = C.shape
    eps = np.finfo(float).eps
    scale = max(float(np.abs(theta).max()), float(np.linalg.norm(D))) \
        + float(np.linalg.norm(C))
    tol = 8.0 * eps * scale
    G = (C[:, :, None] * C[:, None, :]).reshape(m, p * p)  # rows c_i c_i^T
    D_flat, eye_flat = D.ravel(), np.eye(p).ravel()
    j = np.arange(count)

    def evaluate(s):
        """The points s (moved off any pole they hit), the eigenvalue counts
        of H below them, the poles below them, the eigenpairs of S(s) and
        the weights 1/(theta - s)."""
        with np.errstate(divide="ignore"):
            W = 1.0 / (theta[None, :] - s[:, None])
        if not np.isfinite(W).all():  # step off an exact pole
            s = np.where(np.isinf(W).any(axis=1), np.nextafter(s, np.inf), s)
            W = 1.0 / (theta[None, :] - s[:, None])
        ev, Z = np.linalg.eigh((D_flat - W @ G - s[:, None] * eye_flat).reshape(-1, p, p))
        below = np.searchsorted(theta, s, "left")
        return s, below + np.count_nonzero(ev < 0.0, axis=1), below, ev, Z, W

    def model_root(x, a, b, below, ev, Z, W):
        """Whether no pole lies inside each bracket (a, b), and the root of a
        model, fitted at x, of the branch s of S that crosses zero at lam_j.

        By Hellmann-Feynman, s(x) = z^T (D - x) z - sum_i w_i (c_i^T z)^2
        and s'(x) = -1 - sum_i w_i^2 (c_i^T z)^2, w_i = 1/(theta_i - x),
        for the branch's eigenvector z.  After the fixed-weight idea of
        LAPACK's dlaed4, the poles on one side of x are lumped into one pole
        that matches their share of the value and of the slope, the poles on
        the other side, with -x, into a line: s(sigma) ~ alpha - beta sigma
        -/+ g/(pole - sigma).  The side taken is the one whose lumped pole
        lies nearer.  Where the model's root leaves the bracket, or no pole
        lies on either side, a Newton step takes its place."""
        t = j - below
        free = ((np.searchsorted(theta, a, "right") == np.searchsorted(theta, b, "left"))
                & (t >= 0) & (t < p))
        t = np.minimum(np.maximum(t, 0), p - 1)
        value = ev[j, t]
        share = W * (Z[j, :, t] @ C.T) ** 2  # value share w_i (c_i^T z)^2
        rate = W * share  # slope share w_i^2 (c_i^T z)^2
        slope = 1.0 + np.sum(rate, axis=1)  # -s'(x)
        a_r = np.sum(np.where(W > 0.0, share, 0.0), axis=1)
        b_r = np.sum(np.where(W > 0.0, rate, 0.0), axis=1)
        a_l = a_r - np.sum(share, axis=1)
        b_l = slope - 1.0 - b_r
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            d_r = np.where(b_r > 0.0, a_r / b_r, np.inf)
            d_l = np.where(b_l > 0.0, a_l / b_l, np.inf)
            side = np.where(d_r <= d_l, 1.0, -1.0)
            dist = np.minimum(d_r, d_l)  # x to the lumped pole
            g = np.where(side > 0.0, a_r, a_l) * dist
            beta = slope - np.where(side > 0.0, b_r, b_l)
            u = side * value - beta * dist + g / dist
            root = np.sqrt(u * u + 4.0 * beta * g)
            delta = np.where(u > 0.0, 2.0 * g / (u + root), (root - u) / (2.0 * beta))
            model = np.where(np.isfinite(dist), x + side * (dist - delta), np.nan)
        newton = x + value / slope
        inside = (model > a) & (model < b)
        return free, np.where(inside | ~((newton > a) & (newton < b)), model, newton)

    # Brackets: the counts just off the poles that can lie below the wanted
    # roots isolate each root between two poles (or within eta of one),
    # narrowed by Cauchy interlacing with the blocks diag(theta) and D and by
    # Weyl's bound |lam_j - e_j| <= ||C|| with e the sorted diagonal blocks
    eta = 1e-10 * scale
    probes = np.sort(np.concatenate([theta[:count] - eta, theta[:count] + eta]))
    probes, N, below, ev, Z, W = evaluate(probes)
    at = np.searchsorted(np.maximum.accumulate(N), j, "right")
    ends = np.concatenate([[-np.inf], probes, [np.inf]])
    d = np.linalg.eigvalsh(D)
    e = np.sort(np.concatenate([theta[:count], d]))[:count]
    c_norm = float(np.linalg.norm(C))
    hi = np.minimum(np.where(j < m, theta[np.minimum(j, m - 1)], np.inf),
                    np.where(j < p, d[np.minimum(j, p - 1)], np.inf))
    lo = np.maximum(np.where(j >= p, theta[np.maximum(j - p, 0)], -np.inf),
                    np.where(j >= m, d[np.maximum(j - m, 0)], -np.inf))
    a = np.maximum(np.maximum(ends[at], lo - tol), e - c_norm - tol)
    b = np.minimum(np.minimum(ends[at + 1], hi + tol), e + c_norm + tol)
    # the first iterate: the model root fitted at the probe right of lam_j
    r = np.minimum(at, probes.size - 1)
    free, x = model_root(probes[r], a, b, below[r], ev[r], Z[r], W[r])
    x = np.where(free & (at < probes.size) & (x > a) & (x < b), x, 0.5 * (a + b))

    roots = np.empty(count)
    active = np.ones(count, dtype=bool)
    for _ in range(_SECULAR_MAX_ITER):
        x, N, below, ev, Z, W = evaluate(x)
        left = N > j
        a = np.where(active & ~left, x, a)
        b = np.where(active & left, x, b)
        free, newton = model_root(x, a, b, below, ev, Z, W)
        converged = free & (np.abs(newton - x) <= tol)
        done = active & (converged | (b - a <= tol))
        roots = np.where(done, np.where(converged, newton, 0.5 * (a + b)), roots)
        active &= ~done
        if not active.any():
            break
        x = np.where(free & (newton > a) & (newton < b), newton, 0.5 * (a + b))
    else:
        return None
    roots = np.sort(roots)
    X = _secular_vectors(theta, C, D, roots[:vectors], scale)
    return None if X is None else (roots, X)


def _secular_vectors(theta, C, D, lam, scale):
    """Orthonormal eigenvectors of the bordered matrix for the roots lam, by
    one Rayleigh-Ritz step on the span of the secular lifts; None when
    their residual exceeds round-off."""
    m, p = C.shape
    c = lam.size
    diff = theta[None, :] - lam[:, None]
    near = (np.abs(diff) <= _NEAR_POLE * scale).any(axis=0)
    lift = -C[None, :, :] / np.where(near, 1.0, diff)[:, :, None]  # c x m x p
    lift[:, near, :] = 0.0
    B = np.zeros((m + p, c * p + int(near.sum())))
    B[:m, :c * p] = lift.transpose(1, 0, 2).reshape(m, c * p)
    B[m:, :c * p] = np.tile(np.eye(p), c)
    B[np.flatnonzero(near), c * p + np.arange(int(near.sum()))] = 1.0
    Q = np.linalg.qr(B)[0] if B.shape[1] < m + p else np.eye(m + p)
    HQ = np.vstack([theta[:, None] * Q[:m] + C @ Q[m:], C.T @ Q[:m] + D @ Q[m:]])
    V = np.linalg.eigh(0.5 * (Q.T @ HQ + HQ.T @ Q))[1]
    X = Q @ V[:, :c]
    residual = np.linalg.norm(HQ @ V[:, :c] - X * lam[None, :], axis=0)
    if not np.all(residual <= 100.0 * np.finfo(float).eps * scale):
        return None
    return X
