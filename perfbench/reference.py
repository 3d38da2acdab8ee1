"""References computed apart from subeig, and the checks that hold subeig's
results against them.

The pencils are assembled here from their closed-form stencils with
scipy.sparse, and their eigenvalues come from scipy (SuperLU shift-invert
Lanczos, LAPACK), so no check depends on subeig's own assembly or its
in-repo dense eigensolver. Each check function returns one (name, failure
message or None) pair per check it makes.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

# Agreement asked of the k computed eigenvalues against the reference.
EIG_RTOL = 1e-8
# Round-off allowed when a Ritz value sits below its reference value;
# Ritz values are minimax upper bounds, so any larger dip is an error.
MINIMAX_RTOL = 1e-11
# Conforming P1 eigenvalues lie above the continuous ones; on the meshes
# used here lambda_1 is within this share of 2 pi^2.
LAMBDA1_SHARE = 0.01
LAMBDA1_CONTINUOUS = 2.0 * math.pi ** 2
# Agreement asked of subeig's dense oracle against LAPACK on 1D pencils.
ORACLE_RTOL = 1e-10

VERIFY_SUITES = ("projection", "inverse", "gmg", "amg")


def _shift(n: int) -> sp.csr_matrix:
    return sp.diags([np.ones(n - 1)], [1], shape=(n, n), format="csr")


def unit_square_pencil(side: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """P1 stiffness and mass on the uniform unit-square mesh with side x side
    interior vertices, each cell split along its (i, j)-(i+1, j+1) diagonal.

    On this mesh the stiffness is the 5-point stencil; the mass couples each
    vertex to its six mesh neighbours with weight h^2/12 and to itself with
    h^2/2.
    """
    h = 1.0 / (side + 1)
    eye = sp.identity(side, format="csr")
    S = _shift(side)
    T = 2.0 * eye - S - S.T
    A = sp.kron(eye, T) + sp.kron(T, eye)
    N = sp.kron(S + S.T, eye) + sp.kron(eye, S + S.T) + sp.kron(S, S) + sp.kron(S.T, S.T)
    M = (h * h / 12.0) * (6.0 * sp.identity(side * side) + N)
    return A.tocsc(), M.tocsc()


def interval_pencil(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense P1 stiffness and mass on (0, 1) with n uniform interior vertices."""
    h = 1.0 / (n + 1)
    ones = np.ones(n - 1)
    A = (np.diag(2.0 * np.ones(n)) - np.diag(ones, 1) - np.diag(ones, -1)) / h
    M = (np.diag(4.0 * np.ones(n)) + np.diag(ones, 1) + np.diag(ones, -1)) * (h / 6.0)
    return A, M


def smallest_eigenvalues(A: sp.spmatrix, M: sp.spmatrix, k: int) -> np.ndarray:
    """The k smallest eigenvalues of A x = lam M x by shift-invert Lanczos
    about 0 (SuperLU factorization of A), ascending."""
    v0 = np.ones(A.shape[0])
    vals = scipy.sparse.linalg.eigsh(A, k=k, M=M, sigma=0.0, which="LM",
                                     v0=v0, return_eigenvectors=False)
    return np.sort(vals)


def interval_eigenvalues(n: int) -> np.ndarray:
    A, M = interval_pencil(n)
    return scipy.linalg.eigh(A, M, eigvals_only=True)


def check_eigen_result(status: str, values, reference) -> list[tuple[str, str | None]]:
    """A converged block solve: its k Ritz values match the reference to
    EIG_RTOL, none lies below its reference beyond round-off, and lambda_1
    lies above 2 pi^2 and within LAMBDA1_SHARE of it.

    Returns one (check name, failure message or None) pair per check.
    """
    out = [("status", None if status == "converged"
            else f"status {status!r}, expected 'converged'")]
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if values.shape != reference.shape:
        return out + [("count", f"{values.size} eigenvalues, expected {reference.size}")]
    for i, (lam, ref) in enumerate(zip(values, reference)):
        out.append((f"match[{i + 1}]", None if abs(lam - ref) <= EIG_RTOL * ref else
                    f"lambda_{i + 1} = {lam!r} differs from {ref!r} by more "
                    f"than {EIG_RTOL:g} relative"))
        out.append((f"minimax[{i + 1}]", None if lam >= ref * (1.0 - MINIMAX_RTOL) else
                    f"Ritz value lambda_{i + 1} = {lam!r} lies below the "
                    f"reference {ref!r}"))
    lam1 = float(values[0])
    inside = LAMBDA1_CONTINUOUS < lam1 <= LAMBDA1_CONTINUOUS * (1.0 + LAMBDA1_SHARE)
    out.append(("lambda1", None if inside else
                f"lambda_1 = {lam1!r} is not in (2 pi^2, (1 + {LAMBDA1_SHARE:g}) 2 pi^2]"))
    return out


def check_verify_result(passed: bool, suite_checks: dict, oracle_values: dict,
                        oracle_reference: dict) -> list[tuple[str, str | None]]:
    """A verify report that passes, with checks from each of the four suites,
    and subeig's dense oracle matching LAPACK on the 1D suite pencils.

    Returns one (check name, failure message or None) pair per check.
    """
    out = [("passed", None if passed else "verify report does not pass")]
    for suite in VERIFY_SUITES:
        out.append((f"suite[{suite}]", None if suite_checks.get(suite, 0) >= 1
                    else f"suite {suite!r} added no checks"))
    for n, ref in oracle_reference.items():
        vals = np.asarray(oracle_values.get(n, []), dtype=float)
        ref = np.asarray(ref, dtype=float)
        if vals.shape != ref.shape:
            out.append((f"oracle[{n}]", f"n = {n}: {vals.size} oracle eigenvalues, "
                        f"expected {ref.size}"))
            continue
        err = float(np.max(np.abs(vals - ref) / ref))
        out.append((f"oracle[{n}]", None if err <= ORACLE_RTOL else
                    f"n = {n}: exact_eigenset differs from LAPACK eigh by "
                    f"{err:.3e} relative"))
    return out
