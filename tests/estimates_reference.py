"""Independent reference for the paper's estimates: the single-pair and
block projection bounds, the block and single-vector contraction rates and
the ideal-space rate factor, each written out in full with its own gap,
zero-gap check and factors theta = sqrt(1 + mu eta^2 / delta^2) and
eta_{K,i} = (1 + mu / delta) eta, as the library held them before they
shared one per-pair kernel."""

from __future__ import annotations

import math

import numpy as np

from subeig.core import norm
from subeig.exceptions import DegenerateGapError
from subeig.projection import (
    BoundReport,
    EtaOracle,
    _a_orthonormal,
    gap_delta,
    gap_delta_block,
    spectral_projection,
)


def _closest_mu_index(mu_values, mu):
    d = np.abs(mu_values - mu)
    i = int(np.argmin(d))
    return i, bool(np.sum(np.isclose(d, d[i], rtol=1e-12, atol=0.0)) > 1)


def energy_bound_single(A, M, K, lam, u, ritzset, i=None, eta=None):
    mu = 1.0 / lam
    tie = False
    if i is None:
        i, tie = _closest_mu_index(ritzset.mu_values, mu)
    delta = gap_delta(ritzset.mu_values, mu, exclude=(i,))
    if delta == 0.0:
        raise DegenerateGapError("coincident reciprocal Ritz values make the bound vacuous")
    if eta is None:
        eta = EtaOracle(A, M).eta(K)
    mu_1 = float(ritzset.mu_values[0])
    theta = math.sqrt(1.0 + mu_1 * eta * eta / (delta * delta))
    eta_ki = (1.0 + mu_1 / delta) * eta
    err = u - spectral_projection(ritzset, A, u, [i])
    lhs_energy = norm(err, A)
    V = _a_orthonormal(A, K)
    rhs_energy = theta * norm(u - V @ (V.T @ A.matvec(u)), A)
    return BoundReport(eta_K=eta, delta=delta, theta=theta, eta_Ki=eta_ki,
                       lhs_energy=lhs_energy, rhs_energy=rhs_energy,
                       lhs_l2=norm(err, M), rhs_l2=eta_ki * lhs_energy,
                       index=i, tie=tie)


def energy_bound_block(A, M, K, exact, ritzset, k, eta=None):
    if ritzset.m <= k:
        raise DegenerateGapError(f"block bounds need m > k, got m={ritzset.m}, k={k}")
    if eta is None:
        eta = EtaOracle(A, M).eta(K)
    mu_k1 = float(ritzset.mu_values[k])
    V = _a_orthonormal(A, K)
    reports = []
    for i in range(k):
        u_i = exact.vectors[:, i]
        delta = gap_delta_block(ritzset.mu_values, 1.0 / float(exact.values[i]), k)
        if delta == 0.0:
            raise DegenerateGapError("coincident reciprocal Ritz values make the bound vacuous")
        theta = math.sqrt(1.0 + mu_k1 * eta * eta / (delta * delta))
        eta_kki = (1.0 + mu_k1 / delta) * eta
        err = u_i - spectral_projection(ritzset, A, u_i, range(k))
        lhs_energy = norm(err, A)
        rhs_energy = theta * norm(u_i - V @ (V.T @ A.matvec(u_i)), A)
        reports.append(BoundReport(
            eta_K=eta, delta=delta, theta=theta, eta_Ki=eta_kki,
            lhs_energy=lhs_energy, rhs_energy=rhs_energy,
            lhs_l2=norm(err, M), rhs_l2=eta_kki * lhs_energy, index=i))
    return reports


def theoretical_rate_block(exact_values, rs, k, eta):
    if rs.m <= k:
        raise DegenerateGapError("need more than k Ritz values for the block rate")
    delta = gap_delta_block(rs.mu_values, 1.0 / float(exact_values[k - 1]), k)
    if delta == 0.0:
        raise DegenerateGapError("zero reciprocal gap in block rate")
    mu_k1 = float(rs.mu_values[k])
    theta = math.sqrt(1.0 + mu_k1 * eta * eta / (delta * delta))
    eta_kkk = (1.0 + mu_k1 / delta) * eta
    return (theta
            * math.sqrt(float(exact_values[k - 1]) / float(exact_values[k]))
            * math.sqrt(float(rs.values[k - 1]))
            * eta_kkk)


def theoretical_rate_single(lam_exact, lam1_exact, rs, sel, eta):
    delta = gap_delta(rs.mu_values, 1.0 / lam_exact, exclude=(sel,))
    if delta == 0.0:
        raise DegenerateGapError("zero reciprocal gap in single rate")
    mu_1 = float(rs.mu_values[0])
    theta = math.sqrt(1.0 + mu_1 * eta * eta / (delta * delta))
    eta_ki = (1.0 + mu_1 / delta) * eta
    return theta * math.sqrt(lam_exact * float(rs.values[sel]) / lam1_exact) * eta_ki


def ideal_rate_factor(exact_values, lam_k_new, mu_values_new, k, n_c):
    """sqrt(1 + 1/(lam_{k+1} lam_{nc+1} delta^2)) * sqrt(lam_k/lam_{k+1})
    * (1 + 1/(lam_{k+1} delta)) * sqrt(lam_k_new/lam_{nc+1}); a zero gap
    raises DegenerateGapError here, where the library once raised
    ConvergenceError."""
    lam_k = float(exact_values[k - 1])
    lam_k1 = float(exact_values[k])
    lam_nc1 = float(exact_values[n_c])
    delta = float(np.min(np.abs(mu_values_new[k:] - 1.0 / lam_k)))
    if delta == 0.0:
        raise DegenerateGapError("zero reciprocal gap in ideal AMG rate")
    return (math.sqrt(1.0 + 1.0 / (lam_k1 * lam_nc1 * delta * delta))
            * math.sqrt(lam_k / lam_k1)
            * (1.0 + 1.0 / (lam_k1 * delta))
            * math.sqrt(lam_k_new / lam_nc1))
