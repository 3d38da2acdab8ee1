"""Independent reference for the aggregation setup: the per-aggregate loop
that builds the tentative prolongation, and the plain-aggregation
(tentative) Galerkin chain whose strength graphs and aggregates the
smoothed-aggregation hierarchy must reproduce level by level."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
import scipy.sparse as sp

from subeig import amg
from subeig.core import SparseSymMatrix
from subeig.exceptions import ConfigError


def tentative_prolongation(aggs: amg.AggregateSet,
                           near_null: Optional[np.ndarray] = None) -> sp.csr_matrix:
    """One normalized column per aggregate, built with one boolean mask over
    all unknowns per aggregate."""
    n = aggs.assignment.size
    vec = np.ones(n) if near_null is None else np.asarray(near_null, dtype=float)
    if vec.shape[0] != n:
        raise ConfigError("near-null vector length mismatch")
    vals = np.empty(n)
    for agg in range(aggs.n_c):
        mask = aggs.assignment == agg
        nv = math.sqrt(float(vec[mask] @ vec[mask]))
        if nv == 0.0:
            raise ConfigError(f"near-null vector vanishes on aggregate {agg}")
        vals[mask] = vec[mask] / nv
    return sp.csr_matrix(
        (vals, (np.arange(n), aggs.assignment)), shape=(n, aggs.n_c)
    )


def tentative_chain(A: SparseSymMatrix, params: Optional[amg.AmgParams] = None
                    ) -> list[tuple[amg.AggregateSet, sp.csr_matrix]]:
    """(aggregates, tentative prolongation) of every coarsened level of the
    plain-aggregation hierarchy A <- P^T A P, with the same stop rules as
    amg.amg_setup and the near-null vector restricted by each P."""
    params = params or amg.AmgParams()
    near_null = params.near_null
    out = []
    while A.n > params.coarsest_size and len(out) + 1 < params.max_levels:
        aggs = amg.aggregate(amg.strength_graph(A, params.strength_threshold))
        if aggs.n_c >= A.n:
            break
        P = tentative_prolongation(aggs, near_null)
        out.append((aggs, P))
        A = SparseSymMatrix.from_csr((P.T @ A.csr @ P).tocsr())
        if near_null is not None:
            near_null = P.T @ near_null
    return out
