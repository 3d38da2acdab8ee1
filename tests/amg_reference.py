"""Independent reference for the aggregation setup: the per-aggregate loop
that builds the tentative prolongation, and the plain-aggregation
(tentative) Galerkin chain whose strength graphs and aggregates the
smoothed-aggregation hierarchy must reproduce level by level."""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from subeig import amg
from subeig.core import SparseSymMatrix


def tentative_prolongation(aggs: amg.AggregateSet) -> sp.csr_matrix:
    """One normalized constant column per aggregate, built with one boolean
    mask over all unknowns per aggregate."""
    n = aggs.assignment.size
    vals = np.empty(n)
    for agg in range(aggs.n_c):
        mask = aggs.assignment == agg
        vals[mask] = 1.0 / math.sqrt(float(np.count_nonzero(mask)))
    return sp.csr_matrix(
        (vals, (np.arange(n), aggs.assignment)), shape=(n, aggs.n_c)
    )


def tentative_chain(A: SparseSymMatrix) -> list[tuple[amg.AggregateSet, sp.csr_matrix]]:
    """(aggregates, tentative prolongation) of every coarsened level of the
    plain-aggregation hierarchy A <- P^T A P, with the same stop rules as
    amg.amg_setup."""
    out = []
    while A.n > amg.COARSEST_SIZE and len(out) + 1 < amg.MAX_LEVELS:
        aggs = amg.aggregate(amg.strength_graph(A))
        if aggs.n_c >= A.n:
            break
        P = tentative_prolongation(aggs)
        out.append((aggs, P))
        A = SparseSymMatrix.from_csr((P.T @ A.csr @ P).tocsr())
    return out
