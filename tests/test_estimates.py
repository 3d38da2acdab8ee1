"""The paper's estimates against their written-out reference
(tests/estimates_reference.py): the projection bounds and the contraction
rates read one per-pair kernel, projection.pair_factors, and must match the
reference bit for bit; the ideal-space rate factor, which now reads the
block rate at eta = lam_{nc+1}^{-1/2}, to round-off.  Every zero gap raises
DegenerateGapError in both."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subeig import amg
from subeig.core import orthonormalize
from subeig.exceptions import DegenerateGapError
from subeig.inverse_power import theoretical_rate_block, theoretical_rate_single
from subeig.projection import (
    EtaOracle,
    RitzSet,
    energy_bound_block,
    energy_bound_single,
    exact_eigenset,
    pair_factors,
    ritz,
)

from . import estimates_reference as ref
from .conftest import make_spd


def _outcome(fn, *args, **kwargs):
    """fn's value, or DegenerateGapError when it raises one."""
    try:
        return fn(*args, **kwargs)
    except DegenerateGapError:
        return DegenerateGapError


@st.composite
def projections(draw):
    """A random pencil (A, M or None), an M-orthonormal K of dimension m,
    its Ritz set, the oracle and eta_K."""
    n = draw(st.integers(6, 14))
    m = draw(st.integers(2, n - 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = make_spd(rng, n)
    M = make_spd(rng, n, lo=0.5, hi=2.0) if draw(st.booleans()) else None
    K = orthonormalize(rng.standard_normal((n, m)), weight=M)
    oracle = EtaOracle(A, M)
    return A, M, K, ritz(A, M, K), oracle.exact, oracle.eta(K)


@settings(max_examples=40, deadline=None)
@given(projections(), st.data())
def test_bounds_match_the_reference_bit_for_bit(instance, data):
    A, M, K, rs, exact, eta = instance
    i = data.draw(st.integers(0, A.n - 1))
    args = (A, M, K, float(exact.values[i]), exact.vectors[:, i], rs)
    assert _outcome(energy_bound_single, *args, eta=eta) == \
        _outcome(ref.energy_bound_single, *args, eta=eta)
    j = data.draw(st.integers(0, rs.m - 1))
    assert _outcome(energy_bound_single, *args, i=j, eta=eta) == \
        _outcome(ref.energy_bound_single, *args, i=j, eta=eta)
    k = data.draw(st.integers(1, rs.m - 1))
    assert _outcome(energy_bound_block, A, M, K, exact, rs, k, eta=eta) == \
        _outcome(ref.energy_bound_block, A, M, K, exact, rs, k, eta=eta)


@st.composite
def spectra(draw, min_size=2):
    """Ascending positive values, with an occasional repeat."""
    values = draw(st.lists(st.floats(0.01, 1e3), min_size=min_size, max_size=10))
    return np.sort(np.array(values))


def _ritz_set(values: np.ndarray) -> RitzSet:
    """A Ritz set of the given values; the rates read no vector."""
    return RitzSet(values=values, vectors=np.empty((0, 0)), m=values.size)


@settings(max_examples=200, deadline=None)
@given(spectra(), spectra(), st.floats(1e-3, 10.0), st.data())
def test_rates_match_the_reference_bit_for_bit(exact_values, ritz_values, eta, data):
    rs = _ritz_set(ritz_values)
    k = data.draw(st.integers(1, min(exact_values.size, rs.m) - 1))
    assert _outcome(theoretical_rate_block, exact_values, rs, k, eta) == \
        _outcome(ref.theoretical_rate_block, exact_values, rs, k, eta)
    sel = data.draw(st.integers(0, rs.m - 1))
    lam = float(data.draw(st.sampled_from(list(exact_values))))
    args = (lam, float(exact_values[0]), rs, sel, eta)
    assert _outcome(theoretical_rate_single, *args) == \
        _outcome(ref.theoretical_rate_single, *args)


# derandomized: the two forms differ by a few roundings, measured at most
# 9.4e-16 relative over 10^5 random draws
@settings(max_examples=200, deadline=None, derandomize=True)
@given(spectra(min_size=3), spectra(), st.floats(0.01, 1e3), st.data())
def test_ideal_rate_factor_matches_the_reference(exact_values, ritz_values, lam_k_new, data):
    k = data.draw(st.integers(1, min(exact_values.size - 1, ritz_values.size - 1)))
    n_c = data.draw(st.integers(k, exact_values.size - 1))
    args = (exact_values, lam_k_new, 1.0 / ritz_values, k, n_c)
    got, want = _outcome(amg.ideal_rate_factor, *args), _outcome(ref.ideal_rate_factor, *args)
    if want is DegenerateGapError:
        assert got is DegenerateGapError
    else:
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)


def test_kernel_factors():
    delta, theta, eta_i = pair_factors([1.0, 0.5, 0.25], 1.0, (0,), 0.5, 0.1)
    assert delta == 0.5
    assert theta == math.sqrt(1.0 + 0.5 * 0.01 / 0.25)
    assert eta_i == (1.0 + 0.5 / 0.5) * 0.1


class TestZeroGap:
    """A reciprocal target that coincides with a value the gap reads makes
    every estimate vacuous: each raises DegenerateGapError, as the
    reference does."""

    def test_kernel(self):
        with pytest.raises(DegenerateGapError, match="zero reciprocal gap"):
            pair_factors([1.0, 0.5, 0.25], 0.5, (0,), 1.0, 0.1)

    def test_bounds(self, rng):
        A = make_spd(rng, 10)
        K = orthonormalize(rng.standard_normal((10, 4)))
        rs = ritz(A, None, K)
        exact = exact_eigenset(A)
        # the single bound against Ritz pair 0 for a pair at Ritz value 2
        lam = float(rs.values[2])
        for fn in (energy_bound_single, ref.energy_bound_single):
            with pytest.raises(DegenerateGapError):
                fn(A, None, K, lam, exact.vectors[:, 0], rs, i=0, eta=0.5)
        # the block bound of k = 2 with lam_1 at Ritz value 3
        coincident = RitzSet(values=np.array([rs.values[3], *exact.values[1:]]),
                             vectors=exact.vectors, m=exact.m)
        for fn in (energy_bound_block, ref.energy_bound_block):
            with pytest.raises(DegenerateGapError):
                fn(A, None, K, coincident, rs, 2, eta=0.5)

    def test_rates(self):
        rs = _ritz_set(np.array([1.0, 2.0, 3.0, 4.0]))
        exact_values = np.array([1.0, 3.0, 5.0, 6.0])
        for fn in (theoretical_rate_block, ref.theoretical_rate_block):
            with pytest.raises(DegenerateGapError):
                fn(exact_values, rs, 2, 0.5)  # lam_2 = 3 is Ritz value 3
        for fn in (theoretical_rate_single, ref.theoretical_rate_single):
            with pytest.raises(DegenerateGapError):
                fn(3.0, 1.0, rs, 0, 0.5)
        for fn in (amg.ideal_rate_factor, ref.ideal_rate_factor):
            with pytest.raises(DegenerateGapError):
                fn(exact_values, 3.0, rs.mu_values, 2, 3)
