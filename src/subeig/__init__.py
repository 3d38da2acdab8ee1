"""Sparse symmetric eigensolvers by subspace projection: Rayleigh-Ritz
with computable energy-norm error bounds, inverse power iteration on an
enriched subspace, and geometric/algebraic multigrid coarse-space backends."""

from .core import (
    Basis,
    SparseSymMatrix,
    cg_solve,
    inner,
    norm,
    orthonormalize,
)
from .exceptions import (
    ConfigError,
    ConvergenceError,
    DegenerateGapError,
    DimensionMismatchError,
    EmptyBasisError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    SubeigError,
)
from .inverse_power import (
    IpmConfig,
    IterationRecord,
    IterationReport,
    energy_error,
    ipm_block_step,
    ipm_run,
    seeded_start,
    theoretical_rate_block,
    theoretical_rate_single,
)
from .projection import (
    BoundReport,
    EtaOracle,
    ExactEigenSet,
    RitzSet,
    energy_bound_block,
    energy_bound_single,
    exact_eigenset,
    gap_delta,
    gap_delta_block,
    rayleigh_quotient,
    ritz,
    spectral_projection,
    strang_residual,
)

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "BoundReport",
    "ConfigError",
    "ConvergenceError",
    "DegenerateGapError",
    "DimensionMismatchError",
    "EmptyBasisError",
    "EtaOracle",
    "ExactEigenSet",
    "IpmConfig",
    "IterationRecord",
    "IterationReport",
    "NotPositiveDefiniteError",
    "NotSymmetricError",
    "RitzSet",
    "SparseSymMatrix",
    "SubeigError",
    "cg_solve",
    "energy_bound_block",
    "energy_bound_single",
    "energy_error",
    "exact_eigenset",
    "gap_delta",
    "gap_delta_block",
    "inner",
    "ipm_block_step",
    "ipm_run",
    "norm",
    "orthonormalize",
    "rayleigh_quotient",
    "ritz",
    "seeded_start",
    "spectral_projection",
    "strang_residual",
    "theoretical_rate_block",
    "theoretical_rate_single",
]
