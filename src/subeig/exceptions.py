"""Exception types raised by the solver components."""


class SubeigError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(SubeigError, ValueError):
    """Operands have incompatible dimensions."""


class NotSymmetricError(SubeigError, ValueError):
    """A matrix violates the symmetry tolerance."""


class NotPositiveDefiniteError(SubeigError, ValueError):
    """A factorization or inner product exposed an indefinite operator."""


class ConvergenceError(SubeigError, RuntimeError):
    """An iterative solver failed to reach its tolerance."""


class EmptyBasisError(SubeigError, ValueError):
    """Orthonormalization dropped every column."""


class DegenerateGapError(SubeigError, ValueError):
    """A reciprocal-eigenvalue gap collapsed to zero, making a bound vacuous."""


class ConfigError(SubeigError, ValueError):
    """Inconsistent run configuration."""
