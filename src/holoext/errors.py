"""Exception types shared across the package."""


class DomainError(ValueError):
    """A point lies outside the set on which a function is defined."""


class DimensionMismatchError(ValueError):
    """Point length does not match the ambient dimension."""


class DegenerateDomainError(RuntimeError):
    """Monte Carlo rejection rate too high to produce an estimate."""


class InfeasibleConstraintError(ValueError):
    """Interpolation data cannot be represented in the truncated basis."""

    def __init__(self, message, needed_degree=None):
        super().__init__(message)
        self.needed_degree = needed_degree


class GramConditioningError(RuntimeError):
    """A sampled Gram matrix failed the positive-definiteness check."""


class ConfigError(ValueError):
    """Malformed scenario configuration."""
