"""Exception hierarchy shared across the package."""


class HeatcovError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HeatcovError, ValueError):
    """Argument outside the mathematically valid domain."""


class InvalidShapeError(HeatcovError, ValueError):
    """Shape description violates a construction invariant."""


class DimensionMismatchError(HeatcovError, ValueError):
    """Point/vector dimension does not match the shape dimension."""


class NonUnitVectorError(HeatcovError, ValueError):
    """Direction vector is not normalized."""


class QuadratureError(HeatcovError, RuntimeError):
    """Quadrature failed to reach the requested tolerance."""


class ExtrapolationError(HeatcovError, RuntimeError):
    """Limit extrapolation is ill-conditioned."""
