"""Exception types shared across the package."""


class OtfsimError(Exception):
    """Base class for all package errors."""


class DimensionError(OtfsimError):
    """Operands are not conformable or a vector has the wrong length."""


class SizeCapError(OtfsimError):
    """A dense result would exceed the configured entry-count cap."""


class StructureError(OtfsimError):
    """A matrix that must be block diagonal (or circulant) is not.

    Carries the measured worst-case deviation in ``deviation``.
    """

    def __init__(self, message: str, deviation: float = float("nan")):
        super().__init__(message)
        self.deviation = deviation


class NonFiniteError(OtfsimError, ValueError):
    """An input or an intermediate result holds a NaN or an infinity.

    Also a :class:`ValueError`, since a non-finite argument is a bad value.
    """


class ConfigError(OtfsimError):
    """Invalid or inconsistent experiment configuration."""
