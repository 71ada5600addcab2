"""Exception types shared across the package."""

from typing import Optional


class OtfsimError(Exception):
    """Base class for all package errors. An error the CLI reports carries its
    exit code and the label of its stderr line; one without is a bug."""

    exit_code: Optional[int] = None
    label = ""


class DimensionError(OtfsimError):
    """Operands are not conformable or a vector has the wrong length."""


class SizeCapError(OtfsimError):
    """A dense result would exceed the configured entry-count cap."""

    exit_code, label = 4, "size cap exceeded"


class StructureError(OtfsimError):
    """A measured deviation exceeds its tolerance, for example a matrix that
    must be block diagonal is not. Carries both in ``deviation`` and
    ``tolerance``."""

    exit_code, label = 3, "structural invariant violated"

    def __init__(self, message: str, deviation: float, tolerance: float):
        super().__init__(message)
        self.deviation = deviation
        self.tolerance = tolerance


class NonFiniteError(OtfsimError, ValueError):
    """An input or an intermediate result holds a NaN or an infinity, or is a
    log-det that double precision cannot resolve. Nothing finite was
    measured, so ``deviation`` and ``tolerance`` are NaN.

    Also a :class:`ValueError`, since a non-finite argument is a bad value.
    """

    exit_code, label = 3, "numerical failure"
    deviation = tolerance = float("nan")


class ConfigError(OtfsimError):
    """Invalid or inconsistent experiment configuration."""

    exit_code, label = 2, "config error"
