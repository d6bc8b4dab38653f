"""Exception types and the integer check shared across the package."""

from numbers import Integral


class SparseAnnError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SparseAnnError):
    """Invalid configuration (bad shape, unknown keys, inconsistent options)."""


class DataError(SparseAnnError):
    """Invalid or degenerate input data (parse failures, constant response, ...)."""


class NumericalError(SparseAnnError):
    """Numerical failure during optimization (divergence, non-finite values)."""


class DegenerateParameterError(SparseAnnError):
    """A normalized weight row has (numerically) zero norm."""


def check_int(value, name: str, low: int = 0, error=ValueError):
    """Raise ``error`` unless ``value`` is an integer (not a bool) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise error(f"{name} must be an integer >= {low}, got {value!r}")
