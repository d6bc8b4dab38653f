"""Exception types and the seed check shared across the package."""

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


def check_seed(seed, error=ValueError):
    """Raise ``error`` unless ``seed`` is a non-negative integer (not a bool)."""
    if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
        raise error(f"seed must be a non-negative integer, got {seed!r}")
