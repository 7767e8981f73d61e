"""Exception types shared across the package, and the integer check that
layer sizes, output models and configs share."""

import numbers


class KfacLabError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrix(KfacLabError):
    """A solve or inverse hit a pivot below the singularity threshold."""


class NonFinite(KfacLabError, ValueError):
    """A solve received inf or NaN entries."""


class NotSymmetric(KfacLabError):
    """A symmetric-only operation received a matrix with too much asymmetry."""


class ShapeMismatch(KfacLabError):
    """Inputs whose dimensions do not chain or match the declared layer sizes."""


class TooLarge(KfacLabError):
    """A dense construction was requested above the supported size cap."""


def check_int(what: str, value, least: int) -> None:
    """Raise ValueError unless value is an integer (bools excluded) >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")
