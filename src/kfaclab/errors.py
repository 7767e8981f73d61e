"""Exception types shared across the package, and the integer, number,
name, array and key checks that layer sizes, output models and configs
share."""

import math
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


class ConfigError(KfacLabError, ValueError):
    """A config, or a train --out path, that a command cannot use."""


def check_int(what: str, value, least: int) -> None:
    """Raise ValueError unless value is an integer (bools excluded) >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")


def check_real(what: str, value, least: float = -math.inf) -> None:
    """Raise ValueError unless value is a finite real number (bools
    excluded) >= least."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not (math.isfinite(value) and value >= least)
    ):
        bound = "" if least == -math.inf else f" >= {least}"
        raise ValueError(f"{what} must be a finite number{bound}, got {value!r}")


def check_name(what: str, value, known) -> None:
    """Raise ValueError unless value is a string that names one of known."""
    if not isinstance(value, str) or value not in known:
        raise ValueError(f"unknown {what} {value!r}")


def check_list(what: str, value) -> None:
    """Raise ValueError unless value is a list (a JSON array)."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array, got {value!r}")


def check_numbers(what: str, value, ndim: int) -> None:
    """Raise ValueError unless value is a JSON array of numbers (bools
    excluded) nested ndim deep, its rows all of one length: a vector for
    ndim 1, a matrix for ndim 2."""

    def numbers_in(v, depth):
        if depth == 0:
            return isinstance(v, numbers.Real) and not isinstance(v, bool)
        return isinstance(v, list) and all(numbers_in(x, depth - 1) for x in v)

    if not numbers_in(value, ndim) or (ndim == 2 and len({len(row) for row in value}) > 1):
        shape = "list of numbers" if ndim == 1 else "list of equal-length lists of numbers"
        raise ValueError(f"{what} must be a {shape}, got {value!r}")


def check_keys(what: str, d: dict, known, required=()) -> None:
    """Raise ValueError unless d is a dict (a JSON object) whose keys are
    all in known (any key when known is None) and include every key in
    required, naming every key that is unknown or missing."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {d!r}")
    if known is not None and set(d) - set(known):
        raise ValueError(f"unknown {what} fields: {sorted(set(d) - set(known))}")
    missing = [k for k in required if k not in d]
    if missing:
        raise ValueError(f"missing {what} fields: {missing}")
