"""Exception types shared across the package, the one rule per kind of
setting that every constructor calls: `require_int`, `require_real` and `require_bool`,
and `require_finite_pixels` for images on their way to a score or a file.

All of these derive from ValueError (except StateError) so callers that
just want "reject bad input" can catch one base class, while the CLI can
map each to a specific exit code.
"""

import math
import numbers

import numpy as np


class ShapeError(ValueError):
    """An array has the wrong rank or an axis with an unusable extent."""


class ConfigError(ValueError):
    """A configuration value is out of its documented range."""


class DomainError(ValueError):
    """A runtime value is outside the mathematical domain of an operation."""


class ParseError(ValueError):
    """A file or byte stream is malformed.

    ``offset`` is the byte offset where parsing failed; for line-based
    formats, the start of the offending line or the undecodable or NUL byte.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class StateError(RuntimeError):
    """An operation was called in an order its contract forbids.

    ``index`` is the position of the offending item in its list (say, the
    parameter whose gradient is missing or non-finite), or None when the
    call concerns no list (a second ``Tensor.backward`` through a walked graph).
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


def require_int(name: str, *values, minimum: int | None = None) -> None:
    """Raise a ConfigError naming ``name`` unless each value is an int (not a bool) and >= any ``minimum``."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise ConfigError(f"{name} must be >= {minimum}, got {value}")


def require_real(name: str, value, high: float = math.inf) -> None:
    """Raise a ConfigError naming ``name`` unless ``value`` is a finite real (not a bool) in [0, high]."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0 <= value <= high or value == math.inf):
        bound = "" if high == math.inf else f" and <= {high:g}"
        raise ConfigError(f"{name} must be finite and >= 0{bound}, got {value!r}")


def require_finite_pixels(what: str, image: np.ndarray, given: np.ndarray | None = None) -> None:
    """Raise a DomainError naming ``what`` and the position of its first NaN
    or infinite pixel. Where ``image`` is a cast of ``given`` and that pixel
    was finite there, name its given value and the dtype it is not finite in."""
    if not np.isfinite(image).all():
        where = tuple(int(j) for j in np.argwhere(~np.isfinite(image))[0])
        if given is not None and np.isfinite(given[where]):
            raise DomainError(f"{what} pixel {where} holds {float(given[where])!r}, "
                              f"which is not finite in {image.dtype}")
        raise DomainError(f"{what} has a non-finite pixel {image[where]} at {where}")


def require_bool(name: str, value) -> None:
    """Raise a ConfigError naming ``name`` unless ``value`` is a Python or numpy bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{name} must be a bool, got {value!r}")
