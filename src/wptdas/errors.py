"""Exceptions shared across the simulator, the number checks, and the one reader
of its data files (rows of numbers, ``#`` comments, errors that name ``path:line``)."""

import numbers
import sys

import numpy as np


class ValidationError(ValueError):
    """Raised when an input object or data file violates its contract."""


class FeedbackCapacityError(ValidationError):
    """Raised when a candidate set does not fit in the feedback code space."""


class FeedbackDecodeError(ValidationError):
    """Raised when a feedback code is outside the valid range."""


def check_finite(obj, *fields: str, low: float | None = None):
    """Raise :class:`ValidationError` naming the first of ``fields`` of ``obj``
    (attributes, or keys of a dict) that is not a real number within the float
    range, or a tuple of them, or that is below ``low`` if given."""
    for name in fields:
        value = obj[name] if isinstance(obj, dict) else getattr(obj, name)
        for x in value if isinstance(value, tuple) else (value,):
            if (isinstance(x, bool) or not isinstance(x, numbers.Real)
                    or not abs(x) <= sys.float_info.max):  # nan, inf or a huge int
                raise ValidationError(f"{name} must be finite numbers, got {value!r}")
            if low is not None and x < low:
                raise ValidationError(f"{name} must be >= {low:g}")


def check_integer(name: str, value, low: int | None = None) -> int:
    """``value`` as an int; raise :class:`ValidationError` naming ``name`` unless
    it is an integer (a bool is not) of at least ``low``, if given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValidationError(f"{name} must be >= {low}")
    return int(value)


def check_axis(name: str, values) -> np.ndarray:
    """``values`` as a float array; raise :class:`ValidationError` naming ``name``
    unless it is non-empty, 1-D, finite and strictly increasing."""
    axis = np.asarray(values, dtype=float)
    if not (axis.ndim == 1 and axis.size > 0 and np.all(np.isfinite(axis))
            and np.all(axis[1:] > axis[:-1])):
        raise ValidationError(f"{name} must be non-empty, 1-D, finite and strictly increasing")
    return axis


def read_rows(path):
    """Yield (line number, numbers) for each line of the data file at ``path``
    that holds any once ``#`` comments are stripped; a token that is not a
    number fails naming ``path:line``."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                row = [float(tok) for tok in raw.split("#", 1)[0].split()]
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from exc
            if row:
                yield lineno, row
