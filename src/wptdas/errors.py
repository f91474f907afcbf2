"""Exceptions shared across the simulator, and the number checks."""

import math
import numbers


class ValidationError(ValueError):
    """Raised when an input object or data file violates its contract."""


class FeedbackCapacityError(ValidationError):
    """Raised when a candidate set does not fit in the feedback code space."""


class FeedbackDecodeError(ValidationError):
    """Raised when a feedback code is outside the valid range."""


def check_finite(obj, *fields: str, low: float | None = None):
    """Raise :class:`ValidationError` naming the first of ``fields`` of ``obj``
    (attributes, or keys of a dict) that is not a finite real number, or a
    tuple of them, or that is below ``low`` if given."""
    for name in fields:
        value = obj[name] if isinstance(obj, dict) else getattr(obj, name)
        for x in value if isinstance(value, tuple) else (value,):
            if isinstance(x, bool) or not isinstance(x, numbers.Real) or not math.isfinite(x):
                raise ValidationError(f"{name} must be finite numbers, got {value!r}")
            if low is not None and x < low:
                raise ValidationError(f"{name} must be >= {low:g}")


def check_integer(name: str, value, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an int; raise :class:`ValidationError` naming ``name`` unless
    it is an integer (a bool is not) within ``low`` and ``high``, if given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValidationError(f"{name} must be >= {low}")
    if high is not None and value > high:
        raise ValidationError(f"{name} must be <= {high}")
    return int(value)

