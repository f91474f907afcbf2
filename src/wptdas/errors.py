"""Exceptions shared across the simulator, and the finite-number check."""

import math
import numbers


class ValidationError(ValueError):
    """Raised when an input object or data file violates its contract."""


class FeedbackCapacityError(ValidationError):
    """Raised when a candidate set does not fit in the feedback code space."""


class FeedbackDecodeError(ValidationError):
    """Raised when a feedback code is outside the valid range."""


def check_finite(obj, *fields: str):
    """Raise :class:`ValidationError` naming the first of ``fields`` of ``obj``
    that is not a finite real number, or a tuple of them."""
    for name in fields:
        value = getattr(obj, name)
        for x in value if isinstance(value, tuple) else (value,):
            if isinstance(x, bool) or not isinstance(x, numbers.Real) or not math.isfinite(x):
                raise ValidationError(f"{name} must be finite numbers, got {value!r}")
