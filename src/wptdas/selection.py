"""Antenna/frequency selection over a matrix of candidate dc powers.

The transmitter activates one (antenna, frequency) pair at a time, so
exploiting spatial and frequency diversity reduces to an argmax over the
candidate matrix. :func:`select_pairs` applies one of four strategies to a
stack of matrices: joint selection over the whole matrix, frequency-only
(one fixed antenna), antenna-only (one fixed frequency), and no selection
(both fixed). Ties break to the lowest antenna, then the lowest frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

STRATEGIES = ("none", "frequency_only", "antenna_only", "joint")


def middle_index(count: int) -> int:
    """Default fixed frequency for the single-frequency baselines (1-based)."""
    return (count + 1) // 2


def check_powers(values) -> np.ndarray:
    """``values`` as a float array of candidate powers; rejects bad entries.

    The trailing two axes are (antennas, frequencies); leading axes, if any,
    are batch axes. Every entry must be finite and >= 0.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim < 2 or v.size == 0:
        raise ValidationError("candidate matrix must be 2-D and non-empty")
    if not np.all(np.isfinite(v)) or np.any(v < 0):
        raise ValidationError("candidate powers must be finite and >= 0")
    return v


def select_pairs(values: np.ndarray, strategy: str, fixed_antenna: int = 1,
                 fixed_frequency: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Apply ``strategy`` over the trailing (M, N) axes of checked powers.

    Returns 0-based antenna and frequency index arrays with the shape of the
    leading axes. Ties go to the first index: joint scans the flattened M x N
    axes row-major, so the lowest antenna wins, then the lowest frequency.
    ``values`` must already have passed :func:`check_powers`.
    """
    *batch, m_total, n_total = values.shape
    if fixed_frequency is None:
        fixed_frequency = middle_index(n_total)
    if strategy == "joint":
        flat = values.reshape(*batch, m_total * n_total).argmax(axis=-1)
        return np.divmod(flat, n_total)
    if strategy == "frequency_only":
        _check_index("antenna", fixed_antenna, m_total)
        f = values[..., fixed_antenna - 1, :].argmax(axis=-1)
        return np.full_like(f, fixed_antenna - 1), f
    if strategy == "antenna_only":
        _check_index("frequency", fixed_frequency, n_total)
        a = values[..., fixed_frequency - 1].argmax(axis=-1)
        return a, np.full_like(a, fixed_frequency - 1)
    if strategy == "none":
        _check_index("antenna", fixed_antenna, m_total)
        _check_index("frequency", fixed_frequency, n_total)
        return (np.full(batch, fixed_antenna - 1, dtype=np.intp),
                np.full(batch, fixed_frequency - 1, dtype=np.intp))
    raise ValidationError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")


@dataclass(frozen=True)
class CandidateMatrix:
    """One receiver's checked (antennas x frequencies) candidate dc powers in watts."""

    values: np.ndarray

    def __post_init__(self):
        v = check_powers(self.values)
        if v.ndim != 2:
            raise ValidationError("candidate matrix must be 2-D and non-empty")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_powers(cls, values) -> "CandidateMatrix":
        return cls(values)


@dataclass(frozen=True)
class SelectionDecision:
    """Chosen 1-based (antenna, frequency) pair and its candidate value."""

    antenna: int
    frequency: int
    value: float
    strategy: str


def _check_index(axis: str, index: int, count: int):
    if not 1 <= index <= count:
        raise ValidationError(f"{axis} {index} out of range 1..{count}")
