"""Antenna/frequency selection over a matrix of candidate dc powers.

The transmitter activates one (antenna, frequency) pair at a time, so
exploiting spatial and frequency diversity reduces to an argmax over the
candidate matrix. :func:`select_pairs` applies one of four strategies to a
stack of matrices: joint selection over the whole matrix, frequency-only
(antenna 1 fixed), antenna-only (middle frequency fixed) and no selection
(both fixed). Ties break to the lowest antenna, then the lowest frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

STRATEGIES = ("none", "frequency_only", "antenna_only", "joint")


def middle_index(count: int) -> int:
    """The middle of ``count`` frequencies, 1-based."""
    return (count + 1) // 2


def default_pair(n_total: int) -> tuple[int, int]:
    """0-based (antenna 1, middle frequency) of an ``n_total``-frequency matrix: the
    pair the baselines hold fixed, and the protocol's fallback with no earlier pair."""
    return 0, middle_index(n_total) - 1


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


def select_pairs(values: np.ndarray, strategy: str) -> tuple[np.ndarray, np.ndarray]:
    """Apply ``strategy`` over the trailing (M, N) axes of checked powers.

    Returns 0-based antenna and frequency index arrays with the shape of the
    leading axes; the baselines fix :func:`default_pair`'s antenna, frequency
    or both. Ties go to the first index: joint scans the flattened M x N
    axes row-major, so the lowest antenna wins, then the lowest frequency.
    ``values`` must already have passed :func:`check_powers`.
    """
    *batch, m_total, n_total = values.shape
    fixed_a, fixed_f = default_pair(n_total)
    if strategy == "joint":
        flat = values.reshape(*batch, m_total * n_total).argmax(axis=-1)
        return np.divmod(flat, n_total)
    if strategy == "frequency_only":
        f = values[..., fixed_a, :].argmax(axis=-1)
        return np.full_like(f, fixed_a), f
    if strategy == "antenna_only":
        a = values[..., fixed_f].argmax(axis=-1)
        return a, np.full_like(a, fixed_f)
    if strategy == "none":
        return np.full(batch, fixed_a, dtype=np.intp), np.full(batch, fixed_f, dtype=np.intp)
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
    """Joint selection's 1-based (antenna, frequency) pair and its candidate value."""

    antenna: int
    frequency: int
    value: float
