"""End-to-end steady-state signal chain: channel response to dc power.

Single shared implementation of the per-candidate power computation so the
idealized sweep pipeline and the frame protocol operate on bit-identical
numbers for the same realization.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .channel import ChannelRealization, FrequencyGrid, LinkBudget, response_matrix
from .errors import ValidationError
from .rectenna import EfficiencyCurve


def dc_power_matrix(ch: ChannelRealization, grid: FrequencyGrid, budget: LinkBudget,
                    curve: EfficiencyCurve,
                    extra_loss_db: float | Sequence[float] = 0.0) -> np.ndarray:
    """(..., antennas, frequencies) steady-state dc output power in watts.

    A stacked ``ch`` gives one matrix per realization of the stack, each
    bit-identical to the matrix of that realization alone. ``extra_loss_db``
    is one loss for every matrix, or a sequence of one loss per user for a
    stack whose gains are (..., users, antennas, taps).
    """
    amp2 = np.abs(response_matrix(ch, grid.frequencies_hz)) ** 2
    per_user = np.ndim(extra_loss_db) > 0
    if per_user and (amp2.ndim < 3 or len(extra_loss_db) != amp2.shape[-3]):
        raise ValidationError("extra_loss_db needs one loss per user of the stack")
    # each user's scale in Python floats, as a lone call forms it
    scale = np.array([budget.scale(float(x)) for x in np.atleast_1d(extra_loss_db)])
    p_rf = (scale[:, None, None] if per_user else scale[0]) * amp2
    return p_rf * curve.efficiency(p_rf, grid.frequencies_hz)
