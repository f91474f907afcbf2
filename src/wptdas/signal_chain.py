"""End-to-end steady-state signal chain: channel response to dc power.

Single shared implementation of the per-candidate power computation so the
idealized sweep pipeline and the frame protocol operate on bit-identical
numbers for the same realization.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelRealization, FrequencyGrid, LinkBudget, response_matrix
from .rectenna import EfficiencyCurve


def dc_power_matrix(ch: ChannelRealization, grid: FrequencyGrid, budget: LinkBudget,
                    curve: EfficiencyCurve, extra_loss_db: float = 0.0) -> np.ndarray:
    """(..., antennas, frequencies) steady-state dc output power in watts.

    A stacked ``ch`` gives one matrix per realization of the stack, each
    bit-identical to the matrix of that realization alone.
    """
    amp2 = np.abs(response_matrix(ch, grid.frequencies_hz)) ** 2
    p_rf = budget.tx_power_w * 10.0 ** (-(budget.net_loss_db + extra_loss_db) / 10.0) * amp2
    freqs = np.broadcast_to(grid.frequencies_hz, p_rf.shape)
    return p_rf * curve.efficiency(p_rf, freqs)
