"""``errors.check_axis`` at every sorted axis that goes through it, and
``errors.check_finite`` on a number beyond the float range."""

import math

import numpy as np
import pytest

from wptdas.channel import FrequencyGrid, LinkBudget, TapProfile
from wptdas.errors import ValidationError
from wptdas.experiments import ReceiverConsumption
from wptdas.protocol import FrameSchedule
from wptdas.rectenna import EfficiencyCurve


def tap_profile(delays):
    n = max(np.size(delays), 1)
    return TapProfile("x", delays, np.full(np.shape(delays), 1.0 / n))


def power_axis(powers):
    return EfficiencyCurve.from_table(powers, [2.4e9], np.full((np.size(powers), 1), 0.25))


def freq_axis(freqs):
    return EfficiencyCurve.from_table([-20.0], freqs, np.full((1, np.size(freqs)), 0.25))


# (builder, the axis it names, two increasing entries of that axis)
SITES = [
    (tap_profile, "delays_s", (0.0, 50e-9)),
    (lambda freqs: FrequencyGrid("x", freqs), "frequencies_hz", (2.4e9, 2.5e9)),
    (power_axis, "power_axis_dbm", (-20.0, -10.0)),
    (freq_axis, "freq_axis_hz", (2.4e9, 2.5e9)),
]
BAD = {
    "empty": lambda a, b: [],
    "2-D": lambda a, b: [[a, b]],
    "nan": lambda a, b: [a, math.nan],
    "inf": lambda a, b: [a, math.inf],
    "unsorted": lambda a, b: [b, a],
    "repeated": lambda a, b: [a, b, b],
}


@pytest.mark.parametrize("bad", list(BAD.values()), ids=list(BAD))
@pytest.mark.parametrize("build, name, entries", SITES, ids=[name for _, name, _ in SITES])
def test_every_sorted_axis_rejects_a_bad_list_by_name(build, name, entries, bad):
    build(list(entries))  # the two entries alone build
    with pytest.raises(ValidationError, match=name):
        build(bad(*entries))


# (builder of one field, the field); soc_power_w is also checked against a low bound
FINITE_SITES = [
    (lambda x: FrequencyGrid.uniform(center_hz=x), "center_hz"),
    (lambda x: LinkBudget(path_loss_db=x), "path_loss_db"),
    (lambda x: FrameSchedule(slot_s=x), "slot_s"),
    (lambda x: ReceiverConsumption(soc_power_w=x), "soc_power_w"),
]


@pytest.mark.parametrize("build, name", FINITE_SITES, ids=[name for _, name in FINITE_SITES])
@pytest.mark.parametrize("huge", [10 ** 400, -10 ** 400], ids=["10**400", "-10**400"])
def test_an_int_beyond_the_float_range_is_rejected_by_name(build, name, huge):
    # math.isfinite once raised a bare OverflowError on such an int, and
    # 10 ** 400 < math.inf holds, so a bounds check alone would accept it
    with pytest.raises(ValidationError, match=name):
        build(huge)
