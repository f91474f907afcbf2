"""``errors.check_axis`` at every sorted axis that goes through it."""

import math

import numpy as np
import pytest

from wptdas.channel import FrequencyGrid, TapProfile
from wptdas.errors import ValidationError
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
