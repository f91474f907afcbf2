import math
import sys

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_oracle import (dc_voltage, output_dc_power, settled_voltage, settling_energy,
                           table_efficiency)
from wptdas.errors import ValidationError
from wptdas.experiments import dbm_to_watts
from wptdas.protocol import run_frame
from wptdas.rectenna import EfficiencyCurve, RectennaConfig, load_efficiency_table

CONST_CURVE = EfficiencyCurve.from_table([-20.0], [2.44e9], [[0.25]])


def shipped_table() -> EfficiencyCurve:
    from importlib import resources
    ref = resources.files("wptdas.data").joinpath("efficiency-table-sample.txt")
    with resources.as_file(ref) as path:
        return load_efficiency_table(path)


class TestCurveChecks:
    def test_rejects_a_table_whose_shape_does_not_match_its_axes(self):
        with pytest.raises(ValidationError, match=r"len\(power_axis\), len\(freq_axis\)"):
            EfficiencyCurve.from_table([-20.0, 0.0], [2.44e9], [[0.1, 0.2]])

    def test_rejects_an_unknown_source(self):
        with pytest.raises(ValidationError, match="unknown curve source 'spline'"):
            EfficiencyCurve("spline")


class TestEfficiency:
    def test_zero_input_zero_efficiency(self):
        assert EfficiencyCurve.parametric().efficiency(0.0, 2.44e9) == 0.0
        assert CONST_CURVE.efficiency(0.0, 2.44e9) == 0.0

    def test_single_cell_clamps_everywhere(self):
        for p_dbm in (-60.0, -20.0, 0.0, 30.0):
            for f in (1e9, 2.44e9, 6e9):
                assert CONST_CURVE.efficiency(dbm_to_watts(p_dbm), f) == 0.25

    def test_bilinear_midpoint_is_corner_mean(self):
        curve = EfficiencyCurve.from_table(
            [-30.0, -10.0], [2.40e9, 2.48e9], [[0.10, 0.20], [0.30, 0.40]])
        got = curve.efficiency(dbm_to_watts(-20.0), 2.44e9)
        assert got == pytest.approx((0.10 + 0.20 + 0.30 + 0.40) / 4.0, rel=1e-12)

    def test_bilinear_matches_manual_oracle(self):
        rng = np.random.default_rng(0)
        paxis = np.array([-30.0, -20.0, -5.0])
        faxis = np.array([2.40e9, 2.45e9])
        table = rng.uniform(0.05, 0.6, size=(3, 2))
        curve = EfficiencyCurve.from_table(paxis, faxis, table)
        for _ in range(200):
            p_dbm = rng.uniform(-30.0, -5.0)
            f = rng.uniform(2.40e9, 2.45e9)
            # oracle: interpolate along power at both frequencies, then along f
            lo = np.searchsorted(paxis, p_dbm, side="right") - 1
            lo = min(max(lo, 0), 1)
            wp = (p_dbm - paxis[lo]) / (paxis[lo + 1] - paxis[lo])
            col = table[lo] * (1 - wp) + table[lo + 1] * wp
            wf = (f - faxis[0]) / (faxis[1] - faxis[0])
            expected = col[0] * (1 - wf) + col[1] * wf
            assert curve.efficiency(dbm_to_watts(p_dbm), f) == pytest.approx(expected, rel=1e-9)

    def test_out_of_grid_clamps_to_edges(self):
        curve = EfficiencyCurve.from_table(
            [-30.0, -10.0], [2.40e9, 2.48e9], [[0.10, 0.20], [0.30, 0.40]])
        assert curve.efficiency(dbm_to_watts(-60.0), 2.0e9) == pytest.approx(0.10)
        assert curve.efficiency(dbm_to_watts(10.0), 3.0e9) == pytest.approx(0.40)

    def test_everywhere_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for curve in (EfficiencyCurve.parametric(), CONST_CURVE):
            p = dbm_to_watts(rng.uniform(-80, 40, size=500))
            eta = curve.efficiency(p, 2.44e9)
            assert np.all((eta >= 0.0) & (eta <= 1.0))

    def test_parametric_anchor_points(self):
        curve = EfficiencyCurve.parametric()
        assert curve.efficiency(dbm_to_watts(-20.0), 2.44e9) == pytest.approx(0.25, rel=1e-12)
        assert curve.efficiency(dbm_to_watts(0.0), 2.44e9) == pytest.approx(0.40, rel=1e-12)

    def test_parametric_flat_in_frequency(self):
        curve = EfficiencyCurve.parametric()
        p = dbm_to_watts(-15.0)
        assert curve.efficiency(p, 2.40e9) == curve.efficiency(p, 2.48e9)

    def test_rejects_negative_power(self):
        with pytest.raises(ValidationError):
            EfficiencyCurve.parametric().efficiency(-1e-6, 2.44e9)

    @pytest.mark.parametrize("curve", [EfficiencyCurve.parametric(),
                                       EfficiencyCurve.from_table([-20.0], [2.44e9], [[0.25]])],
                             ids=["parametric", "table"])
    @pytest.mark.parametrize("p_rf_w", [math.nan, math.inf, [1e-6, math.nan]])
    def test_rejects_power_that_is_not_finite(self, curve, p_rf_w):
        with pytest.raises(ValidationError, match="p_rf_w"):
            curve.efficiency(p_rf_w, 2.44e9)

    @pytest.mark.parametrize("curve", [EfficiencyCurve.parametric(), shipped_table()],
                             ids=["parametric", "shipped-table"])
    @pytest.mark.parametrize("freq_hz", [math.nan, math.inf, -math.inf, "2.4e9", -1.0, 0.0, True,
                                         None, [2.44e9, math.nan], np.array([2.44e9, -1.0])])
    def test_rejects_frequency_that_is_not_finite_and_positive(self, curve, freq_hz):
        with pytest.raises(ValidationError, match="freq_hz"):
            curve.efficiency(1e-3, freq_hz)

    @pytest.mark.parametrize("curve", [EfficiencyCurve.parametric(), shipped_table()],
                             ids=["parametric", "shipped-table"])
    def test_integer_and_array_frequencies_are_read_as_floats(self, curve):
        p = dbm_to_watts(np.array([-20.0, -5.0]))
        assert curve.efficiency(1e-3, 2_440_000_000) == curve.efficiency(1e-3, 2.44e9)
        npt.assert_array_equal(curve.efficiency(p, np.array([2_405_000_000, 2_475_000_000])),
                               curve.efficiency(p, [2.405e9, 2.475e9]))

    @pytest.mark.parametrize("curve", [EfficiencyCurve.parametric(), shipped_table()],
                             ids=["parametric", "shipped-table"])
    @pytest.mark.parametrize("p_rf_w,freq_hz", [
        ([1e-3, 2e-3, 3e-3], [2.405e9, 2.475e9]),
        (1e-3, [2.405e9, 2.475e9]),
        (np.full((2, 3), 1e-3), np.full((2, 1, 3), 2.44e9)),
    ], ids=["3-powers-2-frequencies", "1-power-2-frequencies", "more-axes-than-powers"])
    def test_rejects_frequencies_that_do_not_broadcast_to_the_powers(self, curve, p_rf_w,
                                                                    freq_hz):
        with pytest.raises(ValidationError, match="freq_hz"):
            curve.efficiency(p_rf_w, freq_hz)

    def test_malformed_table_rejected_at_build(self):
        with pytest.raises(ValidationError):
            EfficiencyCurve.from_table([-10.0, -20.0], [2.4e9], [[0.2], [0.3]])
        with pytest.raises(ValidationError):
            EfficiencyCurve.from_table([-20.0], [2.4e9], [[1.5]])

    @pytest.mark.parametrize("power_axis, freq_axis, field", [
        ([-math.inf, -10.0], [2.4e9], "power_axis_dbm"),
        ([-20.0, math.inf], [2.4e9], "power_axis_dbm"),
        ([-20.0, math.nan], [2.4e9], "power_axis_dbm"),
        ([-20.0], [math.nan], "freq_axis_hz"),
        ([-20.0], [2.4e9, math.inf], "freq_axis_hz"),
    ])
    def test_non_finite_axis_entry_rejected(self, power_axis, freq_axis, field):
        # a -inf first power row once passed validation and failed the sweep
        # on its candidate powers; an inf last row gave a flat curve
        table = np.full((len(power_axis), len(freq_axis)), 0.25)
        with pytest.raises(ValidationError, match=field):
            EfficiencyCurve.from_table(power_axis, freq_axis, table)

    def test_axis_spanning_more_than_the_float_range_interpolates(self):
        # its rows' difference once overflowed to inf in the weights
        curve = EfficiencyCurve.from_table([-1e308, 1e308], [2.4e9], [[0.1], [0.5]])
        assert curve.efficiency(np.array([1e-3]), 2.4e9) == pytest.approx([0.3])

    def test_table_file_roundtrip(self, tmp_path):
        f = tmp_path / "eta.txt"
        f.write_text("# demo\n2400 2480\n-20 0.2 0.3\n-10 0.4 0.5\n")
        curve = load_efficiency_table(f)
        npt.assert_allclose(curve.freq_axis_hz, [2.40e9, 2.48e9])
        assert curve.efficiency(dbm_to_watts(-20.0), 2.40e9) == pytest.approx(0.2)

    def test_table_file_bad_width(self, tmp_path):
        f = tmp_path / "eta.txt"
        f.write_text("2400 2480\n-20 0.2\n")
        with pytest.raises(ValidationError):
            load_efficiency_table(f)
        f.write_text("2400 2480\n-20 0.2 0.3\n-10 0.4\n")
        with pytest.raises(ValidationError, match="eta.txt:3: "):
            load_efficiency_table(f)

    def test_packaged_sample_table_loads(self):
        from importlib import resources
        ref = resources.files("wptdas.data").joinpath("efficiency-table-sample.txt")
        with resources.as_file(ref) as path:
            curve = load_efficiency_table(path)
        eta = curve.efficiency(dbm_to_watts(-20.0), 2.44e9)
        assert eta == pytest.approx(0.25, abs=0.01)


@st.composite
def table_lookups(draw):
    """A table curve of 1-4 rows and columns on integer axes, with generic
    efficiencies, and powers and frequencies on its axis points, between
    them or outside both axes; some powers are zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    p_axis = np.sort(rng.choice(np.arange(-40.0, 11.0), rows, replace=False))
    f_axis = np.sort(rng.choice(np.arange(2400, 2501), cols, replace=False)) * 1e6
    curve = EfficiencyCurve.from_table(p_axis, f_axis, rng.uniform(0.0, 1.0, (rows, cols)))
    n = draw(st.integers(1, 5))
    # (power shape, frequency shape): scalars, one frequency for all powers,
    # one per power, one per column of a matrix of powers
    p_shape, f_shape = draw(st.sampled_from([((), ()), ((n,), ()), ((n,), (n,)),
                                             ((n, 3), (3,))]))

    def points(axis, margin, shape):
        return np.where(rng.random(shape) < 0.3, rng.choice(axis, shape),
                        rng.uniform(axis[0] - margin, axis[-1] + margin, shape))

    p = np.where(rng.random(p_shape) < 0.2, 0.0, dbm_to_watts(points(p_axis, 10.0, p_shape)))
    return curve, p, points(f_axis, 50e6, f_shape)


class TestTableLookupOracle:
    @settings(max_examples=200, deadline=None)
    @given(case=table_lookups())
    def test_equals_the_per_entry_lookup_bit_for_bit(self, case):
        curve, p, f = case
        got = np.atleast_1d(curve.efficiency(p, f))
        ref = table_efficiency(curve, p, f)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


@st.composite
def efficiency_calls(draw):
    """A curve of either source, powers of 0 to 3 axes from the noise floor
    past breakdown, with or without zeros, and one frequency for all of them
    or an array that broadcasts to their shape."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    curve = draw(st.sampled_from([EfficiencyCurve.parametric(), shipped_table()]))
    shape = tuple(draw(st.lists(st.integers(1, 4), max_size=3)))
    p = dbm_to_watts(rng.uniform(-60.0, 30.0, shape))
    if draw(st.booleans()):
        p = np.where(rng.random(shape) < 0.3, 0.0, p)
    f_shape = draw(st.sampled_from([None, (), shape[-1:], (1,) * len(shape), shape]))
    f = rng.uniform(2.38e9, 2.50e9, f_shape)  # None: a Python float
    return curve, p, f


class TestMaskFreeEfficiency:
    # The whole power array is evaluated at once, with no live-entry mask, and
    # its zero powers are set to zero afterwards; that must give what one
    # scalar call per entry gives, and exactly zero at every zero power.
    @settings(max_examples=200, deadline=None)
    @given(case=efficiency_calls())
    def test_equals_the_per_entry_calls_bit_for_bit(self, case):
        curve, p, f = case
        got = curve.efficiency(p, f)
        shape = np.broadcast_shapes(np.shape(p), np.shape(f))
        ref = np.array([curve.efficiency(float(x), float(y)) for x, y in
                        zip(np.broadcast_to(p, shape).ravel(), np.broadcast_to(f, shape).ravel())])
        if np.ndim(p) == 0 and np.ndim(f) == 0:
            assert isinstance(got, float)
        else:
            assert got.shape == np.atleast_1d(p).shape
        assert np.asarray(got).tobytes() == ref.tobytes()
        assert np.all(ref[np.broadcast_to(p, shape).ravel() == 0.0] == 0.0)

    @settings(max_examples=100, deadline=None)
    @given(case=efficiency_calls(), bad=st.sampled_from([-1e-6, -0.0 - 1e-300, math.nan,
                                                          math.inf, -math.inf]),
           where=st.integers(0, 63))
    def test_a_bad_power_anywhere_is_rejected(self, case, bad, where):
        curve, p, f = case
        p = np.array(p, dtype=float)
        p.flat[where % p.size] = bad
        with pytest.raises(ValidationError, match="p_rf_w"):
            curve.efficiency(p, f)
        with pytest.raises(ValidationError, match="freq_hz"):
            curve.efficiency(np.abs(np.nan_to_num(p)), np.full(np.shape(f) or (1,), -1.0))


class TestOutputDcPower:
    def test_definition(self):
        assert output_dc_power(10e-6, CONST_CURVE, 2.44e9) == pytest.approx(2.5e-6, rel=1e-12)

    def test_zero(self):
        assert output_dc_power(0.0, EfficiencyCurve.parametric(), 2.44e9) == 0.0

    def test_no_over_unity(self):
        rng = np.random.default_rng(2)
        curve = EfficiencyCurve.parametric()
        p = dbm_to_watts(rng.uniform(-60, 30, size=300))
        assert np.all(output_dc_power(p, curve, 2.44e9) <= p)

    def test_strictly_increasing_below_peak(self):
        curve = EfficiencyCurve.parametric()
        p = dbm_to_watts(np.linspace(-45.0, -0.5, 180))
        pdc = output_dc_power(p, curve, 2.44e9)
        assert np.all(np.diff(pdc) > 0)

    def test_single_interior_maximum(self):
        # sign pattern of finite differences: rises, one sign change, falls
        curve = EfficiencyCurve.parametric()
        p = dbm_to_watts(np.linspace(-40.0, 15.0, 800))
        diff = np.diff(output_dc_power(p, curve, 2.44e9))
        signs = np.sign(diff)
        changes = np.nonzero(np.diff(signs) != 0)[0]
        assert len(changes) == 1
        assert signs[0] > 0 and signs[-1] < 0


class TestDcVoltage:
    def test_reference(self):
        assert dc_voltage(1e-6, 10_000.0) == pytest.approx(0.1, rel=1e-12)

    def test_zero(self):
        assert dc_voltage(0.0, 10_000.0) == 0.0

    def test_square_root_law(self):
        assert dc_voltage(4e-6, 10_000.0) == pytest.approx(2 * dc_voltage(1e-6, 10_000.0))

    def test_validation(self):
        with pytest.raises(ValidationError):
            dc_voltage(1e-6, 0.0)
        with pytest.raises(ValidationError):
            dc_voltage(-1e-6, 100.0)


class TestSettling:
    CFG = RectennaConfig()

    def test_zero_elapsed_keeps_initial(self):
        assert settled_voltage(1.0, 0.2, 0.0, self.CFG) == 0.2

    def test_long_elapsed_reaches_target(self):
        assert settled_voltage(1.0, 0.2, 1.0, self.CFG) == pytest.approx(1.0, abs=1e-12)

    def test_one_percent_point(self):
        tau = self.CFG.settle_tau_s
        v = settled_voltage(1.0, 0.0, tau * math.log(100.0), self.CFG)
        assert v == pytest.approx(0.99, abs=1e-12)

    def test_monotone_when_rising(self):
        times = np.linspace(0.0, 0.01, 50)
        volts = [settled_voltage(1.0, 0.0, t, self.CFG) for t in times]
        assert np.all(np.diff(volts) > 0)

    def test_negative_elapsed_rejected(self):
        with pytest.raises(ValidationError):
            settled_voltage(1.0, 0.0, -1e-9, self.CFG)

    def test_energy_matches_quadrature_oracle(self):
        # independent oracle: trapezoidal integration of v(t)^2 / R
        cfg = RectennaConfig(settle_tau_s=0.002)
        v0, vt, dur = 0.05, 0.4, 0.018
        energy, v_end = settling_energy(v0, vt, dur, cfg)
        t = np.linspace(0.0, dur, 200_001)
        v = vt + (v0 - vt) * np.exp(-t / cfg.settle_tau_s)
        oracle = np.trapezoid(v * v, t) / cfg.load_ohms
        assert energy == pytest.approx(oracle, rel=1e-9)
        assert v_end == pytest.approx(settled_voltage(vt, v0, dur, cfg), rel=1e-12)

    def test_energy_zero_duration(self):
        energy, v_end = settling_energy(0.3, 0.7, 0.0, self.CFG)
        assert energy == 0.0
        assert v_end == 0.3

    def test_energy_negative_duration_rejected(self):
        with pytest.raises(ValidationError, match="duration_s"):
            settling_energy(0.3, 0.7, -1e-9, self.CFG)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            RectennaConfig(load_ohms=-1.0)
        with pytest.raises(ValidationError):
            RectennaConfig(settle_tau_s=0.0)

    @pytest.mark.parametrize("load_ohms", [5e-324, 1e-320])
    def test_rejects_a_subnormal_load(self, load_ohms):
        # 1e-320 once passed, and a frame's training energy, v * v / load,
        # underflowed to 0
        with pytest.raises(ValidationError, match="load_ohms"):
            RectennaConfig(load_ohms=load_ohms)

    def test_the_smallest_normal_load_harvests_as_a_usual_one(self):
        p_dc = np.random.default_rng(1).exponential(1e-5, (4, 15))
        tiny, usual = (run_frame(p_dc, RectennaConfig(load_ohms=load), adc=None).training_j
                       for load in (sys.float_info.min, 10_000.0))
        assert tiny == pytest.approx(usual, rel=1e-6)
