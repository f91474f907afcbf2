import math

import numpy as np
import numpy.testing as npt
import pytest

from scalar_oracle import dc_voltage, output_dc_power, settled_voltage
from wptdas.errors import ValidationError
from wptdas.experiments import dbm_to_watts
from wptdas.rectenna import (
    EfficiencyCurve,
    RectennaConfig,
    load_efficiency_table,
    settling_energy,
)

CONST_CURVE = EfficiencyCurve.from_table([-20.0], [2.44e9], [[0.25]])


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

    def test_malformed_table_rejected_at_build(self):
        with pytest.raises(ValidationError):
            EfficiencyCurve.from_table([-10.0, -20.0], [2.4e9], [[0.2], [0.3]])
        with pytest.raises(ValidationError):
            EfficiencyCurve.from_table([-20.0], [2.4e9], [[1.5]])

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

    def test_packaged_sample_table_loads(self):
        from importlib import resources
        ref = resources.files("wptdas.data").joinpath("efficiency-table-sample.txt")
        with resources.as_file(ref) as path:
            curve = load_efficiency_table(path)
        eta = curve.efficiency(dbm_to_watts(-20.0), 2.44e9)
        assert eta == pytest.approx(0.25, abs=0.01)


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

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            RectennaConfig(load_ohms=-1.0)
        with pytest.raises(ValidationError):
            RectennaConfig(settle_tau_s=0.0)
