import cmath
import math

import numpy as np
import numpy.testing as npt
import pytest

from scalar_oracle import (frequency_response, phases, received_rf_power, sample_channel, subset,
                           substream)
from wptdas.channel import (
    FrequencyGrid,
    LinkBudget,
    TapProfile,
    builtin_profile,
    load_tap_profile,
    path_loss_db,
    response_matrix,
)
from wptdas.errors import ValidationError

SINGLE_TAP = TapProfile("flat", [0.0], [1.0])


def _two_tap(delta_s):
    """A two-tap profile with taps ``delta_s`` apart, and one draw of equal real gains."""
    return TapProfile("two-tap", [0.0, delta_s], [0.5, 0.5]), [[0.5, 0.5]]


class TestTapProfile:
    def test_builtin_profiles_are_normalized(self):
        for name in ("model-E-NLOS", "single-tap-flat", "two-tap-test"):
            p = builtin_profile(name)
            assert abs(p.powers.sum() - 1.0) <= 1e-9
            assert p.delays_s[0] >= 0.0

    def test_model_e_shape(self):
        p = builtin_profile("model-E-NLOS")
        assert p.num_taps == 18
        assert np.all(np.diff(p.delays_s) > 0)
        npt.assert_allclose(p.delays_s[-1], 730e-9)

    def test_rejects_unsorted_delays(self):
        with pytest.raises(ValidationError):
            TapProfile("bad", [10e-9, 0.0], [0.5, 0.5])

    def test_rejects_a_negative_first_delay(self):
        with pytest.raises(ValidationError, match="first tap delay"):
            TapProfile("bad", [-1e-9, 10e-9], [0.5, 0.5])

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValidationError):
            TapProfile("bad", [0.0, 10e-9], [1.0, 0.0])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            TapProfile("bad", [0.0], [0.5])

    def test_normalized_constructor(self):
        p = TapProfile.normalized("x", [0.0, 5e-9], [2.0, 6.0])
        npt.assert_allclose(p.powers, [0.25, 0.75])

    def test_load_file_with_comments(self, tmp_path):
        f = tmp_path / "p.pdp"
        f.write_text("# comment\n0 0.0  # inline\n\n50 -3.0103\n")
        p = load_tap_profile(f)
        assert p.num_taps == 2
        npt.assert_allclose(p.delays_s, [0.0, 50e-9])
        npt.assert_allclose(p.powers.sum(), 1.0)

    def test_load_rejects_garbage(self, tmp_path):
        f = tmp_path / "p.pdp"
        f.write_text("0 0.0 extra\n")
        with pytest.raises(ValidationError):
            load_tap_profile(f)

    @pytest.mark.parametrize("text, line", [
        ("0 0\n10 4000\n", 2),  # 10**400 is beyond a float
        ("0 0\n10 inf\n", 2),
        ("0 -inf\n", 1),
        ("# delays\nnan 0\n10 0\n", 2),
        ("0 0\n10 nan\n", 2),
        ("0 0\ninf 0\n", 2),
    ])
    def test_load_rejects_non_finite_taps_at_their_line(self, tmp_path, text, line):
        # the suite turns warnings into errors: a power beyond a float once
        # warned twice and was then reported as not > 0, a NaN delay as not
        # increasing
        f = tmp_path / "p.pdp"
        f.write_text(text)
        with pytest.raises(ValidationError, match=f"p.pdp:{line}: "):
            load_tap_profile(f)

    def test_linear_powers_must_sum_within_a_float(self, tmp_path):
        f = tmp_path / "p.pdp"
        f.write_text("0 3080\n10 3080\n")
        with pytest.raises(ValidationError, match="sum"):
            load_tap_profile(f)

    def test_non_finite_delay_named_before_the_order(self):
        with pytest.raises(ValidationError, match="finite"):
            TapProfile("bad", [0.0, math.nan], [0.5, 0.5])

    def test_unknown_builtin(self):
        for _ in range(2):  # a failed load is not cached
            with pytest.raises(ValidationError):
                builtin_profile("no-such-profile")

    @pytest.mark.parametrize("name", ["model-E-NLOS", "single-tap-flat", "two-tap-test"])
    def test_a_builtin_profile_is_loaded_once_and_read_only(self, name):
        profile = builtin_profile(name)
        assert builtin_profile(name) is profile
        before = profile.powers.copy(), profile.delays_s.copy()
        with pytest.raises(ValueError, match="read-only"):
            profile.powers[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            profile.delays_s *= 2.0
        npt.assert_array_equal(builtin_profile(name).powers, before[0])
        npt.assert_array_equal(builtin_profile(name).delays_s, before[1])


class TestResponseMatrixGains:
    @pytest.mark.parametrize("gains", [[0.5, 0.5], [[0.5, 0.5, 0.5]]], ids=["1-D", "taps"])
    def test_rejects_gains_of_the_wrong_shape(self, gains):
        with pytest.raises(ValidationError, match="num_antennas, num_taps"):
            response_matrix(_two_tap(10e-9)[0], gains, [2.4e9])

    @pytest.mark.parametrize("bad", [complex(math.inf, 0.0), complex(0.0, math.nan)])
    def test_rejects_non_finite_gains(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            response_matrix(_two_tap(10e-9)[0], [[0.5, bad]], [2.4e9])

    def test_a_stack_of_draws_is_each_draw_alone(self):
        # the rate pass hands over (R, M, L) stacks; each draw must come out as if passed alone
        profile = builtin_profile("model-E-NLOS")
        stack = np.stack([sample_channel(profile, 3, substream(24, r)) for r in range(4)])
        freqs = FrequencyGrid.uniform(count=5).frequencies_hz
        mats = response_matrix(profile, stack, freqs)
        assert mats.shape == (4, 3, 5)
        for r in range(4):
            npt.assert_allclose(mats[r], response_matrix(profile, stack[r], freqs), rtol=1e-12)


class TestSampleChannel:
    def test_shape_contract(self):
        gains = sample_channel(builtin_profile("model-E-NLOS"), 4, substream(0, 0))
        assert gains.shape == (4, 18)

    def test_seed_reproducible(self):
        a = sample_channel(SINGLE_TAP, 4, substream(7, 1, 2))
        b = sample_channel(SINGLE_TAP, 4, substream(7, 1, 2))
        assert np.array_equal(a, b)

    def test_distinct_substreams_differ(self):
        a = sample_channel(SINGLE_TAP, 4, substream(7, 1, 2))
        b = sample_channel(SINGLE_TAP, 4, substream(7, 1, 3))
        assert not np.array_equal(a, b)

    def test_mean_square_amplitude_is_tap_power(self):
        # antennas are i.i.d., so one wide draw gives 1e5 samples
        gains = sample_channel(SINGLE_TAP, 100_000, substream(11))
        amp2 = np.abs(gains[:, 0]) ** 2
        assert abs(amp2.mean() - 1.0) <= 0.02

    def test_amplitude_square_exponential_tail(self):
        gains = sample_channel(SINGLE_TAP, 100_000, substream(12))
        amp2 = np.abs(gains[:, 0]) ** 2
        p_gt_1 = np.mean(amp2 > 1.0)
        assert abs(p_gt_1 - math.exp(-1)) <= 0.02 * math.exp(-1)

    def test_antenna_independence(self):
        profile = builtin_profile("model-E-NLOS")
        a2 = np.empty((10_000, 2))
        for r in range(10_000):
            gains = sample_channel(profile, 2, substream(3, 0, r))
            h = response_matrix(profile, gains, np.array([2.44e9]))
            a2[r] = np.abs(h[:, 0]) ** 2
        corr = np.corrcoef(a2[:, 0], a2[:, 1])[0, 1]
        assert abs(corr) < 0.05

    def test_phase_range(self):
        gains = sample_channel(builtin_profile("model-E-NLOS"), 4, substream(5))
        ph = phases(gains)
        assert np.all(ph >= -np.pi) and np.all(ph < np.pi)

    def test_subset_view(self):
        gains = sample_channel(SINGLE_TAP, 4, substream(9))
        sub = subset(gains, 2)
        assert np.array_equal(sub, gains[:2])
        with pytest.raises(ValidationError):
            subset(gains, 5)


class TestFrequencyResponse:
    def test_single_unit_tap_identity(self):
        for f in (1e6, 2.44e9, 5.8e9):
            h = frequency_response(SINGLE_TAP, [[1.0 + 0j]], 1, f)
            assert abs(abs(h) - 1.0) < 1e-15
            assert abs(cmath.phase(h)) < 1e-15

    def test_two_tap_destructive(self):
        f = 2.44e9
        assert abs(frequency_response(*_two_tap(1.0 / (2.0 * f)), 1, f)) < 1e-12

    def test_two_tap_constructive(self):
        f = 2.44e9
        assert abs(frequency_response(*_two_tap(1.0 / f), 1, f) - 1.0) < 1e-9

    def test_matches_bruteforce_sum(self):
        # independent oracle: direct complex summation per tap
        profile = builtin_profile("model-E-NLOS")
        gains = sample_channel(profile, 3, substream(21))
        f = 2.44e9
        for m in range(1, 4):
            expected = sum(
                gains[m - 1, l] * cmath.exp(-2j * cmath.pi * f * profile.delays_s[l])
                for l in range(profile.num_taps)
            )
            got = frequency_response(profile, gains, m, f)
            assert abs(got - expected) <= 1e-12 * abs(expected)

    def test_response_matrix_matches_scalar_api(self):
        profile = builtin_profile("model-E-NLOS")
        gains = sample_channel(profile, 2, substream(22))
        freqs = FrequencyGrid.uniform(count=5).frequencies_hz
        mat = response_matrix(profile, gains, freqs)
        for m in range(1, 3):
            for n, f in enumerate(freqs):
                assert abs(mat[m - 1, n] - frequency_response(profile, gains, m, f)) < 1e-12

    def test_conjugate_symmetry(self):
        profile = builtin_profile("model-E-NLOS")
        gains = sample_channel(profile, 1, substream(23))
        for f in (1e9, 2.44e9):
            assert (frequency_response(profile, gains, 1, -f)
                    == frequency_response(profile, gains, 1, f).conjugate())

    def test_antenna_out_of_range(self):
        gains = sample_channel(SINGLE_TAP, 2, substream(4))
        with pytest.raises(IndexError):
            frequency_response(SINGLE_TAP, gains, 3, 2.4e9)
        with pytest.raises(IndexError):
            frequency_response(SINGLE_TAP, gains, 0, 2.4e9)


class TestPathLoss:
    def test_reference_value(self):
        assert path_loss_db(10.0, 2.4e9) == pytest.approx(60.046, abs=1e-3)

    def test_twenty_db_per_decade(self):
        assert path_loss_db(10.0, 2.4e9) - path_loss_db(1.0, 2.4e9) == pytest.approx(20.0, abs=1e-9)

    def test_gains_subtract(self):
        assert path_loss_db(10.0, 2.4e9, 3.0, 3.0) == pytest.approx(54.046, abs=1e-3)

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            path_loss_db(0.0, 2.4e9)
        with pytest.raises(ValidationError):
            path_loss_db(1.0, -5.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position, name", enumerate(
        ["distance_m", "freq_hz", "tx_gain_dbi", "rx_gain_dbi"]))
    def test_rejects_non_finite_inputs(self, position, name, bad):
        args = [10.0, 2.4e9, 0.0, 0.0]
        args[position] = bad
        with pytest.raises(ValidationError, match=name):
            path_loss_db(*args)


class TestReceivedRfPower:
    def test_reference_point(self):
        budget = LinkBudget()  # 36 dBm, 60.046 dB
        p = received_rf_power(budget, 1.0)
        assert 10.0 * math.log10(p) + 30.0 == pytest.approx(36.0 - 60.046, abs=1e-9)

    def test_zero_amplitude(self):
        assert received_rf_power(LinkBudget(), 0.0) == 0.0

    def test_linear_in_amplitude_squared(self):
        budget = LinkBudget()
        ratio_db = 10.0 * math.log10(received_rf_power(budget, math.sqrt(2.0))
                                     / received_rf_power(budget, 1.0))
        assert ratio_db == pytest.approx(10.0 * math.log10(2.0), abs=1e-9)

    def test_gain_fields_offset_loss(self):
        base = LinkBudget()
        gained = LinkBudget(tx_gain_dbi=3.0, rx_gain_dbi=3.0)
        ratio = received_rf_power(gained, 1.0) / received_rf_power(base, 1.0)
        assert 10.0 * math.log10(ratio) == pytest.approx(6.0, abs=1e-9)

    def test_budget_validation(self):
        with pytest.raises(ValidationError):
            LinkBudget(tx_power_w=0.0)
        with pytest.raises(ValidationError):
            LinkBudget(path_loss_db=-1.0)
        with pytest.raises(ValidationError):
            received_rf_power(LinkBudget(), -0.5)
        # a net gain past ~3,080 dB overflows the scale: 10**394 raises, 1e308 + 1e308 is inf
        for gains in ((4000.0, 0.0), (1e308, 1e308)):
            with pytest.raises(ValidationError, match="tx_gain_dbi"):
                LinkBudget(tx_gain_dbi=gains[0], rx_gain_dbi=gains[1])


class TestFrequencyGrid:
    def test_uniform_endpoints_included(self):
        g = FrequencyGrid.uniform(2.4e9, 75e6, 15)
        npt.assert_allclose(g.frequencies_hz[0], 2.4e9 - 37.5e6)
        npt.assert_allclose(g.frequencies_hz[-1], 2.4e9 + 37.5e6)
        assert g.count == 15

    def test_uniform_single_point_is_center(self):
        g = FrequencyGrid.uniform(2.4e9, 75e6, 1)
        npt.assert_allclose(g.frequencies_hz, [2.4e9])

    def test_ieee_plan_frequencies(self):
        g = FrequencyGrid.ieee_plan(15)
        npt.assert_allclose(g.frequencies_hz, (2400 + 5 * np.arange(1, 16)) * 1e6)

    def test_ieee_plan_reserves_control_channel(self):
        with pytest.raises(ValidationError):
            FrequencyGrid.ieee_plan(16)

    def test_count_validation(self):
        with pytest.raises(ValidationError):
            FrequencyGrid.uniform(count=0)

    @pytest.mark.parametrize("count", [2.5, True, "3", None, -1])
    def test_uniform_count_must_be_a_positive_integer(self, count):
        with pytest.raises(ValidationError, match="count"):
            FrequencyGrid.uniform(count=count)

    @pytest.mark.parametrize("count", [2.5, True, "3", None, 0])
    def test_ieee_plan_count_must_be_a_positive_integer(self, count):
        with pytest.raises(ValidationError, match="count"):
            FrequencyGrid.ieee_plan(count)

    @pytest.mark.parametrize("kwargs, field", [
        (dict(center_hz=math.inf), "center_hz"),
        (dict(bandwidth_hz=math.nan, count=1), "bandwidth_hz"),
        (dict(center_hz="2.4e9"), "center_hz"),
        # one point spans no band, so only the sign check sees this bandwidth
        (dict(bandwidth_hz=-1.0, count=1), "bandwidth_hz"),
        # each is finite, but the band's top edge is not
        (dict(center_hz=1.5e308, bandwidth_hz=1e308), r"center_hz \+ bandwidth_hz"),
        (dict(center_hz=np.float64(1.7e308), bandwidth_hz=np.float64(2e307)),
         r"center_hz \+ bandwidth_hz"),
    ])
    def test_uniform_band_must_be_finite_numbers(self, kwargs, field):
        with pytest.raises(ValidationError, match=field):
            FrequencyGrid.uniform(**kwargs)

    def test_uniform_band_up_to_the_largest_float_builds(self):
        g = FrequencyGrid.uniform(1e308, 1e308, 3)
        npt.assert_allclose(g.frequencies_hz, [0.5e308, 1e308, 1.5e308])

    def test_integer_counts_of_any_integer_type_build(self):
        assert FrequencyGrid.uniform(count=np.int64(3)).count == 3
        assert FrequencyGrid.ieee_plan(np.int64(7)).count == 7
