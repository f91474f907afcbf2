import io
import math
import sys

import numpy as np
import pytest

from wptdas.channel import FrequencyGrid, LinkBudget, builtin_profile, sample_channel
from wptdas.errors import FeedbackCapacityError, FeedbackDecodeError, ValidationError
from wptdas.protocol import (
    AdcModel,
    ControlLinkModel,
    FrameSchedule,
    decode_feedback,
    encode_feedback,
    fallback_pair,
    run_frame,
)
from wptdas.rectenna import EfficiencyCurve, RectennaConfig
from wptdas.rng import substream
from wptdas.selection import default_pair
from wptdas.signal_chain import dc_power_matrix

from scalar_oracle import select_one

PROFILE = builtin_profile("model-E-NLOS")
GRID = FrequencyGrid.uniform()
BUDGET = LinkBudget()
RECT = RectennaConfig()
FAST_RECT = RectennaConfig(settle_tau_s=10e-6)


def frame(ch, rect=RECT, **kwargs):
    return run_frame(dc_power_matrix(ch, GRID, BUDGET, rect.curve), rect, **kwargs)


def default_frame(seed=1, **kwargs):
    ch = sample_channel(PROFILE, 4, substream(seed, 0, 0, 0))
    return frame(ch, **kwargs)


def events_of(log, kind):
    return [e for e in log.events if e.kind == kind]


class TestFeedbackCodec:
    def test_first_pair(self):
        assert encode_feedback(1, 1, (4, 15)) == 0

    def test_last_pair(self):
        assert encode_feedback(4, 15, (4, 15)) == 59

    def test_exhaustive_roundtrip(self):
        codes = set()
        for m in range(1, 5):
            for n in range(1, 16):
                code = encode_feedback(m, n, (4, 15))
                assert 0 <= code < 64
                assert decode_feedback(code, (4, 15)) == (m, n)
                codes.add(code)
        assert len(codes) == 60

    def test_capacity_error(self):
        with pytest.raises(FeedbackCapacityError):
            encode_feedback(1, 1, (5, 13))

    def test_decode_error(self):
        with pytest.raises(FeedbackDecodeError):
            decode_feedback(60, (4, 15))

    def test_pair_range_checked(self):
        with pytest.raises(ValidationError):
            encode_feedback(5, 1, (4, 15))


class TestFrameSchedule:
    def test_default_closes_at_four_seconds(self):
        s = FrameSchedule()
        assert s.frame_us(60) - s.wpt_us == 1_080_000
        assert s.frame_us(60) == 4_000_000
        assert s.frame_us(60) * 1e-6 == 4.0

    def test_microsecond_resolution_enforced(self):
        with pytest.raises(ValidationError):
            FrameSchedule(slot_s=5e-7)

    def test_validation(self):
        with pytest.raises(ValidationError):
            FrameSchedule(wpt_s=-1.0)


class TestAdcModel:
    def test_quantizes_to_lsb_grid(self):
        adc = AdcModel()
        lsb = 3.3 / 4095
        assert adc.quantize(1.65) == pytest.approx(1.65, abs=lsb)
        assert adc.quantize(1.65) % lsb == pytest.approx(0.0, abs=1e-12)

    def test_clamps_to_range(self):
        adc = AdcModel()
        assert adc.quantize(-0.5) == 0.0
        assert adc.quantize(5.0) == 3.3

    @pytest.mark.parametrize("bits", [0, 54, 1024])
    def test_rejects_bits_a_float_cannot_count(self, bits):
        with pytest.raises(ValidationError):
            AdcModel(bits=bits)

    @pytest.mark.parametrize("v_ref", [1e-320, 5e-324, 0.0, -1.0, math.inf, math.nan])
    def test_rejects_a_reference_without_a_normal_step(self, v_ref):
        with pytest.raises(ValidationError):
            AdcModel(v_ref=v_ref)

    def test_smallest_reference_with_a_normal_step(self):
        v_ref = sys.float_info.min * (2 ** 12 - 1) * 2
        assert AdcModel(v_ref=v_ref).quantize(v_ref) == v_ref
        with pytest.raises(ValidationError):
            AdcModel(v_ref=v_ref / 4)

    @pytest.mark.parametrize("bits", [1, 53])
    def test_accepts_the_bit_range_ends(self, bits):
        adc = AdcModel(bits=bits)
        assert adc.quantize(5.0) == 3.3
        assert adc.quantize(1.0) == pytest.approx(1.0, abs=3.3 / (2 ** bits - 1))


class TestRunFrame:
    def test_default_frame_structure(self):
        log, sel = default_frame()
        assert len(events_of(log, "SlotStart")) == 60
        assert len(events_of(log, "AdcSample")) == 60
        assert FrameSchedule().frame_us(60) == 4_000_000
        assert log.events[-1].kind == "FrameEnd"
        assert log.events[-1].t_us == 4_000_000
        assert log.bytes_sent == 5
        activations = [e for e in events_of(log, "MessageSent") if e.antenna is not None]
        assert [e.antenna for e in activations] == [1, 2, 3, 4]
        assert 1 <= sel.antenna <= 4 and 1 <= sel.frequency <= 15

    def test_timestamps_non_decreasing(self):
        log, _ = default_frame()
        times = [e.t_us for e in log.events]
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_control_messages_mirror_events(self):
        log, sel = default_frame()
        sent = events_of(log, "MessageSent")
        assert [e.antenna for e in sent] == [1, 2, 3, 4, None]  # activations, then feedback
        assert len(sent) == log.bytes_sent == 5
        assert sent[-1].value == encode_feedback(sel.antenna, sel.frequency, (4, 15))
        assert sent[-1].value < 64

    def test_training_span(self):
        log, _ = default_frame()
        samples = events_of(log, "AdcSample")
        assert samples[0].t_us == 18_000
        assert samples[-1].t_us == 1_080_000
        assert events_of(log, "WptPhaseStart")[0].t_us == 1_080_000

    def test_feedback_applied_at_true_maximum(self):
        # fast settling + no quantization: protocol achieves the joint argmax
        ch = sample_channel(PROFILE, 4, substream(3, 0, 0, 0))
        truth = dc_power_matrix(ch, GRID, BUDGET, RECT.curve)
        expected = select_one(truth, "joint")
        log, sel = frame(ch, FAST_RECT, adc=None)
        applied = events_of(log, "FeedbackApplied")
        assert len(applied) == 1
        assert (applied[0].antenna, applied[0].frequency) == expected[:2]
        assert log.applied_power_w == pytest.approx(float(truth.max()), rel=1e-12)
        assert log.harvested_energy_wpt_j == pytest.approx(truth.max() * 2.92, rel=1e-12)

    def test_dropped_feedback_falls_back_to_prior(self):
        link = ControlLinkModel(drop_probability=1.0)
        log, _ = default_frame(link=link, rng=substream(5), prior=(2, 5))
        assert (log.applied_antenna, log.applied_frequency) == (2, 5)
        assert not events_of(log, "FeedbackApplied")

    def test_dropped_feedback_without_prior_uses_middle(self):
        link = ControlLinkModel(drop_probability=1.0)
        log, _ = default_frame(link=link, rng=substream(5))
        assert (log.applied_antenna, log.applied_frequency) == (1, 8)

    @pytest.mark.parametrize("n_total", range(1, 17))
    def test_fallback_without_prior_is_the_default_pair(self, n_total):
        # the baselines hold the same pair fixed (test_selection)
        p_dc = np.random.default_rng(n_total).uniform(0.0, 1e-5, (4, n_total))
        log, _ = run_frame(p_dc, RECT, link=ControlLinkModel(drop_probability=1.0),
                           rng=substream(n_total))
        assert (log.applied_antenna, log.applied_frequency) == tuple(
            np.add(default_pair(n_total), 1))

    def test_fallback_pair_is_zero_based(self):
        assert fallback_pair((2, 5), 4, 15) == (1, 4)
        assert fallback_pair(np.array([4, 15]), 4, 15) == (3, 14)
        assert fallback_pair(None, 4, 15) == default_pair(15) == (0, 7)

    @pytest.mark.parametrize("drop", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("prior", [(9, 9), (0, 1), (5, 1), (1, 16), (1.5, 2), (True, 1),
                                       ("1", "2"), (1,), (1, 2, 3), 7])
    def test_prior_is_checked_whatever_the_link_draws(self, prior, drop):
        link = ControlLinkModel(drop_probability=drop)
        for seed in range(4):
            with pytest.raises(ValidationError, match="prior"):
                default_frame(link=link, rng=substream(seed), prior=prior)

    @pytest.mark.parametrize("v_initial", [math.nan, math.inf, -5.0, "1", None, True])
    def test_initial_voltage_is_checked(self, v_initial):
        with pytest.raises(ValidationError, match="v_initial"):
            default_frame(v_initial=v_initial)

    def test_all_drops_leave_transmitter_idle(self):
        link = ControlLinkModel(drop_probability=1.0)
        log, sel = default_frame(link=link, rng=substream(6), v_initial=0.0)
        assert all(ant is None for ant, _ in log.emissions)
        # decaying-from-zero output quantizes to zero everywhere -> tie-break
        assert (sel.antenna, sel.frequency) == (1, 1)
        assert log.harvested_energy_training_j == 0.0

    def test_lossy_link_requires_rng(self):
        with pytest.raises(ValidationError):
            default_frame(link=ControlLinkModel(drop_probability=0.5))

    def test_slow_settling_still_yields_wellformed_log(self):
        slow = RectennaConfig(settle_tau_s=0.009)  # half a slot
        log, sel = default_frame(rect=slow)
        assert log.events[-1].kind == "FrameEnd"
        assert len(events_of(log, "AdcSample")) == 60
        assert 1 <= log.applied_antenna <= 4
        assert 1 <= log.applied_frequency <= 15
        assert log.harvested_energy_training_j >= 0.0

    def test_training_energy_close_to_steady_sum_when_fast(self):
        ch = sample_channel(PROFILE, 4, substream(8, 0, 0, 0))
        truth = dc_power_matrix(ch, GRID, BUDGET, RECT.curve)
        log, _ = frame(ch, FAST_RECT, adc=None)
        assert log.harvested_energy_training_j == pytest.approx(
            truth.sum() * 0.018, rel=1e-2)

    def test_energy_non_negative_and_ordering(self):
        log, _ = default_frame()
        assert log.harvested_energy_training_j >= 0.0
        assert log.harvested_energy_wpt_j >= 0.0
        assert (log.harvested_energy_training_j + log.harvested_energy_wpt_j
                >= log.harvested_energy_wpt_j)

    def test_voltage_carries_across_frames(self):
        ch = sample_channel(PROFILE, 4, substream(9, 0, 0, 0))
        log1, _ = frame(ch, RECT)
        log2, _ = frame(ch, RECT, start_us=log1.events[-1].t_us,
                        v_initial=log1.final_voltage_v)
        assert log2.events[0].t_us == 4_000_000
        assert log2.events[-1].t_us == 8_000_000
        first_sample = events_of(log2, "AdcSample")[0]
        assert first_sample.value >= 0.0

    def test_frame_length_follows_the_matrix(self):
        ch = sample_channel(PROFILE, 3, substream(1))
        log, _ = frame(ch, RECT)  # 3 x 15 under the default schedule
        assert len(events_of(log, "SlotStart")) == 45
        assert events_of(log, "WptPhaseStart")[0].t_us == 45 * 18_000
        assert log.events[-1].t_us == 45 * 18_000 + 2_920_000
        assert log.bytes_sent == 4

    def test_deterministic_given_seed(self):
        a, _ = default_frame(seed=4)
        b, _ = default_frame(seed=4)
        assert a.events == b.events
        assert a.harvested_energy_training_j == b.harvested_energy_training_j

    def test_quantization_coarsens_matrix(self):
        ch = sample_channel(PROFILE, 4, substream(10, 0, 0, 0))
        log_q, _ = frame(ch, FAST_RECT, adc=AdcModel(bits=4))
        log_i, _ = frame(ch, FAST_RECT, adc=None)
        vals_q = {e.value for e in events_of(log_q, "AdcSample")}
        vals_i = {e.value for e in events_of(log_i, "AdcSample")}
        assert len(vals_q) <= len(vals_i)

    def test_latency_blanks_block_start(self):
        link = ControlLinkModel(latency_s=0.004)
        ch = sample_channel(PROFILE, 4, substream(11, 0, 0, 0))
        log_lat, _ = frame(ch, RECT, link=link)
        log_ref, _ = frame(ch, RECT)
        assert log_lat.harvested_energy_training_j < log_ref.harvested_energy_training_j
        assert log_lat.harvested_energy_wpt_j < log_ref.harvested_energy_wpt_j

    @pytest.mark.parametrize("p_dc", [
        np.full((4, 15), np.nan),
        np.full((4, 15), -1e-6),
        np.full(60, 1e-6),  # 1-D, even with the right entry count
        np.full((2, 4, 15), 1e-6),
        np.full((4, 15), np.inf),
    ])
    def test_bad_dc_matrix_rejected(self, p_dc):
        with pytest.raises(ValidationError):
            run_frame(p_dc, RECT)

class TestEventLogCsv:
    def test_columns_and_determinism(self):
        log, _ = default_frame(seed=2)
        buf1, buf2 = io.StringIO(), io.StringIO()
        log.to_csv(buf1)
        log.to_csv(buf2)
        text = buf1.getvalue()
        assert text == buf2.getvalue()
        lines = text.splitlines()
        assert lines[0] == "t_us,event,antenna,frequency,value"
        assert len(lines) == 1 + len(log.events)
        assert lines[1].startswith("0,MessageSent,1")

