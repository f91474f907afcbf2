import io
import math
import sys

import numpy as np
import pytest

from wptdas.channel import FrequencyGrid, LinkBudget, builtin_profile, sample_channel
from wptdas.errors import FeedbackCapacityError, FeedbackDecodeError, ValidationError
from wptdas.experiments import ExperimentConfig
from wptdas.protocol import (
    DEFAULT_ADC,
    MESSAGE_SIZE_BYTES,
    AdcModel,
    ControlLinkModel,
    FrameSchedule,
    RoundBatch,
    control_bytes,
    decode_feedback,
    encode_feedback,
    frame_log,
    run_frame,
    run_rounds,
    write_events,
)
from wptdas.rectenna import RectennaConfig
from wptdas.rng import substream
from wptdas.selection import default_pair
from wptdas.signal_chain import dc_power_matrix

import scalar_oracle as oracle
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


def log_of(batch):
    return frame_log(batch, 0, 0, FrameSchedule())


def one_user_walk(p_dc, link=ControlLinkModel(), draws=None):
    """One engine walk of one user from rest, one frame per round of ``p_dc``
    (R, M, N), with the link uniforms ``draws`` (R, M + 1)."""
    m_total, n_total = p_dc.shape[1:]
    batch, = run_rounds(p_dc[None, :, None], [np.arange(m_total * n_total).reshape(m_total, -1)],
                        RECT, FrameSchedule(), link, DEFAULT_ADC,
                        None if draws is None else np.asarray(draws)[None])
    return batch


def events_of(batch, kind, j=0):
    return [e for e in frame_log(batch, 0, j, FrameSchedule()) if e.kind == kind]


def selected(batch, j=0):
    return tuple((batch.selected[0, j] + 1).tolist())


def applied(batch, j=0):
    return tuple((batch.applied[0, j] + 1).tolist())


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
    def test_result_is_one_round_of_one_frame_and_user(self):
        batch = default_frame()
        assert isinstance(batch, RoundBatch)
        assert batch.emitting.shape == (1, 1, 4, 15)
        assert batch.samples.shape == (1, 1, 60)
        assert batch.selected.shape == batch.applied.shape == (1, 1, 2)
        for name in ("served_w", "training_j", "wpt_j", "voltage_v"):
            assert getattr(batch, name).shape == (1, 1, 1)

    def test_default_frame_structure(self):
        batch = default_frame()
        log = log_of(batch)
        assert len(events_of(batch, "SlotStart")) == 60
        assert len(events_of(batch, "AdcSample")) == 60
        assert FrameSchedule().frame_us(60) == 4_000_000
        assert log[-1].kind == "FrameEnd"
        assert log[-1].t_us == 4_000_000
        assert MESSAGE_SIZE_BYTES * len(events_of(batch, "MessageSent")) == control_bytes(4) == 5
        activations = [e for e in events_of(batch, "MessageSent") if e.antenna is not None]
        assert [e.antenna for e in activations] == [1, 2, 3, 4]
        sel_m, sel_n = selected(batch)
        assert 1 <= sel_m <= 4 and 1 <= sel_n <= 15

    def test_timestamps_non_decreasing(self):
        times = [e.t_us for e in log_of(default_frame())]
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_control_messages_mirror_events(self):
        batch = default_frame()
        sent = events_of(batch, "MessageSent")
        assert [e.antenna for e in sent] == [1, 2, 3, 4, None]  # activations, then feedback
        assert len(sent) == control_bytes(4) == 5
        assert sent[-1].value == encode_feedback(*selected(batch), (4, 15))
        assert sent[-1].value < 64

    def test_training_span(self):
        batch = default_frame()
        samples = events_of(batch, "AdcSample")
        assert samples[0].t_us == 18_000
        assert samples[-1].t_us == 1_080_000
        assert events_of(batch, "WptPhaseStart")[0].t_us == 1_080_000

    def test_feedback_applied_at_true_maximum(self):
        # fast settling + no quantization: protocol achieves the joint argmax
        ch = sample_channel(PROFILE, 4, substream(3, 0, 0, 0))
        truth = dc_power_matrix(ch, GRID, BUDGET, RECT.curve)
        expected = select_one(truth, "joint")
        batch = frame(ch, FAST_RECT, adc=None)
        fed_back = events_of(batch, "FeedbackApplied")
        assert len(fed_back) == 1
        assert (fed_back[0].antenna, fed_back[0].frequency) == expected[:2]
        assert batch.served_w[0, 0, 0] == pytest.approx(float(truth.max()), rel=1e-12)
        assert batch.wpt_j[0, 0, 0] == pytest.approx(truth.max() * 2.92, rel=1e-12)

    def test_dropped_feedback_falls_back_to_the_pair_served_last(self):
        # every message of the first round gets through; the second round
        # loses only its feedback, so it serves the first round's pair
        link = ControlLinkModel(drop_probability=0.5)
        p_dc = np.stack([dc_power_matrix(sample_channel(PROFILE, 4, substream(seed, 0, 0, 0)),
                                         GRID, BUDGET, RECT.curve) for seed in (1, 2)])
        batch = one_user_walk(p_dc, link, draws=[[0.9] * 5, [0.9] * 4 + [0.1]])
        assert batch.fed_back.tolist() == [[True, False]]
        assert selected(batch, 1) != selected(batch, 0) == applied(batch, 0)
        assert applied(batch, 1) == applied(batch, 0) != (1, 8)
        assert not events_of(batch, "FeedbackApplied", 1)
        assert events_of(batch, "WptPhaseStart", 1)[0].antenna == applied(batch, 0)[0]

    def test_dropped_feedback_without_prior_uses_middle(self):
        link = ControlLinkModel(drop_probability=1.0)
        batch = default_frame(link=link, rng=substream(5))
        assert applied(batch) == (1, 8)

    @pytest.mark.parametrize("n_total", range(1, 17))
    def test_fallback_without_prior_is_the_default_pair(self, n_total):
        # the baselines hold the same pair fixed (test_selection)
        p_dc = np.random.default_rng(n_total).uniform(0.0, 1e-5, (4, n_total))
        batch = run_frame(p_dc, RECT, link=ControlLinkModel(drop_probability=1.0),
                          rng=substream(n_total))
        assert applied(batch) == tuple(np.add(default_pair(n_total), 1))

    def test_all_drops_leave_transmitter_idle(self):
        link = ControlLinkModel(drop_probability=1.0)
        batch = default_frame(link=link, rng=substream(6))
        assert not batch.emitting.any()
        # decaying-from-zero output quantizes to zero everywhere -> tie-break
        assert selected(batch) == (1, 1)
        assert batch.training_j[0, 0, 0] == 0.0

    def test_lossy_link_requires_rng(self):
        with pytest.raises(ValidationError):
            default_frame(link=ControlLinkModel(drop_probability=0.5))

    def test_slow_settling_still_yields_wellformed_log(self):
        slow = RectennaConfig(settle_tau_s=0.009)  # half a slot
        batch = default_frame(rect=slow)
        assert log_of(batch)[-1].kind == "FrameEnd"
        assert len(events_of(batch, "AdcSample")) == 60
        antenna, frequency = applied(batch)
        assert 1 <= antenna <= 4
        assert 1 <= frequency <= 15
        assert batch.training_j[0, 0, 0] >= 0.0

    def test_training_energy_close_to_steady_sum_when_fast(self):
        ch = sample_channel(PROFILE, 4, substream(8, 0, 0, 0))
        truth = dc_power_matrix(ch, GRID, BUDGET, RECT.curve)
        batch = frame(ch, FAST_RECT, adc=None)
        assert batch.training_j[0, 0, 0] == pytest.approx(truth.sum() * 0.018, rel=1e-2)

    def test_energy_non_negative_and_ordering(self):
        batch = default_frame()
        e_train, e_wpt = batch.training_j[0, 0, 0], batch.wpt_j[0, 0, 0]
        assert e_train >= 0.0
        assert e_wpt >= 0.0
        assert e_train + e_wpt >= e_wpt

    def test_voltage_carries_across_frames(self):
        # a second round over the same channel starts where the first ended,
        # on one timeline
        ch = sample_channel(PROFILE, 4, substream(9, 0, 0, 0))
        p_dc = dc_power_matrix(ch, GRID, BUDGET, RECT.curve)
        batch = one_user_walk(np.stack([p_dc, p_dc]))
        first = frame(ch, RECT)  # a frame from rest
        for name in ("samples", "training_j", "wpt_j", "voltage_v"):
            assert np.array_equal(getattr(batch, name)[:, :1], getattr(first, name)), name
        start_us = log_of(first)[-1].t_us
        _res, kept = oracle.run_tdma(ExperimentConfig(PROFILE, GRID, rect=RECT), 2,
                                     adc=DEFAULT_ADC, keep_frames=True, p_dc=[[p_dc], [p_dc]])
        frame2 = oracle.batch_frame(batch, 0, 1, FrameSchedule(), start_us)
        assert frame2 == kept[1]
        log2 = frame2["events"]
        assert log2[0].t_us == 4_000_000
        assert log2[-1].t_us == 8_000_000
        first_sample = [e for e in log2 if e.kind == "AdcSample"][0]
        assert first_sample.value >= 0.0
        assert batch.training_j[0, 1, 0] != batch.training_j[0, 0, 0]  # not from rest

    def test_frame_length_follows_the_matrix(self):
        ch = sample_channel(PROFILE, 3, substream(1))
        batch = frame(ch, RECT)  # 3 x 15 under the default schedule
        assert len(events_of(batch, "SlotStart")) == 45
        assert events_of(batch, "WptPhaseStart")[0].t_us == 45 * 18_000
        assert log_of(batch)[-1].t_us == 45 * 18_000 + 2_920_000
        assert MESSAGE_SIZE_BYTES * len(events_of(batch, "MessageSent")) == control_bytes(3) == 4

    def test_deterministic_given_seed(self):
        a, b = default_frame(seed=4), default_frame(seed=4)
        assert log_of(a) == log_of(b)
        assert a.training_j[0, 0, 0] == b.training_j[0, 0, 0]

    def test_quantization_coarsens_matrix(self):
        ch = sample_channel(PROFILE, 4, substream(10, 0, 0, 0))
        batch_q = frame(ch, FAST_RECT, adc=AdcModel(bits=4))
        batch_i = frame(ch, FAST_RECT, adc=None)
        vals_q = {e.value for e in events_of(batch_q, "AdcSample")}
        vals_i = {e.value for e in events_of(batch_i, "AdcSample")}
        assert len(vals_q) <= len(vals_i)

    def test_latency_blanks_block_start(self):
        link = ControlLinkModel(latency_s=0.004)
        ch = sample_channel(PROFILE, 4, substream(11, 0, 0, 0))
        lat, ref = frame(ch, RECT, link=link), frame(ch, RECT)
        assert lat.training_j[0, 0, 0] < ref.training_j[0, 0, 0]
        assert lat.wpt_j[0, 0, 0] < ref.wpt_j[0, 0, 0]

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

class TestRunRoundsShapes:
    # one run of one round of one user's 2 x 3 matrix, over a lossy link
    LOSSY = ControlLinkModel(drop_probability=0.5)
    P_DC = np.full((1, 1, 1, 2, 3), 1e-6)
    WHOLE = np.arange(6).reshape(2, 3)

    def walk(self, cells, draws, p_dc=P_DC):
        return run_rounds(p_dc, cells, RECT, FrameSchedule(), self.LOSSY, DEFAULT_ADC, draws)

    @pytest.mark.parametrize("draws_shape", [(1, 2, 3), (1, 1, 4), (2, 1, 3), (1, 3)])
    def test_draws_that_do_not_fit_the_walk_are_rejected(self, draws_shape):
        # (1, 2, 3) draws for a one-frame walk of a 2 x 3 cell once ended in a
        # bare numpy reshape error; (1, 1, 4) once ran on the first 3 of them
        with pytest.raises(ValidationError, match="draws"):
            self.walk([self.WHOLE], np.full(draws_shape, 0.9))

    def test_the_failing_cell_is_named(self):
        with pytest.raises(ValidationError, match="cell 1"):
            self.walk([self.WHOLE, np.array([[6]])], np.full((1, 1, 5), 0.9))
        batches = self.walk([self.WHOLE, np.array([[5]])], np.full((1, 1, 5), 0.9))
        assert [b.emitting.shape for b in batches] == [(1, 1, 2, 3), (1, 1, 1, 1)]

    @pytest.mark.parametrize("shape", [(1, 1, 2, 3), (2, 3), (1, 1, 1, 1, 2, 3)])
    def test_powers_must_be_five_dimensional(self, shape):
        # (runs, rounds, users, antennas, frequencies); a 4-D tensor was the
        # form of a walk of one round
        with pytest.raises(ValidationError, match="p_dc"):
            self.walk([self.WHOLE], np.full((1, 1, 3), 0.9), np.full(shape, 1e-6))

    def test_a_walk_is_whole_rounds(self):
        # frame f trains user f % K in round f // K: 2 rounds of 2 users walk
        # 4 frames, whose draws come round by round, and 4 frames of draws
        # laid out frame by frame do not fit them
        p_dc = np.full((1, 2, 2, 2, 3), 1e-6)
        batch, = self.walk([self.WHOLE], np.full((1, 2, 6), 0.9), p_dc)
        assert batch.served_w.shape == (1, 4, 2)
        with pytest.raises(ValidationError, match="draws"):
            self.walk([self.WHOLE], np.full((1, 4, 3), 0.9), p_dc)

    @pytest.mark.parametrize("drop", [1.0, 1e-12])
    def test_a_lossy_link_needs_draws(self, drop):
        # None draws once ran a lossy link as a lossless one
        link = ControlLinkModel(drop_probability=drop)
        with pytest.raises(ValidationError, match="a lossy control link needs draws"):
            run_rounds(self.P_DC, [self.WHOLE], RECT, FrameSchedule(), link, None, None)

    def test_a_walk_needs_a_cell(self):
        with pytest.raises(ValidationError, match="at least one cell"):
            self.walk([], np.full((1, 1, 0), 0.9))

    @pytest.mark.parametrize("cell", [np.arange(6), np.arange(6).reshape(1, 2, 3), np.int64(3)])
    def test_a_cell_is_two_dimensional(self, cell):
        with pytest.raises(ValidationError, match="cell 0: offsets .* are not"):
            self.walk([cell], np.full((1, 1, 3), 0.9))

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0), (0, 0)])
    def test_a_cell_trains_a_pair(self, shape):
        with pytest.raises(ValidationError, match="cell 0 trains no pair"):
            self.walk([np.zeros(shape, int)], np.full((1, 1, shape[0] + 1), 0.9))

    @pytest.mark.parametrize("offset", [-1, -6, 6, 2 ** 40])
    def test_every_offset_is_in_the_matrix(self, offset):
        # -1 once read the matrix's last pair, and 6 the clipped last pair
        # in training
        cell = self.WHOLE.copy()
        cell[1, 2] = offset
        with pytest.raises(ValidationError, match=r"cell 0: offsets must be integers in 0\.\.5"):
            self.walk([cell], np.full((1, 1, 3), 0.9))

    def test_offsets_are_integers(self):
        with pytest.raises(ValidationError, match="cell 0: offsets must be integers"):
            self.walk([self.WHOLE.astype(float)], np.full((1, 1, 3), 0.9))

    def test_a_cell_fits_the_feedback_space(self):
        # 5 x 13 pairs of a 2 x 3 matrix, each trained more than once
        with pytest.raises(FeedbackCapacityError):
            self.walk([np.zeros((5, 13), int)], np.full((1, 1, 6), 0.9))


class TestLoadBound:
    @pytest.mark.parametrize("slot_s,tau_s,latency_s", [(0.018, 0.002, 0.0),
                                                        (0.018, 0.002, 0.005),
                                                        (5.0, 40.0, 12.0)])
    def test_the_largest_accepted_load_keeps_every_value_finite(self, slot_s, tau_s,
                                                                latency_s):
        # the walk rejects a load whose output voltage, or an energy term built
        # from it, overflows; found by bisecting the float bit patterns
        sched = FrameSchedule(slot_s=slot_s, wpt_s=1.0)
        link = ControlLinkModel(latency_s=latency_s)
        p_dc = np.array([[[[[1.0, 0.5, 0.0], [0.25, 1.0, 0.125]]]]])

        def walk(bits):
            load = float(np.int64(bits).view(np.float64))
            return run_rounds(p_dc, [np.arange(6).reshape(2, 3)],
                              RectennaConfig(load_ohms=load, settle_tau_s=tau_s),
                              sched, link, None, None)[0]

        lo, hi = (int(np.float64(x).view(np.int64)) for x in (1.0, sys.float_info.max))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                walk(mid)
                lo = mid
            except ValidationError:
                hi = mid
        batch = walk(lo)
        assert batch.voltage_v.max() > 1e150
        for name in ("samples", "training_j", "wpt_j", "voltage_v"):
            assert np.all(np.isfinite(getattr(batch, name))), name
        with pytest.raises(ValidationError, match="load_ohms"):
            walk(hi)

    def test_the_bound_reads_only_the_cells_pairs(self):
        # a pair that no cell trains is never served, so its power bounds nothing
        p_dc = np.array([[[[[1e-6, 1e-6], [1e-6, 1e300]]]]])
        rect, sched, link = RectennaConfig(load_ohms=1e10), FrameSchedule(), ControlLinkModel()
        batch, = run_rounds(p_dc, [np.array([[0, 1], [2, 2]])], rect, sched, link, None, None)
        assert np.all(np.isfinite(batch.wpt_j))
        with pytest.raises(ValidationError, match="load_ohms"):
            run_rounds(p_dc, [np.array([[0, 1]]), np.array([[3]])], rect, sched, link, None,
                       None)


class TestEventLogCsv:
    def test_columns_and_determinism(self):
        log = log_of(default_frame(seed=2))
        buf1, buf2 = io.StringIO(), io.StringIO()
        write_events(buf1, log)
        write_events(buf2, log)
        text = buf1.getvalue()
        assert text == buf2.getvalue()
        lines = text.splitlines()
        assert lines[0] == "t_us,event,antenna,frequency,value"
        assert len(lines) == 1 + len(log)
        assert lines[1].startswith("0,MessageSent,1")
