"""The batched frame protocol engine against the scalar walk, and the physics
both rest on.

``scalar_oracle`` walks one frame, one receiver and one slot at a time with
Python floats. The engine in :mod:`wptdas.protocol` walks every
(realization, user) row at once. Every comparison here is exact (``==``).
"""

import io
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracle as oracle
from wptdas import experiments
from wptdas.channel import FrequencyGrid, LinkBudget, builtin_profile, sample_channel
from wptdas.experiments import (ExperimentConfig, _block_values, nested_frequency_indices,
                                run_tdma)
from wptdas.protocol import (AdcModel, ControlLinkModel, FrameSchedule, RoundBatch, run_frame,
                             run_rounds, write_events)
from wptdas.rectenna import RectennaConfig, load_efficiency_table, segment_energy, settle
from wptdas.rng import substream
from wptdas.selection import check_powers, select_pairs
from wptdas.signal_chain import dc_power_matrix

PROFILE = builtin_profile("model-E-NLOS")
GRID = FrequencyGrid.uniform()
BUDGET = LinkBudget()
TABLE = load_efficiency_table(Path(__file__).resolve().parents[1] / "src" / "wptdas" / "data"
                              / "efficiency-table-sample.txt")

seeds = st.integers(0, 2 ** 32 - 1)
drops = st.sampled_from([0.0, 0.3, 1.0])
# none, inside one slot, a few slots, past an antenna block (15 x 18 ms),
# past the whole training phase, past the delivery phase
latencies = st.sampled_from([0.0, 0.002, 0.05, 0.3, 1.2, 3.5])
adcs = st.sampled_from([None, AdcModel(bits=12), AdcModel(bits=1)])
rects = st.builds(RectennaConfig,
                  settle_tau_s=st.sampled_from([1e-5, 0.002, 0.009, 0.05]),
                  load_ohms=st.sampled_from([500.0, 10_000.0, 47_000.0]))


def walk_cfg(rect, users=1):
    """The config of the oracle's TDMA walk over given powers: its users and rectenna."""
    return ExperimentConfig(PROFILE, GRID, rect=rect, users=users)


def events_text(events) -> str:
    buf = io.StringIO()
    write_events(buf, events)
    return buf.getvalue()


class TestSettlingStep:
    @settings(max_examples=200, deadline=None)
    @given(v0=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=16),
           vt=st.floats(0.0, 5.0),
           duration_s=st.floats(1e-9, 10.0),
           tau_s=st.floats(1e-7, 1.0),
           load_ohms=st.floats(1.0, 1e6))
    def test_batched_step_equals_the_scalar_segment(self, v0, vt, duration_s, tau_s,
                                                   load_ohms):
        cfg = RectennaConfig(settle_tau_s=tau_s, load_ohms=load_ohms)
        v = np.array(v0)
        targets = np.full(v.shape, vt)
        rise = -math.expm1(-duration_s / tau_s)
        energy = segment_energy(v, targets, duration_s, rise, np.full(v.shape, tau_s),
                                np.full(v.shape, load_ohms))
        end = settle(v, targets, math.exp(-duration_s / tau_s))
        for i, x in enumerate(v0):
            assert (energy[i], end[i]) == oracle.settling_energy(x, vt, duration_s, cfg)

    @settings(max_examples=200, deadline=None)
    @given(v0=st.floats(0.0, 3.0), vt=st.floats(0.0, 3.0),
           d1=st.floats(1e-3, 1.0), d2=st.floats(1e-3, 1.0),
           tau_s=st.floats(1e-5, 0.1), load_ohms=st.floats(10.0, 1e6))
    def test_energy_is_additive_over_split_segments(self, v0, vt, d1, d2, tau_s, load_ohms):
        # Bound: 32 ulp of the largest sum of the closed form's term
        # magnitudes among the three segments (6 ulp was the worst of 60,000
        # random draws; 37 before 1 - decay was taken with expm1, at
        # d = 1 ms, tau = 94 ms). Segments shorter than 1 ms are left out:
        # there the closed form's terms cancel when charging from below,
        # which needs its own fix.
        cfg = RectennaConfig(settle_tau_s=tau_s, load_ohms=load_ohms)

        def magnitude(v, d):
            decay = math.exp(-d / tau_s)
            delta = v - vt
            return (vt * vt * d + abs(2.0 * vt * delta * tau_s * (1.0 - decay))
                    + delta * delta * tau_s / 2.0 * (1.0 - decay * decay)) / load_ohms

        whole, _ = oracle.settling_energy(v0, vt, d1 + d2, cfg)
        first, v_mid = oracle.settling_energy(v0, vt, d1, cfg)
        second, _ = oracle.settling_energy(v_mid, vt, d2, cfg)
        scale = max(magnitude(v0, d1 + d2), magnitude(v0, d1), magnitude(v_mid, d2))
        assert abs(first + second - whole) <= 32 * math.ulp(scale)

    @settings(max_examples=40, deadline=None)
    @given(v0=st.floats(0.0, 3.0), vt=st.floats(0.0, 3.0),
           duration_s=st.floats(1e-3, 0.2), ratio=st.floats(0.02, 50.0))
    def test_closed_form_matches_a_fine_grid_integral(self, v0, vt, duration_s, ratio):
        # Segments of at least 1 ms, up to 50 time constants long; shorter
        # segments wait for the cancellation fix of the closed form.
        cfg = RectennaConfig(settle_tau_s=duration_s / ratio)
        energy, v_end = oracle.settling_energy(v0, vt, duration_s, cfg)
        t = np.linspace(0.0, duration_s, 200_001)
        v = vt + (v0 - vt) * np.exp(-t / cfg.settle_tau_s)
        integral = np.trapezoid(v * v, t) / cfg.load_ohms
        assert energy == pytest.approx(integral, rel=1e-7, abs=1e-18)
        assert v_end == pytest.approx(v[-1], rel=1e-12, abs=1e-15)


class TestAdcProperties:
    @settings(max_examples=300, deadline=None)
    @given(bits=st.integers(1, 53), v_ref=st.floats(1e-3, 1e3),
           voltages=st.lists(st.floats(-10.0, 2e3), min_size=1, max_size=8))
    def test_sample_is_the_nearest_level_in_range(self, bits, v_ref, voltages):
        # Half an LSB, plus the rounding of v / lsb (2**(bits - 53) LSB) and of
        # the level itself (one ulp of v_ref).
        adc = AdcModel(bits=bits, v_ref=v_ref)
        samples = adc.quantize(np.array(voltages))
        bound = (0.5 + 2.0 ** (bits - 53)) * adc.lsb + math.ulp(v_ref)
        for v, q in zip(voltages, samples):
            assert 0.0 <= q <= v_ref
            assert abs(q - min(max(v, 0.0), v_ref)) <= bound
            assert adc.quantize(v) == q


class TestNestedSelection:
    @settings(max_examples=100, deadline=None)
    @given(seed=seeds)
    def test_joint_maximum_is_monotone_over_nested_sets(self, seed):
        p = check_powers(np.random.default_rng(seed).exponential(size=(6, 4, 15)))
        best = {}
        for m in range(1, 5):
            for k in range(1, 16):
                sub = p[:, :m][..., nested_frequency_indices(15, k)]
                a, f = select_pairs(sub, "joint")
                best[m, k] = sub[np.arange(6), a, f]
        for (m, k), value in best.items():
            if m > 1:
                assert np.all(best[m - 1, k] <= value)
            if k > 1:
                assert np.all(best[m, k - 1] <= value)


class TestFrameAgainstScalarWalk:
    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, drop=drops, latency_s=latencies, adc=adcs, rect=rects)
    def test_a_frame_from_rest_equals_the_scalar_walk(self, seed, drop, latency_s, adc, rect):
        p_dc = dc_power_matrix(sample_channel(PROFILE, 4, substream(seed, 0)), GRID, BUDGET,
                               rect.curve)
        sched = FrameSchedule()
        link = ControlLinkModel(drop_probability=drop, latency_s=latency_s)
        rng_a, rng_b = substream(seed, 1), substream(seed, 1)
        batch = run_frame(p_dc, rect, sched=sched, link=link, rng=rng_a, adc=adc)
        frame = oracle.batch_frame(batch, 0, 0, sched)
        _res, (ref,) = oracle.run_tdma(walk_cfg(rect), 1, sched=sched, link=link, adc=adc,
                                       keep_frames=True, p_dc=[[p_dc]], rng=rng_b)
        # events, message outcomes, samples, selected pair and value, applied
        # pair and power, emissions, both energies and the final voltage
        assert frame == ref
        assert events_text(frame["events"]) == events_text(ref["events"])
        assert rng_a.random() == rng_b.random()  # the same draws were consumed

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, rounds=st.integers(1, 3), drop=drops, latency_s=latencies, adc=adcs,
           rect=rects)
    def test_a_walk_over_rounds_equals_the_scalar_walk(self, seed, rounds, drop, latency_s,
                                                       adc, rect):
        # one receiver over rounds of fresh channels, from rest: each frame
        # starts from the last one's voltage, falls back to the pair it served
        # and logs on from its end
        p_dc = check_powers([[dc_power_matrix(sample_channel(PROFILE, 4, substream(seed, 0, r)),
                                              GRID, BUDGET, rect.curve)] for r in range(rounds)])
        sched = FrameSchedule()
        link = ControlLinkModel(drop_probability=drop, latency_s=latency_s)
        rng_a, rng_b = substream(seed, 1), substream(seed, 1)
        batch, = run_rounds([p_dc[None]], rect, sched, link, adc,
                            [link.draws(rng_a, (1, rounds, 5))])
        _res, kept = oracle.run_tdma(walk_cfg(rect), rounds, sched=sched, link=link, adc=adc,
                                     keep_frames=True, p_dc=list(p_dc), rng=rng_b)
        frames = [oracle.batch_frame(batch, 0, f, sched, f * sched.frame_us(60))
                  for f in range(rounds)]
        assert frames == kept
        assert [events_text(frame["events"]) for frame in frames] == [
            events_text(frame["events"]) for frame in kept]
        assert rng_a.random() == rng_b.random()


class TestRoundLogsAgainstScalarWalk:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, runs=st.integers(1, 3), rounds=st.integers(1, 3), k=st.integers(1, 3),
           rect=rects, dims=st.sampled_from([(1, 1), (2, 3), (3, 5), (4, 15)]), drop=drops,
           latency_s=latencies, adc=adcs)
    def test_every_field_and_log_equals_the_scalar_walk(self, seed, runs, rounds, k, rect,
                                                        dims, drop, latency_s, adc):
        # One engine walk of B runs of R rounds from rest against the scalar
        # TDMA walk of each run alone from the same powers and link draws.
        m_total, n_total = dims
        frames = rounds * k
        sched = FrameSchedule()
        link = ControlLinkModel(drop_probability=drop, latency_s=latency_s)
        p_dc = check_powers(np.random.default_rng(seed).exponential(
            1e-5, (runs, rounds, k, m_total, n_total)))
        draws = [link.draws(substream(seed, b), (frames, m_total + 1)) for b in range(runs)]
        batch, = run_rounds([p_dc], rect, sched, link, adc,
                            [None if drop == 0.0 else np.stack(draws)])
        frame_us = sched.frame_us(m_total * n_total)
        for b in range(runs):
            _res, kept = oracle.run_tdma(walk_cfg(rect, k), frames, sched=sched, link=link,
                                         adc=adc, keep_frames=True,
                                         p_dc=[list(round_dc) for round_dc in p_dc[b]],
                                         rng=substream(seed, b))
            for name, ref in oracle.batch_fields(kept).items():
                assert np.array_equal(getattr(batch, name)[b], ref), name
            assert [oracle.batch_frame(batch, b, f, sched, f * frame_us)["events"]
                    for f in range(frames)] == [frame["events"] for frame in kept]


def chained_cells(seed, runs, rounds, k, shapes, link):
    """``p_dc`` and ``draws`` lists for :func:`run_rounds`: dc powers with some
    exact zeros (an all-zero cell ties every pair) and link draws."""
    rng = np.random.default_rng(seed)
    p_dc, draws = [], []
    for m, n in shapes:
        keep = rng.choice([0.0, 0.5, 1.0])
        shape = (runs, rounds, k, m, n)
        p_dc.append(check_powers(rng.exponential(1e-5, shape) * (rng.random(shape) < keep)))
        draws.append(link.draws(rng, (runs, rounds * k, m + 1)))
    return p_dc, draws


class TestChainedWalk:
    # Up to 16 cells packed side by side into lanes in one walk, against each
    # cell walked alone and against the walk that takes the energies.
    shapes = st.lists(st.tuples(st.integers(1, 4), st.sampled_from([1, 3, 5, 15])),
                      min_size=1, max_size=16)

    @staticmethod
    def assert_same(batch, ref, names):
        for name in names:
            assert np.array_equal(getattr(batch, name), getattr(ref, name)), name

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, runs=st.integers(1, 3), rounds=st.integers(1, 3), k=st.integers(1, 4),
           rect=rects, shapes=shapes, drop=drops, latency_s=latencies, adc=adcs,
           energy=st.booleans())
    def test_each_cell_equals_its_own_walk(self, seed, runs, rounds, k, rect, shapes, drop,
                                           latency_s, adc, energy):
        sched = FrameSchedule()
        link = ControlLinkModel(drop_probability=drop, latency_s=latency_s)
        p_dc, draws = chained_cells(seed, runs, rounds, k, shapes, link)
        chained = run_rounds(p_dc, rect, sched, link, adc, draws, energy=energy)
        assert len(chained) == len(shapes)
        for c, batch in enumerate(chained):
            alone, = run_rounds(p_dc[c:c + 1], rect, sched, link, adc, draws[c:c + 1],
                                energy=energy)
            self.assert_same(batch, alone, [field.name for field in fields(RoundBatch)])

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, rounds=st.integers(1, 3), k=st.integers(1, 4), rect=rects,
           shapes=shapes, drop=drops, latency_s=latencies, adc=adcs)
    def test_a_walk_without_energy_changes_nothing_else(self, seed, rounds, k, rect, shapes,
                                                        drop, latency_s, adc):
        # below wpt_s the lean walk steps only the training user's column
        link = ControlLinkModel(drop_probability=drop, latency_s=latency_s)
        p_dc, draws = chained_cells(seed, 2, rounds, k, shapes, link)
        full = run_rounds(p_dc, rect, FrameSchedule(), link, adc, draws)
        lean = run_rounds(p_dc, rect, FrameSchedule(), link, adc, draws, energy=False)
        for batch, ref in zip(lean, full, strict=True):
            assert batch.training_j is None and batch.wpt_j is None
            self.assert_same(batch, ref, [field.name for field in fields(RoundBatch)
                                          if field.name not in ("training_j", "wpt_j")])

    def test_a_fully_blanked_delivery_walks_every_user(self):
        # with no delivery left, each user's voltage carries into the next
        # frame, so the lean walk must step the passive users too
        sched = FrameSchedule(wpt_s=0.001)
        link = ControlLinkModel(latency_s=0.002)
        rect = RectennaConfig(settle_tau_s=0.05)
        rng = np.random.default_rng(1)
        p_dc = [check_powers(rng.exponential(1e-5, (2, 2, 2, m, n))) for m, n in [(2, 3), (1, 1)]]
        full = run_rounds(p_dc, rect, sched, link, None, [None, None])
        lean = run_rounds(p_dc, rect, sched, link, None, [None, None], energy=False)
        for batch, ref in zip(lean, full, strict=True):
            assert np.all(batch.voltage_v > 0.0)
            self.assert_same(batch, ref, ["samples", "voltage_v"])

    def test_the_default_sweep_equals_each_cell_alone(self, monkeypatch):
        # the protocol sweep's own inputs: 16 cells, seed 1, 2 users, 0.1 drop,
        # 2 ms latency and a 12-bit ADC, in its one engine call
        calls = []

        def spy(*args, **kwargs):
            calls.append((args, kwargs, run_rounds(*args, **kwargs)))
            return calls[-1][2]

        monkeypatch.setattr(experiments, "run_rounds", spy)
        cfg = ExperimentConfig(profile=PROFILE, grid=GRID, users=2, realizations=30, seed=1,
                               strategies=("joint",))
        link = ControlLinkModel(drop_probability=0.1, latency_s=0.002)
        _block_values(cfg, (FrameSchedule(), link, AdcModel(bits=12)), 0, 30)
        (args, kwargs, chained), = calls
        p_dc, rect, sched, link, adc, draws = args
        assert rect is cfg.rect
        assert len(chained) == 16
        for c, batch in enumerate(chained):
            alone, = run_rounds(p_dc[c:c + 1], rect, sched, link, adc, draws[c:c + 1],
                                **kwargs)
            self.assert_same(batch, alone, [field.name for field in fields(RoundBatch)])


class TestJointPickTies:
    # A walk picks every cell's pair in one pass over all cells' samples. A
    # coarse ADC ties many slots, and a dropped activation darkens whole
    # blocks (every sample 0 from rest); each tie goes to the lowest antenna,
    # then frequency, as select_pairs breaks it for that cell alone.
    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, runs=st.integers(1, 3), rounds=st.integers(1, 2), k=st.integers(1, 3),
           shapes=TestChainedWalk.shapes, latency_s=latencies,
           drop=st.sampled_from([0.0, 0.3, 1.0]),
           adc=st.sampled_from([None, AdcModel(bits=1, v_ref=0.4), AdcModel(bits=2, v_ref=0.6)]))
    def test_each_cell_picks_as_select_pairs(self, seed, runs, rounds, k, shapes, latency_s,
                                             drop, adc):
        rect = RectennaConfig()
        link = ControlLinkModel(drop_probability=drop, latency_s=latency_s)
        p_dc, draws = chained_cells(seed, runs, rounds, k, shapes, link)
        walk = run_rounds(p_dc, rect, FrameSchedule(), link, adc, draws, energy=False)
        for batch, (m, n) in zip(walk, shapes, strict=True):
            sampled_w = np.square(batch.samples) / rect.load_ohms
            pairs = select_pairs(check_powers(sampled_w.reshape(runs, rounds * k, m, n)), "joint")
            assert np.array_equal(batch.selected, np.stack(pairs, axis=-1))
            at = (pairs[0] * n + pairs[1])[..., None]
            assert np.array_equal(batch.selected_w, np.take_along_axis(sampled_w, at, -1)[..., 0])
            if drop == 1.0:  # the first frame of every run is dark throughout
                assert not batch.samples[:, 0].any() and not batch.selected[:, 0].any()


class TestDroppedActivation:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, k=st.integers(1, 3), rect=rects,
           dims=st.sampled_from([(1, 1), (2, 3), (3, 5), (4, 15)]),
           latency_s=st.sampled_from([0.0005, 0.002, 0.018, 0.02]),
           adc=st.sampled_from([None, AdcModel(bits=12)]))
    def test_is_a_zero_power_emission(self, seed, k, rect, dims, latency_s, adc):
        # With no delivery phase the first round's voltages carry into the
        # second, whose frames either lose every activation (and deliver the
        # feedback) or deliver every message at zero power: no RF reaches a
        # rectenna in either, so every receiver sees the same frames.
        sched = FrameSchedule(wpt_s=0.0)
        link = ControlLinkModel(drop_probability=0.5, latency_s=latency_s)
        runs, (m, n) = 4, dims
        rng = np.random.default_rng(seed)
        p_dc = check_powers(rng.exponential(1e-5, (runs, 2, k, m, n)))
        draws = np.ones((runs, 2 * k, m + 1))
        draws[:, :k] = rng.random((runs, k, m + 1))
        dropped = draws.copy()
        dropped[:, k:, :m] = 0.0
        silent = p_dc.copy()
        silent[:, 1] = 0.0
        idle, = run_rounds([p_dc], rect, sched, link, adc, [dropped])
        zero, = run_rounds([silent], rect, sched, link, adc, [draws])
        assert not idle.activated[:, k:].any() and zero.activated[:, k:].all()
        for name in ("samples", "selected", "training_j", "voltage_v"):
            assert np.array_equal(getattr(idle, name), getattr(zero, name)), name


class TestTdmaAgainstScalarWalk:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, k=st.integers(1, 4), rounds=st.integers(1, 3), drop=drops,
           latency_s=latencies, adc=adcs, rect=rects, table=st.booleans(),
           antenna_sweep=st.sampled_from([(1,), (2, 4), (3,)]),
           losses=st.lists(st.sampled_from([0.0, 3.0, 10.0]), min_size=4, max_size=4),
           data=st.data())
    def test_trace_equals_the_scalar_walk(self, seed, k, rounds, drop, latency_s, adc, rect,
                                          table, antenna_sweep, losses, data):
        # the trace may end partway through the last round, after 1..k of its frames
        frames = (rounds - 1) * k + data.draw(st.integers(1, k))
        if table:
            rect = RectennaConfig(curve=TABLE, load_ohms=rect.load_ohms,
                                  settle_tau_s=rect.settle_tau_s)
        cfg = ExperimentConfig(PROFILE, FrequencyGrid.ieee_plan() if table else GRID, rect=rect,
                               antenna_sweep=antenna_sweep, users=k, seed=seed,
                               user_loss_db=losses[:k])
        sched, link = FrameSchedule(), ControlLinkModel(drop_probability=drop,
                                                        latency_s=latency_s)
        res = run_tdma(cfg, frames, sched=sched, link=link, adc=adc)
        rows, _frames = oracle.run_tdma(cfg, frames, sched=sched, link=link, adc=adc)
        oracle.assert_same_trace(res, rows)


class TestSweepAgainstScalarWalk:
    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, users=st.integers(1, 3), drop=drops, latency_s=latencies, adc=adcs,
           rect=rects, realizations=st.integers(1, 3),
           antenna_sweep=st.sampled_from([(1,), (2, 4), (1, 3)]),
           frequency_sweep=st.sampled_from([(1,), (3, 15), (1, 5)]))
    def test_values_equal_the_scalar_walk(self, seed, users, drop, latency_s, adc, rect,
                                          realizations, antenna_sweep, frequency_sweep):
        cfg = ExperimentConfig(profile=PROFILE, grid=GRID, rect=rect, users=users,
                               realizations=realizations, seed=seed,
                               antenna_sweep=antenna_sweep, frequency_sweep=frequency_sweep,
                               strategies=("joint",))
        link = ControlLinkModel(drop_probability=drop, latency_s=latency_s)
        values = _block_values(cfg, (FrameSchedule(), link, adc), 0, realizations)
        ref_values = oracle.protocol_values(cfg, FrameSchedule(), link, adc)
        assert values.keys() == ref_values.keys()
        for key, arr in values.items():
            assert np.array_equal(arr, ref_values[key])
