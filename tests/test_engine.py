"""The batched frame protocol engine against the scalar walk, and the physics
both rest on.

``scalar_oracle`` walks one frame, one receiver and one slot at a time with
Python floats. The engine in :mod:`wptdas.protocol` walks every
(realization, user) row at once. Every comparison here is exact (``==``).
"""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracle as oracle
from wptdas.channel import FrequencyGrid, LinkBudget, builtin_profile, sample_channel
from wptdas.experiments import ExperimentConfig, _protocol_values, nested_frequency_indices
from wptdas.protocol import (AdcModel, ControlLinkModel, FrameSchedule, fallback_pair, run_frame,
                             run_rounds, write_events)
from wptdas.rectenna import RectennaConfig, segment_energy, settle, settling_energy
from wptdas.rng import substream
from wptdas.scheduler import UserState, run_tdma
from wptdas.selection import check_powers, select_pairs
from wptdas.signal_chain import dc_power_matrix

PROFILE = builtin_profile("model-E-NLOS")
GRID = FrequencyGrid.uniform()
BUDGET = LinkBudget()

seeds = st.integers(0, 2 ** 32 - 1)
drops = st.sampled_from([0.0, 0.3, 1.0])
# none, inside one slot, a few slots, past an antenna block (15 x 18 ms),
# past the whole training phase, past the delivery phase
latencies = st.sampled_from([0.0, 0.002, 0.05, 0.3, 1.2, 3.5])
adcs = st.sampled_from([None, AdcModel(bits=12), AdcModel(bits=1)])
rects = st.builds(RectennaConfig,
                  settle_tau_s=st.sampled_from([1e-5, 0.002, 0.009, 0.05]),
                  load_ohms=st.sampled_from([500.0, 10_000.0, 47_000.0]))


def csv_text(result) -> str:
    buf = io.StringIO()
    result.to_csv(buf)
    return buf.getvalue()


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
            assert (energy[i], end[i]) == settling_energy(x, vt, duration_s, cfg)

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

        whole, _ = settling_energy(v0, vt, d1 + d2, cfg)
        first, v_mid = settling_energy(v0, vt, d1, cfg)
        second, _ = settling_energy(v_mid, vt, d2, cfg)
        scale = max(magnitude(v0, d1 + d2), magnitude(v0, d1), magnitude(v_mid, d2))
        assert abs(first + second - whole) <= 32 * math.ulp(scale)

    @settings(max_examples=40, deadline=None)
    @given(v0=st.floats(0.0, 3.0), vt=st.floats(0.0, 3.0),
           duration_s=st.floats(1e-3, 0.2), ratio=st.floats(0.02, 50.0))
    def test_closed_form_matches_a_fine_grid_integral(self, v0, vt, duration_s, ratio):
        # Segments of at least 1 ms, up to 50 time constants long; shorter
        # segments wait for the cancellation fix of the closed form.
        cfg = RectennaConfig(settle_tau_s=duration_s / ratio)
        energy, v_end = settling_energy(v0, vt, duration_s, cfg)
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
    @given(seed=seeds, drop=drops, latency_s=latencies, adc=adcs, rect=rects,
           prior=st.one_of(st.none(), st.tuples(st.integers(1, 4), st.integers(1, 15))),
           v_initial=st.floats(0.0, 3.0), start_us=st.integers(0, 10 ** 9))
    def test_event_log_equals_the_scalar_walk(self, seed, drop, latency_s, adc, rect, prior,
                                              v_initial, start_us):
        p_dc = dc_power_matrix(sample_channel(PROFILE, 4, substream(seed, 0)), GRID, BUDGET,
                               rect.curve)
        sched = FrameSchedule()
        link = ControlLinkModel(drop_probability=drop, latency_s=latency_s)
        kwargs = dict(sched=sched, link=link, prior=prior, adc=adc, v_initial=v_initial)
        rng_a, rng_b = substream(seed, 1), substream(seed, 1)
        batch = run_frame(p_dc, rect, rng=rng_a, **kwargs)
        frame = oracle.batch_frame(batch, 0, 0, sched, start_us)
        ref = oracle.run_frame(p_dc, rect, rng=rng_b, start_us=start_us, **kwargs)
        # events, selected pair and value, applied pair and power, emissions,
        # both energies and the final voltage
        assert frame == ref
        assert events_text(frame["events"]) == events_text(ref["events"])
        assert rng_a.random() == rng_b.random()  # the same draws were consumed


class TestRoundLogsAgainstScalarWalk:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, rounds=st.integers(1, 3),
           user_rects=st.lists(rects, min_size=1, max_size=3),
           dims=st.sampled_from([(1, 1), (2, 3), (3, 5), (4, 15)]), drop=drops,
           latency_s=latencies, adc=adcs, data=st.data())
    def test_frame_logs_equal_the_scalar_walk(self, seed, rounds, user_rects, dims, drop,
                                              latency_s, adc, data):
        # One engine walk of B rounds of K frames against the scalar TDMA walk
        # of each round alone, from the same priors, voltages and link draws.
        m_total, n_total = dims
        k = len(user_rects)
        sched = FrameSchedule()
        link = ControlLinkModel(drop_probability=drop, latency_s=latency_s)
        p_dc = check_powers(np.random.default_rng(seed).exponential(
            1e-5, (rounds, k, m_total, n_total)))
        pairs = st.one_of(st.none(), st.tuples(st.integers(1, m_total), st.integers(1, n_total)))
        priors = data.draw(st.lists(st.lists(pairs, min_size=k, max_size=k),
                                    min_size=rounds, max_size=rounds))
        volts = data.draw(st.lists(st.lists(st.floats(0.0, 3.0), min_size=k, max_size=k),
                                   min_size=rounds, max_size=rounds))
        draws = [link.draws(substream(seed, b), (k, m_total + 1)) for b in range(rounds)]
        fallback = [[fallback_pair(p, m_total, n_total) for p in row] for row in priors]
        batch = run_rounds(p_dc, user_rects, sched, link, adc,
                           None if drop == 0.0 else np.stack(draws), volts, fallback, k)
        for b in range(rounds):
            group = [UserState(user_id=u + 1, rect=rect, prior=priors[b][u],
                               voltage_v=volts[b][u]) for u, rect in enumerate(user_rects)]
            _res, ref_frames = oracle.run_tdma(group, k, None, None, rng=substream(seed, b),
                                               sched=sched, link=link, adc=adc,
                                               keep_frames=True, p_dc=list(p_dc[b]))
            frame_us = sched.frame_us(m_total * n_total)
            frames = [oracle.batch_frame(batch, b, j, sched, j * frame_us) for j in range(k)]
            assert frames == ref_frames


class TestTdmaAgainstScalarWalk:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, users=st.lists(rects, min_size=1, max_size=3), drop=drops,
           latency_s=latencies, adc=adcs, frames=st.integers(1, 7),
           losses=st.lists(st.sampled_from([0.0, 3.0, 10.0]), min_size=3, max_size=3))
    def test_trace_equals_the_scalar_walk(self, seed, users, drop, latency_s, adc, frames,
                                          losses):
        link = ControlLinkModel(drop_probability=drop, latency_s=latency_s)

        def walk(run):
            group = [UserState(user_id=u + 1, rect=rect, extra_loss_db=losses[u])
                     for u, rect in enumerate(users)]
            rng = substream(seed, 2)
            res = run(group, frames, GRID, BUDGET, sched=FrameSchedule(), link=link, rng=rng,
                      profile=PROFILE, adc=adc)
            return res, [(u.energy_j, u.voltage_v, u.prior) for u in group], rng.random()

        res, state, after = walk(run_tdma)
        (ref, _frames), ref_state, ref_after = walk(oracle.run_tdma)
        assert res.rows == ref.rows
        assert csv_text(res) == csv_text(ref)
        assert state == ref_state
        assert after == ref_after


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
        values = _protocol_values(cfg, FrameSchedule(), link, adc)
        ref_values = oracle.protocol_values(cfg, FrameSchedule(), link, adc)
        assert values.keys() == ref_values.keys()
        for key, arr in values.items():
            assert np.array_equal(arr, ref_values[key])
