import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wptdas.channel import FrequencyGrid, LinkBudget, builtin_profile, sample_channel
from wptdas.errors import ValidationError
from wptdas.protocol import DEFAULT_ADC, ControlLinkModel, FrameSchedule, run_frame
from wptdas.rectenna import RectennaConfig
from wptdas.rng import substream
from wptdas.scheduler import TRACE_COLUMNS, UserState, _passive_harvest, run_tdma
from wptdas.selection import CandidateMatrix, select_joint
from wptdas.signal_chain import dc_power_matrix

PROFILE = builtin_profile("model-E-NLOS")
GRID = FrequencyGrid.uniform()
BUDGET = LinkBudget()


def make_users(k, **kwargs):
    return [UserState(user_id=u + 1, rect=RectennaConfig(), **kwargs) for u in range(k)]


class TestSingleUser:
    def test_reduces_to_repeated_run_frame(self):
        frames = 10
        users = make_users(1)
        result = run_tdma(users, frames, GRID, BUDGET, rng=substream(1),
                          profile=PROFILE, num_antennas=4)

        # oracle: replay the documented stream consumption by hand
        rng = substream(1)
        sched = FrameSchedule()
        voltage, prior, energy = 0.0, None, 0.0
        for i in range(frames):
            ch = sample_channel(PROFILE, 4, rng)
            log, _ = run_frame(ch, GRID, BUDGET, RectennaConfig(), sched=sched,
                               rng=rng, prior=prior, start_us=i * sched.frame_us,
                               v_initial=voltage)
            voltage = log.final_voltage_v
            prior = (log.applied_antenna, log.applied_frequency)
            energy += log.harvested_energy_j
            row = result.rows[i]
            assert row.p_dc_w == log.harvested_energy_j / sched.frame_s
            assert (row.antenna, row.frequency) == (log.applied_antenna,
                                                    log.applied_frequency)
        assert users[0].energy_j == energy

    def test_needs_channel_or_profile(self):
        with pytest.raises(ValidationError):
            run_tdma(make_users(1), 1, GRID, BUDGET)

    def test_empty_users_rejected(self):
        with pytest.raises(ValidationError):
            run_tdma([], 1, GRID, BUDGET, rng=substream(0), profile=PROFILE)

    def test_bad_frame_count_rejected(self):
        with pytest.raises(ValidationError):
            run_tdma(make_users(1), 0, GRID, BUDGET, rng=substream(0), profile=PROFILE)


class TestTwoUsers:
    def test_identical_statistics_equal_long_run_average(self):
        users = make_users(2)
        result = run_tdma(users, 300, GRID, BUDGET, rng=substream(1),
                          profile=PROFILE, num_antennas=4)
        avg1 = result.user_average_power_w(1)
        avg2 = result.user_average_power_w(2)
        assert abs(avg1 - avg2) / max(avg1, avg2) <= 0.05

    def test_attenuated_user_harvests_less(self):
        users = make_users(2)
        users[1].extra_loss_db = 20.0
        result = run_tdma(users, 20, GRID, BUDGET, rng=substream(3),
                          profile=PROFILE, num_antennas=4)
        assert result.user_average_power_w(2) < result.user_average_power_w(1)

    def test_each_user_trains_equally(self):
        users = make_users(2)
        run_tdma(users, 6, GRID, BUDGET, rng=substream(4), profile=PROFILE,
                 num_antennas=4)
        assert [u.frames_trained for u in users] == [3, 3]

    def test_active_user_first_in_round_robin(self):
        users = make_users(2)
        result = run_tdma(users, 4, GRID, BUDGET, rng=substream(5),
                          profile=PROFILE, num_antennas=4)
        active_by_frame = {r.frame: r.user_id for r in result.rows if r.active}
        assert active_by_frame == {0: 1, 1: 2, 2: 1, 3: 2}

    def test_applied_pair_maximizes_active_matrix_only(self):
        rng = substream(6)
        ch1 = sample_channel(PROFILE, 4, rng)
        ch2 = sample_channel(PROFILE, 4, rng)
        fast = RectennaConfig(settle_tau_s=10e-6)
        users = [UserState(user_id=1, channel=ch1, rect=fast),
                 UserState(user_id=2, channel=ch2, rect=fast)]
        result = run_tdma(users, 2, GRID, BUDGET, rng=rng, adc=None)
        best1 = select_joint(CandidateMatrix.from_powers(
            dc_power_matrix(ch1, GRID, BUDGET, fast.curve)))
        best2 = select_joint(CandidateMatrix.from_powers(
            dc_power_matrix(ch2, GRID, BUDGET, fast.curve)))
        frame0 = [r for r in result.rows if r.frame == 0]
        frame1 = [r for r in result.rows if r.frame == 1]
        assert all((r.antenna, r.frequency) == (best1.antenna, best1.frequency)
                   for r in frame0)
        assert all((r.antenna, r.frequency) == (best2.antenna, best2.frequency)
                   for r in frame1)
        assert (best1.antenna, best1.frequency) != (best2.antenna, best2.frequency)

    def test_sum_power_is_additive(self):
        users = make_users(2)
        result = run_tdma(users, 4, GRID, BUDGET, rng=substream(7),
                          profile=PROFILE, num_antennas=4)
        sums = result.sum_power_per_frame_w()
        for i in range(4):
            manual = sum(r.p_dc_w for r in result.rows if r.frame == i)
            assert sums[i] == pytest.approx(manual, rel=1e-12)

    def test_energy_non_decreasing(self):
        users = make_users(2)
        result = run_tdma(users, 10, GRID, BUDGET, rng=substream(8),
                          profile=PROFILE, num_antennas=4)
        for uid in (1, 2):
            series = [r.energy_j for r in result.rows if r.user_id == uid]
            assert all(a <= b for a, b in zip(series, series[1:]))
        for u in users:
            assert u.energy_j >= 0.0

    def test_passive_harvest_positive_with_shared_emissions(self):
        users = make_users(2)
        result = run_tdma(users, 2, GRID, BUDGET, rng=substream(9),
                          profile=PROFILE, num_antennas=4)
        passive_rows = [r for r in result.rows if not r.active]
        assert passive_rows and all(r.p_dc_w > 0.0 for r in passive_rows)

    def test_three_users_round_robin(self):
        users = make_users(3)
        run_tdma(users, 9, GRID, BUDGET, rng=substream(10), profile=PROFILE,
                 num_antennas=4)
        assert [u.frames_trained for u in users] == [3, 3, 3]


class TestPassiveReplay:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           drop=st.sampled_from([0.0, 0.3, 1.0]),
           # none, inside one slot, a few slots, past an antenna block (15 x 18 ms),
           # past the whole training phase, past the delivery phase
           latency_s=st.sampled_from([0.0, 0.002, 0.05, 0.3, 1.2, 3.5]),
           with_adc=st.booleans(),
           v_initial=st.floats(0.0, 3.0))
    def test_replay_against_the_active_user_reproduces_its_frame(
            self, seed, drop, latency_s, with_adc, v_initial):
        rng = substream(seed)
        ch = sample_channel(PROFILE, 4, rng)
        rect = RectennaConfig()
        sched = FrameSchedule()
        link = ControlLinkModel(drop_probability=drop, latency_s=latency_s)
        log, _ = run_frame(ch, GRID, BUDGET, rect, sched=sched, link=link, rng=rng,
                           adc=DEFAULT_ADC if with_adc else None, v_initial=v_initial)
        twin = UserState(user_id=2, channel=ch, rect=rect, voltage_v=v_initial)
        energy, p_served = _passive_harvest(twin, log, GRID, BUDGET, sched, link)
        assert energy == log.harvested_energy_j
        assert p_served == log.applied_power_w
        assert twin.voltage_v == log.final_voltage_v


class TestTrace:
    def test_csv_columns(self):
        users = make_users(2)
        result = run_tdma(users, 2, GRID, BUDGET, rng=substream(11),
                          profile=PROFILE, num_antennas=4)
        buf = io.StringIO()
        result.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == TRACE_COLUMNS
        assert len(lines) == 1 + 2 * 2  # two users x two frames
        assert lines[1].startswith("0,1,1,")
