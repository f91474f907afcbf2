import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wptdas import protocol, scheduler
from wptdas.channel import FrequencyGrid, LinkBudget, builtin_profile, sample_channel
from wptdas.errors import ValidationError
from wptdas.protocol import DEFAULT_ADC, ControlLinkModel, FrameSchedule, run_rounds
from wptdas.rectenna import RectennaConfig
from wptdas.rng import substream
from wptdas.scheduler import TRACE_COLUMNS, UserState, run_tdma
from wptdas.signal_chain import dc_power_matrix

import scalar_oracle as oracle
from scalar_oracle import _passive_harvest, select_one

PROFILE = builtin_profile("model-E-NLOS")
GRID = FrequencyGrid.uniform()
BUDGET = LinkBudget()


def make_users(k, **kwargs):
    return [UserState(user_id=u + 1, rect=RectennaConfig(), **kwargs) for u in range(k)]


def frames_trained(result, users):
    return [sum(r.active for r in result.rows if r.user_id == u.user_id) for u in users]


class TestSingleUser:
    def test_rows_are_one_walk_over_the_drawn_rounds(self):
        frames = 10
        users = make_users(1)
        result = run_tdma(users, frames, GRID, BUDGET, rng=substream(1),
                          profile=PROFILE)

        # replay the documented stream consumption by hand: one channel per
        # round, then one engine walk from rest over all ten rounds
        rng = substream(1)
        sched = FrameSchedule()
        p_dc = np.array([[dc_power_matrix(sample_channel(PROFILE, 4, rng), GRID, BUDGET,
                                          RectennaConfig().curve)] for _ in range(frames)])
        batch, = run_rounds([p_dc[None]], [RectennaConfig()], sched, ControlLinkModel(),
                            DEFAULT_ADC, [None], frames)
        energy = 0.0
        for i, row in enumerate(result.rows):
            harvested = batch.training_j[0, i, 0] + batch.wpt_j[0, i, 0]
            energy += harvested
            assert row.p_dc_w == harvested / (sched.frame_us(60) * 1e-6)
            assert (row.antenna, row.frequency) == tuple((batch.applied[0, i] + 1).tolist())
            assert row.energy_j == energy
        assert len(result.rows) == frames

    def test_antenna_count_is_checked_before_the_first_draw(self):
        # 5 x 15 pairs exceed the 6-bit feedback space
        for antennas in (0, -1, 2.5, True, "4", 5):
            rng = substream(0)
            with pytest.raises(ValidationError, match="antennas"):
                run_tdma(make_users(1), 1, GRID, BUDGET, PROFILE, rng, antennas=antennas)
            assert rng.random() == substream(0).random()

    def test_antenna_count_sets_the_array(self):
        users = make_users(1)
        result = run_tdma(users, 2, FrequencyGrid.uniform(count=7), BUDGET, PROFILE,
                          substream(2), antennas=3)
        assert all(1 <= r.antenna <= 3 and 1 <= r.frequency <= 7 for r in result.rows)
        ref_users = make_users(1)
        ref, _frames = oracle.run_tdma(ref_users, 2, FrequencyGrid.uniform(count=7), BUDGET,
                                     PROFILE, substream(2), adc=DEFAULT_ADC, antennas=3)
        assert result.rows == ref.rows

    def test_empty_users_rejected(self):
        with pytest.raises(ValidationError):
            run_tdma([], 1, GRID, BUDGET, rng=substream(0), profile=PROFILE)

    def test_bad_frame_count_rejected(self):
        for frames in (0, 2.5, True):
            rng = substream(0)
            with pytest.raises(ValidationError, match="frames"):
                run_tdma(make_users(1), frames, GRID, BUDGET, rng=rng, profile=PROFILE)
            assert rng.random() == substream(0).random()

    @pytest.mark.parametrize("drop", [0.0, 0.5, 1.0])
    def test_users_are_left_as_they_were(self, drop):
        users = make_users(2)
        before = [(u.user_id, u.rect, u.extra_loss_db) for u in users]
        run_tdma(users, 5, GRID, BUDGET, PROFILE, substream(0), link=ControlLinkModel(drop))
        assert [(u.user_id, u.rect, u.extra_loss_db) for u in users] == before


class TestUserState:
    @pytest.mark.parametrize("name, value", [
        ("extra_loss_db", math.nan), ("extra_loss_db", math.inf), ("extra_loss_db", "3"),
        ("extra_loss_db", None), ("extra_loss_db", True)])
    def test_fields_are_checked_when_built(self, name, value):
        with pytest.raises(ValidationError, match=name):
            UserState(user_id=1, **{name: value})

    def test_checked_fields_are_kept(self):
        u = UserState(user_id=1, extra_loss_db=-3)
        assert (u.user_id, u.rect, u.extra_loss_db) == (1, RectennaConfig(), -3)
        with pytest.raises(AttributeError):
            u.extra_loss_db = 20.0


class TestTwoUsers:
    def test_identical_statistics_equal_long_run_average(self):
        users = make_users(2)
        result = run_tdma(users, 300, GRID, BUDGET, rng=substream(1),
                          profile=PROFILE)
        avg1 = result.user_average_power_w(1)
        avg2 = result.user_average_power_w(2)
        assert abs(avg1 - avg2) / max(avg1, avg2) <= 0.05

    def test_average_of_an_unknown_user_is_a_key_error(self):
        result = run_tdma(make_users(1), 2, GRID, BUDGET, rng=substream(3), profile=PROFILE)
        with pytest.raises(KeyError, match="9"):
            result.user_average_power_w(9)

    def test_attenuated_user_harvests_less(self):
        users = [UserState(user_id=1), UserState(user_id=2, extra_loss_db=20.0)]
        result = run_tdma(users, 20, GRID, BUDGET, rng=substream(3),
                          profile=PROFILE)
        assert result.user_average_power_w(2) < result.user_average_power_w(1)

    def test_each_user_trains_equally(self):
        users = make_users(2)
        result = run_tdma(users, 6, GRID, BUDGET, rng=substream(4), profile=PROFILE)
        assert frames_trained(result, users) == [3, 3]

    def test_active_user_first_in_round_robin(self):
        users = make_users(2)
        result = run_tdma(users, 4, GRID, BUDGET, rng=substream(5),
                          profile=PROFILE)
        active_by_frame = {r.frame: r.user_id for r in result.rows if r.active}
        assert active_by_frame == {0: 1, 1: 2, 2: 1, 3: 2}

    def test_applied_pair_maximizes_active_matrix_only(self):
        # the round draws user 1's channel, then user 2's, from the stream first
        rng = substream(6)
        ch1 = sample_channel(PROFILE, 4, rng)
        ch2 = sample_channel(PROFILE, 4, rng)
        fast = RectennaConfig(settle_tau_s=10e-6)
        users = [UserState(user_id=1, rect=fast), UserState(user_id=2, rect=fast)]
        result = run_tdma(users, 2, GRID, BUDGET, PROFILE, substream(6), adc=None)
        best1, best2 = (select_one(dc_power_matrix(ch, GRID, BUDGET, fast.curve), "joint")[:2]
                        for ch in (ch1, ch2))
        frame0 = [r for r in result.rows if r.frame == 0]
        frame1 = [r for r in result.rows if r.frame == 1]
        assert all((r.antenna, r.frequency) == best1 for r in frame0)
        assert all((r.antenna, r.frequency) == best2 for r in frame1)
        assert best1 != best2

    def test_energy_non_decreasing(self):
        users = make_users(2)
        result = run_tdma(users, 10, GRID, BUDGET, rng=substream(8),
                          profile=PROFILE)
        for uid in (1, 2):
            series = [r.energy_j for r in result.rows if r.user_id == uid]
            assert series[0] >= 0.0
            assert all(a <= b for a, b in zip(series, series[1:]))

    def test_passive_harvest_positive_with_shared_emissions(self):
        users = make_users(2)
        result = run_tdma(users, 2, GRID, BUDGET, rng=substream(9),
                          profile=PROFILE)
        passive_rows = [r for r in result.rows if not r.active]
        assert passive_rows and all(r.p_dc_w > 0.0 for r in passive_rows)

    def test_one_dc_matrix_per_user_and_round(self, monkeypatch):
        calls = []
        real = scheduler.dc_power_matrix

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        for module in (scheduler, protocol):  # every module that may bind the kernel
            if hasattr(module, "dc_power_matrix"):
                monkeypatch.setattr(module, "dc_power_matrix", counted)
        users = make_users(2)
        run_tdma(users, 4, GRID, BUDGET, rng=substream(12), profile=PROFILE)
        assert len(calls) == 4  # 2 rounds x 2 users; each round's frames share them
        assert len({id(ch) for ch in calls}) == 4

    def test_one_engine_walk_for_every_round(self, monkeypatch):
        # 3 users and 7 frames: two full rounds and one cut short
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return run_rounds(*args, **kwargs)

        monkeypatch.setattr(scheduler, "run_rounds", spy)
        users = make_users(3)
        result = run_tdma(users, 7, GRID, BUDGET, PROFILE, substream(13),
                          link=ControlLinkModel(drop_probability=0.3))
        assert len(calls) == 1
        assert frames_trained(result, users) == [3, 2, 2]

    def test_three_users_round_robin(self):
        users = make_users(3)
        result = run_tdma(users, 9, GRID, BUDGET, rng=substream(10), profile=PROFILE)
        assert frames_trained(result, users) == [3, 3, 3]


class TestPassiveReplay:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           rounds=st.integers(1, 3),
           drop=st.sampled_from([0.0, 0.3, 1.0]),
           # none, inside one slot, a few slots, past an antenna block (15 x 18 ms),
           # past the whole training phase, past the delivery phase
           latency_s=st.sampled_from([0.0, 0.002, 0.05, 0.3, 1.2, 3.5]),
           with_adc=st.booleans())
    def test_replay_against_the_active_user_reproduces_its_frames(
            self, seed, rounds, drop, latency_s, with_adc):
        # one user over several rounds from rest: each frame, replayed from
        # the voltage the last one ended at, gives the engine's frame
        rng = substream(seed)
        rect = RectennaConfig()
        sched = FrameSchedule()
        link = ControlLinkModel(drop_probability=drop, latency_s=latency_s)
        p_dc = np.array([dc_power_matrix(sample_channel(PROFILE, 4, rng), GRID, BUDGET,
                                         rect.curve) for _ in range(rounds)])
        batch, = run_rounds([p_dc[None, :, None]], [rect], sched, link,
                            DEFAULT_ADC if with_adc else None,
                            [link.draws(rng, (1, rounds, 5))], rounds)
        v = 0.0
        for f in range(rounds):
            frame = oracle.batch_frame(batch, 0, f, sched)
            e_train, e_wpt, p_served, v = _passive_harvest(rect, v, frame, p_dc[f], sched, link)
            assert (e_train, e_wpt) == (frame["training_j"], frame["wpt_j"])
            assert p_served == frame["applied_w"]
            assert v == frame["voltage_v"]


class TestTrace:
    def test_csv_columns(self):
        users = make_users(2)
        result = run_tdma(users, 2, GRID, BUDGET, rng=substream(11),
                          profile=PROFILE)
        buf = io.StringIO()
        result.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == TRACE_COLUMNS
        assert len(lines) == 1 + 2 * 2  # two users x two frames
        assert lines[1].startswith("0,1,1,")
