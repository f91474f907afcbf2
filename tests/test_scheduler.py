import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wptdas import experiments, scheduler
from wptdas.channel import FrequencyGrid, LinkBudget, builtin_profile, sample_channel
from wptdas.errors import FeedbackCapacityError, ValidationError
from wptdas.experiments import ExperimentConfig
from wptdas.protocol import DEFAULT_ADC, ControlLinkModel, FrameSchedule, run_rounds
from wptdas.rectenna import RectennaConfig
from wptdas.rng import DOMAIN_TDMA, substream
from wptdas.scheduler import TRACE_COLUMNS, run_tdma
from wptdas.signal_chain import dc_power_matrix

import scalar_oracle as oracle
from scalar_oracle import _passive_harvest, select_one

PROFILE = builtin_profile("model-E-NLOS")
GRID = FrequencyGrid.uniform()
BUDGET = LinkBudget()


def config(users=1, seed=1, **kwargs):
    return ExperimentConfig(PROFILE, GRID, users=users, seed=seed, **kwargs)


def frames_trained(result, users):
    return [sum(r.active for r in result.rows if r.user_id == u) for u in range(1, users + 1)]


@pytest.fixture
def streams(monkeypatch):
    """The paths of every stream run_tdma opens."""
    opened = []

    def spy(*path):
        opened.append(path)
        return substream(*path)

    monkeypatch.setattr(scheduler, "substream", spy)
    return opened


class TestSingleUser:
    def test_rows_are_one_walk_over_the_drawn_rounds(self):
        frames = 10
        result = run_tdma(config(seed=1), frames)

        # replay the documented stream consumption by hand: one channel per
        # round, then one engine walk from rest over all ten rounds
        rng = substream(1, DOMAIN_TDMA)
        sched = FrameSchedule()
        p_dc = np.array([[dc_power_matrix(sample_channel(PROFILE, 4, rng), GRID, BUDGET,
                                          RectennaConfig().curve)] for _ in range(frames)])
        batch, = run_rounds([p_dc[None]], RectennaConfig(), sched, ControlLinkModel(),
                            DEFAULT_ADC, [None], frames)
        energy = 0.0
        for i, row in enumerate(result.rows):
            harvested = batch.training_j[0, i, 0] + batch.wpt_j[0, i, 0]
            energy += harvested
            assert row.p_dc_w == harvested / (sched.frame_us(60) * 1e-6)
            assert (row.antenna, row.frequency) == tuple((batch.applied[0, i] + 1).tolist())
            assert row.energy_j == energy
        assert len(result.rows) == frames

    def test_feedback_space_is_checked_before_the_first_draw(self, streams):
        # 5 x 15 pairs exceed the 6-bit feedback space
        with pytest.raises(FeedbackCapacityError):
            run_tdma(config(antenna_sweep=(5,)), 1)
        assert streams == []

    def test_antenna_count_sets_the_array(self):
        cfg = ExperimentConfig(PROFILE, FrequencyGrid.uniform(count=7), antenna_sweep=(1, 3),
                               frequency_sweep=(1,), seed=2)
        result = run_tdma(cfg, 2)
        assert all(1 <= r.antenna <= 3 and 1 <= r.frequency <= 7 for r in result.rows)
        ref, _frames = oracle.run_tdma(cfg, 2, adc=DEFAULT_ADC)
        assert result.rows == ref.rows

    def test_bad_frame_count_rejected(self, streams):
        for frames in (0, 2.5, True):
            with pytest.raises(ValidationError, match="frames"):
                run_tdma(config(), frames)
        assert streams == []

    def test_the_run_draws_from_its_own_stream(self, streams):
        run_tdma(config(seed=7), 3)
        assert streams == [(7, DOMAIN_TDMA)]


class TestTwoUsers:
    def test_identical_statistics_equal_long_run_average(self):
        result = run_tdma(config(users=2, seed=1), 300)
        avg1 = result.user_average_power_w(1)
        avg2 = result.user_average_power_w(2)
        assert abs(avg1 - avg2) / max(avg1, avg2) <= 0.05

    def test_average_of_an_unknown_user_is_a_key_error(self):
        result = run_tdma(config(seed=3), 2)
        with pytest.raises(KeyError, match="9"):
            result.user_average_power_w(9)

    def test_attenuated_user_harvests_less(self):
        result = run_tdma(config(users=2, seed=3, user_loss_db=(0.0, 20.0)), 20)
        assert result.user_average_power_w(2) < result.user_average_power_w(1)

    def test_each_user_trains_equally(self):
        result = run_tdma(config(users=2, seed=4), 6)
        assert frames_trained(result, 2) == [3, 3]

    def test_active_user_first_in_round_robin(self):
        result = run_tdma(config(users=2, seed=5), 4)
        active_by_frame = {r.frame: r.user_id for r in result.rows if r.active}
        assert active_by_frame == {0: 1, 1: 2, 2: 1, 3: 2}

    def test_applied_pair_maximizes_active_matrix_only(self):
        # the round draws user 1's channel, then user 2's, from the stream first
        rng = substream(6, DOMAIN_TDMA)
        ch1 = sample_channel(PROFILE, 4, rng)
        ch2 = sample_channel(PROFILE, 4, rng)
        fast = RectennaConfig(settle_tau_s=10e-6)
        result = run_tdma(config(users=2, seed=6, rect=fast), 2, adc=None)
        best1, best2 = (select_one(dc_power_matrix(ch, GRID, BUDGET, fast.curve), "joint")[:2]
                        for ch in (ch1, ch2))
        frame0 = [r for r in result.rows if r.frame == 0]
        frame1 = [r for r in result.rows if r.frame == 1]
        assert all((r.antenna, r.frequency) == best1 for r in frame0)
        assert all((r.antenna, r.frequency) == best2 for r in frame1)
        assert best1 != best2

    def test_energy_non_decreasing(self):
        result = run_tdma(config(users=2, seed=8), 10)
        for uid in (1, 2):
            series = [r.energy_j for r in result.rows if r.user_id == uid]
            assert series[0] >= 0.0
            assert all(a <= b for a, b in zip(series, series[1:]))

    def test_passive_harvest_positive_with_shared_emissions(self):
        result = run_tdma(config(users=2, seed=9), 2)
        passive_rows = [r for r in result.rows if not r.active]
        assert passive_rows and all(r.p_dc_w > 0.0 for r in passive_rows)

    def test_one_dc_matrix_call_per_block_of_rounds(self, monkeypatch):
        # 2 users and 9 frames are 5 rounds; 4 draws per block hold 2 rounds
        cfg = config(users=2, seed=12, user_loss_db=(0.0, 6.0))
        link = ControlLinkModel(drop_probability=0.3)
        whole = run_tdma(cfg, 9, link=link)
        calls = []
        real = experiments.dc_power_matrix

        def counted(ch, *args, **kwargs):
            calls.append(ch.gains.shape)
            return real(ch, *args, **kwargs)

        monkeypatch.setattr(experiments, "dc_power_matrix", counted)
        monkeypatch.setattr(experiments, "DC_BLOCK_DRAWS", 4)
        blocked = run_tdma(cfg, 9, link=link)
        assert calls == [(2, 2, 4, PROFILE.num_taps)] * 2 + [(1, 2, 4, PROFILE.num_taps)]
        assert blocked.rows == whole.rows

    def test_one_engine_walk_for_every_round(self, monkeypatch):
        # 3 users and 7 frames: two full rounds and one cut short
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return run_rounds(*args, **kwargs)

        monkeypatch.setattr(scheduler, "run_rounds", spy)
        result = run_tdma(config(users=3, seed=13), 7,
                          link=ControlLinkModel(drop_probability=0.3))
        assert len(calls) == 1
        assert frames_trained(result, 3) == [3, 2, 2]

    def test_three_users_round_robin(self):
        result = run_tdma(config(users=3, seed=10), 9)
        assert frames_trained(result, 3) == [3, 3, 3]


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
        batch, = run_rounds([p_dc[None, :, None]], rect, sched, link,
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
        result = run_tdma(config(users=2, seed=11), 2)
        buf = io.StringIO()
        result.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == TRACE_COLUMNS
        assert len(lines) == 1 + 2 * 2  # two users x two frames
        assert lines[1].startswith("0,1,1,")
