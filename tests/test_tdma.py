import io
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wptdas import experiments
from wptdas.channel import FrequencyGrid, LinkBudget, builtin_profile
from wptdas.errors import FeedbackCapacityError, ValidationError
from wptdas.experiments import (TRACE_COLUMNS, ExperimentConfig, _dc_tensor, dc_power_matrix,
                                run_tdma)
from wptdas.protocol import DEFAULT_ADC, ControlLinkModel, FrameSchedule, RoundBatch, run_rounds
from wptdas.rectenna import RectennaConfig
from wptdas.rng import DOMAIN_CHANNEL, DOMAIN_LINK
from wptdas.selection import select_pairs

import scalar_oracle as oracle
from scalar_oracle import (_passive_harvest, engine_frame, link_draws, sample_channel, select_one,
                           substream)

PROFILE = builtin_profile("model-E-NLOS")
GRID = FrequencyGrid.uniform()
BUDGET = LinkBudget()


def config(users=1, seed=1, **kwargs):
    return ExperimentConfig(PROFILE, GRID, users=users, seed=seed, **kwargs)


def csv_text(result) -> str:
    buf = io.StringIO()
    result.to_csv(buf)
    return buf.getvalue()


def active_users(result) -> dict:
    """{frame: user} of the trace rows whose active flag is set."""
    rows = [line.split(",") for line in csv_text(result).splitlines()[1:]]
    return {int(r[0]): int(r[1]) for r in rows if r[2] == "1"}


def frames_trained(result, users):
    trained = list(active_users(result).values())
    return [trained.count(u) for u in range(1, users + 1)]


@pytest.fixture
def streams(monkeypatch):
    """The paths of every batch of streams run_tdma keys."""
    keyed, real = [], experiments.substream_keys

    def spy(*path):
        keyed.append(path)
        return real(*path)

    monkeypatch.setattr(experiments, "substream_keys", spy)
    return keyed


class TestSingleUser:
    def test_rows_are_one_walk_over_the_drawn_rounds(self):
        frames = 10
        result = run_tdma(config(seed=1), frames)

        # replay the documented streams by hand: round r's channel from
        # realization r's stream, then one engine walk from rest over all ten rounds
        sched = FrameSchedule()
        p_dc = np.array([[dc_power_matrix(PROFILE,
                                          sample_channel(PROFILE, 4,
                                                         substream(1, DOMAIN_CHANNEL, r, 0)),
                                          GRID, BUDGET, RectennaConfig().curve)]
                         for r in range(frames)])
        batch, = run_rounds(p_dc[None], [np.arange(60).reshape(4, 15)], RectennaConfig(), sched,
                            ControlLinkModel(), DEFAULT_ADC, None)
        energy = 0.0
        for i in range(frames):
            harvested = batch.training_j[0, i, 0] + batch.wpt_j[0, i, 0]
            energy += harvested
            assert result.p_dc_w[i, 0] == harvested / (sched.frame_us(60) * 1e-6)
            assert (result.applied[i] == batch.applied[0, i] + 1).all()
            assert result.energy_j[i, 0] == energy
        assert result.p_dc_w.shape == result.energy_j.shape == (frames, 1)

    def test_feedback_space_is_checked_before_the_first_draw(self, streams):
        # 5 x 15 pairs exceed the 6-bit feedback space
        with pytest.raises(FeedbackCapacityError):
            run_tdma(config(antenna_sweep=(5,)), 1)
        assert streams == []

    def test_antenna_count_sets_the_array(self):
        cfg = ExperimentConfig(PROFILE, FrequencyGrid.uniform(count=7), antenna_sweep=(1, 3),
                               frequency_sweep=(1,), seed=2)
        result = run_tdma(cfg, 2)
        assert ((1 <= result.applied) & (result.applied <= [3, 7])).all()
        rows, _frames = oracle.run_tdma(cfg, 2, adc=DEFAULT_ADC)
        oracle.assert_same_trace(result, rows)

    def test_bad_frame_count_rejected(self, streams):
        for frames in (0, 2.5, True):
            with pytest.raises(ValidationError, match="frames"):
                run_tdma(config(), frames)
        assert streams == []

    def test_more_rounds_than_a_stream_word_indexes_rejected(self, streams):
        # 2**32 + 1 rounds of two users: round 2**32 has no 32-bit stream path word
        with pytest.raises(ValidationError, match="frames"):
            run_tdma(config(users=2), 2 ** 33 + 1)
        assert streams == []


class TestTwoUsers:
    def test_identical_statistics_equal_long_run_average(self):
        result = run_tdma(config(users=2, seed=1), 300)
        avg1 = result.user_average_power_w(1)
        avg2 = result.user_average_power_w(2)
        assert abs(avg1 - avg2) / max(avg1, avg2) <= 0.05

    def test_average_of_an_unknown_user_is_a_key_error(self):
        result = run_tdma(config(seed=3), 2)
        for user in (0, 9, 1.5, "1"):  # 0 must not read the last column
            with pytest.raises(KeyError, match=str(user)):
                result.user_average_power_w(user)
        assert result.user_average_power_w(1.0) == result.user_average_power_w(1)

    def test_attenuated_user_harvests_less(self):
        result = run_tdma(config(users=2, seed=3, user_loss_db=(0.0, 20.0)), 20)
        assert result.user_average_power_w(2) < result.user_average_power_w(1)

    def test_each_user_trains_equally(self):
        result = run_tdma(config(users=2, seed=4), 6)
        assert frames_trained(result, 2) == [3, 3]

    def test_active_user_first_in_round_robin(self):
        result = run_tdma(config(users=2, seed=5), 4)
        assert active_users(result) == {0: 1, 1: 2, 2: 1, 3: 2}
        frame_users = [line.split(",")[:2] for line in csv_text(result).splitlines()[1:]]
        assert frame_users == [["0", "1"], ["0", "2"], ["1", "2"], ["1", "1"],
                               ["2", "1"], ["2", "2"], ["3", "2"], ["3", "1"]]

    def test_applied_pair_maximizes_active_matrix_only(self):
        # round 0 draws user u's channel from realization 0's stream of u
        gains1, gains2 = (sample_channel(PROFILE, 4, substream(6, DOMAIN_CHANNEL, 0, u))
                          for u in (0, 1))
        fast = RectennaConfig(settle_tau_s=10e-6)
        result = run_tdma(config(users=2, seed=6, rect=fast), 2, adc=None)
        best1, best2 = (select_one(dc_power_matrix(PROFILE, gains, GRID, BUDGET, fast.curve),
                                   "joint")[:2] for gains in (gains1, gains2))
        assert [tuple(pair) for pair in result.applied.tolist()] == [best1, best2]
        assert best1 != best2

    def test_energy_non_decreasing(self):
        result = run_tdma(config(users=2, seed=8), 10)
        assert (result.energy_j[0] >= 0.0).all()
        assert (np.diff(result.energy_j, axis=0) >= 0.0).all()

    def test_passive_harvest_positive_with_shared_emissions(self):
        result = run_tdma(config(users=2, seed=9), 2)
        # user 2 is passive in frame 0, user 1 in frame 1
        assert result.p_dc_w[0, 1] > 0.0 and result.p_dc_w[1, 0] > 0.0

    def test_one_dc_matrix_call_per_block_of_rounds(self, monkeypatch):
        # 2 users and 9 frames are 5 rounds; 4 draws per block hold 2 rounds
        cfg = config(users=2, seed=12, user_loss_db=(0.0, 6.0))
        link = ControlLinkModel(drop_probability=0.3)
        whole = run_tdma(cfg, 9, link=link)
        calls = []
        real = experiments.dc_power_matrix

        def counted(profile, gains, *args, **kwargs):
            calls.append(gains.shape)
            return real(profile, gains, *args, **kwargs)

        monkeypatch.setattr(experiments, "dc_power_matrix", counted)
        monkeypatch.setattr(experiments, "DC_BLOCK_DRAWS", 4)
        blocked = run_tdma(cfg, 9, link=link)
        assert calls == [(2, 2, 4, PROFILE.num_taps)] * 2 + [(1, 2, 4, PROFILE.num_taps)]
        for name in ("applied", "p_dc_w", "energy_j"):
            assert (getattr(blocked, name) == getattr(whole, name)).all()

    def test_one_engine_walk_for_every_round(self, monkeypatch):
        # 3 users and 7 frames: the engine walks three whole rounds, and the
        # trace keeps their first 7 frames
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return run_rounds(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_rounds", spy)
        result = run_tdma(config(users=3, seed=13), 7,
                          link=ControlLinkModel(drop_probability=0.3))
        (p_dc, cells, *_, draws), = calls
        assert p_dc.shape == (1, 3, 3, 4, 15) and draws.shape == (1, 3, 15)
        assert len(cells) == 1 and np.array_equal(cells[0], np.arange(60).reshape(4, 15))
        assert frames_trained(result, 3) == [3, 2, 2]

    def test_three_users_round_robin(self):
        result = run_tdma(config(users=3, seed=10), 9)
        assert frames_trained(result, 3) == [3, 3, 3]


class TestStreamLayout:
    """Round r draws realization r's streams, as the sweeps and ``frame`` do."""

    def test_a_link_setting_moves_no_channel(self):
        # a drop probability that drops nothing still draws the link uniforms
        runs = [run_tdma(config(users=2, seed=1), 6, adc=None,
                         link=ControlLinkModel(drop_probability=drop)) for drop in (0.0, 1e-12)]
        for name in ("applied", "p_dc_w", "energy_j"):
            assert np.array_equal(getattr(runs[0], name), getattr(runs[1], name)), name

    @pytest.mark.parametrize("users", [1, 2, 3])
    @pytest.mark.parametrize("drop", [0.0, 0.3])
    def test_the_frame_command_runs_tdma_frame_0(self, users, drop):
        cfg = config(users=users, seed=4)
        link = ControlLinkModel(drop_probability=drop, latency_s=0.002)
        batch = engine_frame(_dc_tensor(cfg, 0, 1)[0, 0], cfg.rect, link=link,
                             rng=substream(cfg.seed, DOMAIN_LINK, 0), adc=DEFAULT_ADC)
        result = run_tdma(cfg, 1, link=link)
        assert (result.applied[0] == batch.applied[0, 0] + 1).all()
        assert result.energy_j[0, 0] == batch.training_j[0, 0, 0] + batch.wpt_j[0, 0, 0]
        # the walk's frame 0, and for the fields kept per user its user 1
        for name in (f.name for f in fields(RoundBatch)):
            walk = getattr(result.batch, name)[:, :1]
            if name in ("served_w", "training_j", "wpt_j", "voltage_v"):
                walk = walk[..., :1]
            assert np.array_equal(getattr(batch, name), walk), name

    @pytest.mark.parametrize("users", [1, 2, 3])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ideal_settings_serve_the_ideal_sweeps_joint_pick(self, users, seed):
        # a settled ADC-free receiver on a lossless, prompt link picks the
        # steady-state best pair; frame r K + j serves user j's at realization r
        rounds = 40
        cfg = config(users=users, seed=seed, rect=RectennaConfig(settle_tau_s=10e-6))
        result = run_tdma(cfg, rounds * users, adc=None)
        a, f = select_pairs(_dc_tensor(cfg, 0, rounds), "joint")  # (R, U) each
        assert np.array_equal(result.applied - 1, np.stack([a, f], axis=-1).reshape(-1, 2))


class TestPrefix:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), users=st.integers(1, 4), frames=st.integers(1, 9),
           drop=st.sampled_from([0.0, 0.3]), with_adc=st.booleans())
    def test_a_trace_is_the_head_of_every_longer_trace(self, seed, users, frames, drop,
                                                         with_adc):
        # the frames past the last one kept come last in the walk and draw
        # from their own rounds' streams, so they change no earlier frame
        kwargs = dict(link=ControlLinkModel(drop_probability=drop),
                      adc=DEFAULT_ADC if with_adc else None)
        short = run_tdma(config(users=users, seed=seed), frames, **kwargs)
        for longer in (-(-frames // users) * users, frames + users):
            long = run_tdma(config(users=users, seed=seed), longer, **kwargs)
            for name in ("applied", "p_dc_w", "energy_j"):
                assert np.array_equal(getattr(long, name)[:frames], getattr(short, name)), name


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
        p_dc = np.array([dc_power_matrix(PROFILE, sample_channel(PROFILE, 4, rng), GRID, BUDGET,
                                         rect.curve) for _ in range(rounds)])
        batch, = run_rounds(p_dc[None, :, None], [np.arange(60).reshape(4, 15)], rect, sched,
                            link, DEFAULT_ADC if with_adc else None,
                            link_draws(link, rng, (1, rounds, 5)))
        v = 0.0
        for f in range(rounds):
            frame = oracle.batch_frame(batch, 0, f, sched)
            e_train, e_wpt, p_served, v = _passive_harvest(rect, v, frame, p_dc[f], sched, link)
            assert (e_train, e_wpt) == (frame["training_j"], frame["wpt_j"])
            assert p_served == frame["applied_w"]
            assert v == frame["voltage_v"]


class TestTrace:
    def test_csv_columns(self):
        lines = csv_text(run_tdma(config(users=2, seed=11), 2)).splitlines()
        assert lines[0] == TRACE_COLUMNS
        assert len(lines) == 1 + 2 * 2  # two users x two frames
        assert lines[1].startswith("0,1,1,")

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), users=st.integers(1, 4),
           drop=st.sampled_from([0.0, 0.3, 1.0]), rounds=st.integers(0, 2), data=st.data())
    def test_csv_equals_the_scalar_rows(self, seed, users, drop, rounds, data):
        # with several users the trace ends partway through the last round
        frames = rounds * users + data.draw(st.integers(1, max(1, users - 1)))
        cfg = config(users=users, seed=seed, antenna_sweep=(2,),
                     user_loss_db=[3.0 * u for u in range(users)])
        link = ControlLinkModel(drop_probability=drop, latency_s=0.002)
        rows, _frames = oracle.run_tdma(cfg, frames, link=link, adc=DEFAULT_ADC)
        assert csv_text(run_tdma(cfg, frames, link=link)) == oracle.trace_csv(rows)
