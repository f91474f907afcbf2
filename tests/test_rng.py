"""Keyed sweep streams against numpy's SeedSequence and fresh substreams,
the batched result summary against per-series reductions, and the integer
checks of ExperimentConfig.

Everything is compared with ``==`` or ``tobytes()``. The suite runs with
warnings as errors, so the uint32 wraparound of the key hash must stay
silent.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wptdas import experiments
from wptdas.channel import FrequencyGrid, builtin_profile
from wptdas.errors import ValidationError
from wptdas.experiments import SUM_USER, ExperimentConfig, _dc_tensor, dc_power_matrix
from wptdas.protocol import ControlLinkModel
from wptdas.rng import DOMAIN_CHANNEL, DOMAIN_LINK, keyed_draws, substream_keys

from scalar_oracle import link_draws, sample_channel, substream

U32 = 2 ** 32 - 1
SEEDS = st.one_of(st.sampled_from([0, 1, U32, 2 ** 32, 2 ** 64 - 1]),
                  st.integers(0, 2 ** 64 - 1))
INDICES = st.one_of(st.sampled_from([0, 1, U32]), st.integers(0, U32))
MODEL_E = builtin_profile("model-E-NLOS")


def seed_sequence_key(seed, *path) -> np.ndarray:
    return np.random.SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64)


def index_arrays(shape):
    return st.lists(INDICES, min_size=math.prod(shape), max_size=math.prod(shape)).map(
        lambda xs: np.array(xs, dtype=np.int64).reshape(shape))


class TestSubstreamKeys:
    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, domain=st.integers(0, 2),
           path=st.lists(st.one_of(INDICES, st.integers(0, 2 ** 70)), max_size=3))
    def test_scalar_paths_equal_seed_sequence(self, seed, domain, path):
        keys = substream_keys(seed, domain, *path)
        assert keys.shape == (2,) and keys.dtype == np.uint64
        assert keys.tobytes() == seed_sequence_key(seed, domain, *path).tobytes()

    @given(seed=SEEDS)
    def test_no_path_equals_seed_sequence(self, seed):
        assert substream_keys(seed).tobytes() == seed_sequence_key(seed).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, domain=st.integers(0, 2), data=st.data(),
           n_real=st.integers(0, 5), users=st.integers(0, 4))
    def test_broadcast_arrays_equal_seed_sequence(self, seed, domain, data, n_real, users):
        real = data.draw(index_arrays((n_real, 1)))
        user = data.draw(index_arrays((users,)))
        keys = substream_keys(seed, domain, real, user)
        assert keys.shape == (n_real, users, 2)
        want = np.empty((n_real, users, 2), dtype=np.uint64)
        for i in range(n_real):
            for j in range(users):
                want[i, j] = seed_sequence_key(seed, domain, int(real[i, 0]), int(user[j]))
        assert keys.tobytes() == want.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS, data=st.data(), tail=INDICES)
    def test_scalar_words_after_an_array(self, seed, data, tail):
        real = data.draw(index_arrays((3,)))
        keys = substream_keys(seed, DOMAIN_LINK, real, tail)
        for i in range(3):
            assert (keys[i] == seed_sequence_key(seed, DOMAIN_LINK, int(real[i]), tail)).all()
        with pytest.raises(ValidationError):
            substream_keys(seed, DOMAIN_LINK, real, tail + 2 ** 32)

    def test_array_elements_outside_one_word_are_rejected(self):
        for bad in ([2 ** 32], [0, -1]):
            with pytest.raises(ValidationError):
                substream_keys(1, DOMAIN_CHANNEL, np.array(bad, dtype=np.int64))
        with pytest.raises(ValidationError):
            substream_keys(1, DOMAIN_CHANNEL, np.array([0.0, 1.0]))


class TestKeyedDraws:
    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, r0=st.sampled_from([0, 1, 63, U32 - 3]), n_real=st.integers(0, 3),
           users=st.integers(1, 3), antennas=st.integers(1, 4))
    def test_channel_draws_equal_fresh_substreams(self, seed, r0, n_real, users, antennas):
        cfg = ExperimentConfig(MODEL_E, FrequencyGrid.uniform(), antenna_sweep=(antennas,),
                               users=users, seed=seed)
        dc = _dc_tensor(cfg, r0, r0 + n_real)
        assert dc.shape == (n_real, users, antennas, cfg.grid.count)
        for i in range(n_real):
            for u in range(users):
                gains = sample_channel(MODEL_E, antennas,
                                       substream(seed, DOMAIN_CHANNEL, r0 + i, u))
                want = dc_power_matrix(MODEL_E, gains, cfg.grid, cfg.budget, cfg.rect.curve)
                assert dc[i, u].tobytes() == want.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, n_real=st.integers(1, 4), width=st.integers(1, 70),
           drop=st.sampled_from([0.1, 0.5, 1.0]))
    def test_link_uniforms_equal_fresh_substreams(self, seed, n_real, width, drop):
        keys = substream_keys(seed, DOMAIN_LINK, np.arange(n_real))
        got = keyed_draws(keys, "random", np.empty((n_real, width)))
        link = ControlLinkModel(drop_probability=drop)
        for r in range(n_real):
            want = link_draws(link, substream(seed, DOMAIN_LINK, r), width)
            assert got[r].tobytes() == want.tobytes()

    def test_each_row_starts_its_stream_afresh(self):
        # the same key twice gives the same row: nothing carries over
        keys = substream_keys(5, DOMAIN_CHANNEL, np.array([3, 3, 4]), 0)
        z = keyed_draws(keys, "standard_normal", np.empty((3, 7)))
        assert z[0].tobytes() == z[1].tobytes() != z[2].tobytes()
        assert z[2].tobytes() == substream(5, DOMAIN_CHANNEL, 4, 0).standard_normal(7).tobytes()


def per_series_rows(values: dict) -> list:
    """The summary one series at a time, as the sweeps once computed it."""
    def stderr(x):
        return 0.0 if x.size < 2 else float(np.std(x, ddof=1) / math.sqrt(x.size))

    rows = []
    for (m, k, s), arr in values.items():
        users = arr.shape[1]
        for u in range(users):
            rows.append((m, k, s, u + 1, float(arr[:, u].mean()), stderr(arr[:, u])))
        if users > 1:
            total = arr.sum(axis=1)
            rows.append((m, k, s, SUM_USER, float(total.mean()), stderr(total)))
    return rows


@pytest.mark.parametrize("n_real", [1, 2, 7, 8, 9, 127, 128, 129, 300])
# from 8 users on, the users' sum takes numpy's pairwise path
@pytest.mark.parametrize("users", [1, 2, 3, 4, 8, 9])
# one block, or uneven blocks of at most 7 realizations
@pytest.mark.parametrize("block", [1024, 7])
# one reduction chunk, or uneven chunks down to one series
@pytest.mark.parametrize("chunk", [2 ** 16, 100])
def test_summary_rows_equal_per_series_reduction(monkeypatch, n_real, users, block, chunk):
    rng = np.random.default_rng(n_real * 10 + users)
    values = {(m, k, s): rng.exponential(1e-5, (n_real, users)) * rng.uniform(0.5, 2.0)
              for m in (1, 4) for k in (1, 3, 15) for s in ("joint", "none")}

    def block_values(cfg, protocol, r0, r1):
        return {key: arr[r0:r1] for key, arr in values.items()}

    monkeypatch.setattr(experiments, "_block_values", block_values)  # serial only
    monkeypatch.setattr(experiments, "SWEEP_BLOCK", block)
    monkeypatch.setattr(experiments, "REDUCE_CHUNK", chunk)
    cfg = ExperimentConfig(MODEL_E, FrequencyGrid.uniform(), users=users, realizations=n_real)
    got = [(r.m, r.n, r.strategy, r.user, r.avg_pdc_w, r.stderr_w)
           for r in experiments._sweep_rows(cfg, None, 1)]
    assert got == per_series_rows(values)
    if n_real == 1:
        assert {row[5] for row in got} == {0.0}


class TestIntegerConfig:
    @pytest.mark.parametrize("field", ["seed", "users", "realizations"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, np.float64(3.0), "2", None])
    def test_counts_and_seed_must_be_integers(self, field, value):
        with pytest.raises(ValidationError):
            ExperimentConfig(MODEL_E, FrequencyGrid.uniform(), **{field: value})

    @pytest.mark.parametrize("sweep", [(1.7,), (1, 2.5), (True,), (float("nan"),), ("2",)])
    def test_sweep_entries_must_be_whole_numbers(self, sweep):
        for field in ("antenna_sweep", "frequency_sweep"):
            with pytest.raises(ValidationError):
                ExperimentConfig(MODEL_E, FrequencyGrid.uniform(), **{field: sweep})

    def test_whole_and_numpy_integers_are_accepted_as_ints(self):
        cfg = ExperimentConfig(MODEL_E, FrequencyGrid.uniform(), antenna_sweep=(1.0, np.int64(4)),
                               seed=np.uint64(7), users=np.int32(2))
        assert cfg.antenna_sweep == (1, 4) and type(cfg.antenna_sweep[1]) is int
        assert type(cfg.seed) is int and type(cfg.users) is int

    def test_default_fingerprint_is_unchanged(self):
        assert ExperimentConfig(MODEL_E, FrequencyGrid.uniform()).fingerprint() == "ea1af8e37eab7b14"
