"""The blocked dc tensor both sweeps read, against the one-realization-at-a-
time oracle, and the bound on its working memory.

``_dc_tensor`` draws every (realization, user) channel of its range in one
key pass and one fill, then rates them in chunks, one stacked
``dc_power_matrix`` call for all users of a chunk. Every entry must equal,
bit for bit, what a lone realization and user gives, whatever the chunk
boundaries or the range's start. A sweep block makes one key pass and one
fill per stream domain it draws. The protocol sweep's cells are
slices of the same tensor, and both sum a round's frames in frame order,
so under ideal protocol settings its values equal the ideal sweep's joint
values exactly at any user count. The ideal sweep's strategy
values, read off the tensor, must equal the one-cell-and-strategy-at-a-time
oracle's exactly, on tensors full of ties, in no more working memory than
the oracle's plus one tensor.
"""

import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracle as oracle
from wptdas import experiments
from wptdas.channel import (ChannelRealization, FrequencyGrid, LinkBudget, builtin_profile,
                            sample_channel)
from wptdas.errors import ValidationError
from wptdas.experiments import (DC_BLOCK_DRAWS, ExperimentConfig, _block_values, _cell_values,
                                _dc_tensor, _sweep_cells, run_protocol_experiment, run_sweep)
from wptdas.protocol import ControlLinkModel, FrameSchedule
from wptdas.rectenna import EfficiencyCurve, RectennaConfig, load_efficiency_table
from wptdas.rng import DOMAIN_CHANNEL, DOMAIN_LINK, substream
from wptdas.selection import STRATEGIES
from wptdas.signal_chain import dc_power_matrix

TABLE = load_efficiency_table(Path(__file__).resolve().parents[1] / "src" / "wptdas" / "data"
                              / "efficiency-table-sample.txt")
PROFILES = {name: builtin_profile(name) for name in ("model-E-NLOS", "single-tap-flat")}
GRIDS = {"uniform": FrequencyGrid.uniform(), "ieee": FrequencyGrid.ieee_plan()}
CURVES = {"parametric": EfficiencyCurve.parametric(), "table": TABLE}


def block(users: int) -> int:
    """Realizations per rate chunk."""
    return max(1, DC_BLOCK_DRAWS // users)


@st.composite
def tensor_cases(draw):
    users = draw(st.integers(1, 4))
    b = block(users)
    n_real = draw(st.sampled_from([1, b - 1, b, b + 1, 2 * b + 3]))
    r0 = draw(st.sampled_from([0, 1, b - 1, b + 2]))
    losses = draw(st.sampled_from([(), tuple(float(x) for x in range(0, 2 * users, 2))]))
    curve = draw(st.sampled_from([None, TABLE]))
    cfg = ExperimentConfig(
        PROFILES[draw(st.sampled_from(sorted(PROFILES)))],
        GRIDS[draw(st.sampled_from(sorted(GRIDS)))],
        rect=RectennaConfig() if curve is None else RectennaConfig(curve=curve),
        antenna_sweep=draw(st.sampled_from([(4,), (1, 3), (2,)])),
        users=users, seed=draw(st.integers(0, 2 ** 32 - 1)), user_loss_db=losses)
    return cfg, r0, r0 + n_real


class TestBlockedTensor:
    @settings(max_examples=60, deadline=None)
    @given(case=tensor_cases())
    def test_equals_the_per_realization_oracle(self, case):
        cfg, r0, r1 = case
        got = _dc_tensor(cfg, r0, r1)
        assert got.shape == (r1 - r0, cfg.users, cfg.max_antennas, cfg.grid.count)
        assert got.tobytes() == oracle.dc_tensor(cfg, r0, r1).tobytes()
        if r0 > 0:
            assert got.tobytes() == _dc_tensor(cfg, 0, r1)[r0:].tobytes()


def _working_bytes(cfg, n_real: int) -> int:
    """tracemalloc peak of one ``_dc_tensor`` call, less its output and the
    normals it draws (float64 pairs per realization, user, antenna and tap)."""
    tracemalloc.start()
    try:
        out = _dc_tensor(cfg, 0, n_real)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - out.nbytes - n_real * cfg.users * cfg.max_antennas * cfg.profile.num_taps * 16


@pytest.mark.parametrize("users", [1, 4])
def test_working_memory_does_not_grow_with_realizations(users):
    # A call holds its range's normals, which the sweep driver caps at
    # SWEEP_BLOCK realizations (TestSweepBlocks in test_experiments.py holds
    # the sweep to that). Beyond them, the rate chunks keep the temporaries
    # at one chunk's worth (~0.2 MB for 64 draws); rating every realization
    # at once, or keeping the stream keys through the rate pass, would grow
    # them with the range. The slack covers allocator noise of a few hundred bytes.
    cfg = ExperimentConfig(PROFILES["model-E-NLOS"], GRIDS["uniform"], users=users)
    _dc_tensor(cfg, 0, 1)  # first-call caches are not working memory
    small = _working_bytes(cfg, 256)
    assert _working_bytes(cfg, 4096) <= small + 16 * 1024


@st.composite
def tied_tensors(draw):
    """A config with sweeps and strategies in any order, and a dc tensor of
    small integers or of reals, whose sums depend on their order, all zeros,
    or constant along its antennas or frequencies."""
    users, count = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    antennas = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4, unique=True))
    cfg = ExperimentConfig(
        PROFILES["single-tap-flat"], FrequencyGrid.uniform(count=count),
        antenna_sweep=antennas,
        frequency_sweep=draw(st.lists(st.integers(1, count), min_size=1, max_size=4,
                                      unique=True)),
        strategies=draw(st.lists(st.sampled_from(STRATEGIES), min_size=1, max_size=4,
                                 unique=True)),
        users=users, realizations=draw(st.integers(1, 5)))
    shape = (cfg.realizations, users, max(antennas) + draw(st.integers(0, 1)), count)
    powers = st.floats(0.0, 1.0) if draw(st.booleans()) else st.integers(0, 3)
    dc = np.reshape(draw(st.lists(powers, min_size=math.prod(shape),
                                  max_size=math.prod(shape))), shape).astype(float)
    tie = draw(st.sampled_from(["none", "zeros", "antennas", "frequencies"]))
    if tie == "zeros":
        dc[...] = 0.0
    elif tie == "antennas":  # every antenna sees the same powers
        dc[...] = dc[:, :, :1]
    elif tie == "frequencies":
        dc[...] = dc[..., :1]
    return cfg, dc


class TestCellValues:
    @settings(max_examples=150, deadline=None)
    @given(case=tied_tensors())
    def test_equals_the_per_cell_oracle(self, case):
        cfg, dc = case
        got, ref = _cell_values(cfg, dc), oracle.cell_values(cfg, dc)
        assert list(got) == list(ref)
        for key, value in ref.items():
            assert np.array_equal(got[key], value), key

    @staticmethod
    def _working_bytes(cell_values, cfg, dc) -> int:
        """tracemalloc peak of one ``cell_values`` call, less its output."""
        tracemalloc.start()
        try:
            out = cell_values(cfg, dc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - sum(value.nbytes for value in out.values())

    @pytest.mark.parametrize("n_real,users", [(60, 4), (300, 1)])
    def test_working_memory_is_within_one_tensor_of_the_oracles(self, n_real, users):
        # The peak resident memory of a sweep must not grow: a cell may copy
        # out at most one tensor's worth more than the oracle's cell slices.
        cfg = ExperimentConfig(PROFILES["model-E-NLOS"], GRIDS["uniform"], users=users,
                               realizations=n_real)
        dc = np.random.default_rng(3).exponential(1e-5, (n_real, users, 4, 15))
        for cell_values in (_cell_values, oracle.cell_values):  # first-call caches
            cell_values(cfg, dc)
        assert (self._working_bytes(_cell_values, cfg, dc)
                <= self._working_bytes(oracle.cell_values, cfg, dc) + dc.nbytes)

    def test_working_memory_grows_linearly_with_the_user_count(self):
        # One gather per selecting user holds an (S, R, U) harvest at a time;
        # one (S, R, U, U) gather of every pair would about triple the
        # working memory from 16 to 32 users, as its share grows with U².
        work = []
        for users in (16, 32):
            cfg = ExperimentConfig(PROFILES["model-E-NLOS"], GRIDS["uniform"], users=users,
                                   realizations=256)
            dc = np.random.default_rng(3).exponential(1e-5, (256, users, 4, 15))
            _cell_values(cfg, dc)  # first-call caches
            work.append(self._working_bytes(_cell_values, cfg, dc))
        assert work[1] <= 2.25 * work[0]


class TestBlockStructure:
    # A sweep block keys all of its channel streams in one pass and draws them
    # in one fill; a protocol block does the same once more for its link
    # streams. The block then rates its draws in chunks of whole
    # realizations, max(1, DC_BLOCK_DRAWS // U) of them: with more users than
    # DC_BLOCK_DRAWS, each realization gets its own dc-power call.
    LOSSY = (FrameSchedule(), ControlLinkModel(drop_probability=0.1, latency_s=0.002), None)

    @pytest.mark.parametrize("pipeline", ["ideal", "protocol"])
    @pytest.mark.parametrize("users", [1, 2, 4, 100])
    def test_one_key_pass_and_one_fill_per_block(self, monkeypatch, pipeline, users):
        blocks = []

        def spy(name, label):
            func = getattr(experiments, name)

            def counted(*args):
                blocks[-1][1][(name, label(*args))] += 1
                return func(*args)

            monkeypatch.setattr(experiments, name, counted)

        spy("substream_keys", lambda seed, domain, *path: domain)
        spy("keyed_draws", lambda keys, method, out: method)
        spy("dc_power_matrix", lambda *args: None)
        block_values = experiments._block_values

        def spy_block(cfg, protocol, r0, r1):
            blocks.append((r1 - r0, Counter()))
            return block_values(cfg, protocol, r0, r1)

        monkeypatch.setattr(experiments, "_block_values", spy_block)  # not picklable: serial only
        monkeypatch.setattr(experiments, "SWEEP_BLOCK", 70)
        cfg = ExperimentConfig(PROFILES["model-E-NLOS"], GRIDS["uniform"], users=users,
                               realizations=200)
        if pipeline == "ideal":
            run_sweep(cfg)
        else:
            run_protocol_experiment(cfg, *self.LOSSY)
        assert [span for span, _calls in blocks] == [66, 67, 67]
        for span, calls in blocks:
            expected = Counter({("substream_keys", DOMAIN_CHANNEL): 1,
                                ("keyed_draws", "standard_normal"): 1,
                                ("dc_power_matrix", None):
                                    -(-span // max(1, DC_BLOCK_DRAWS // users))})
            if pipeline == "protocol":
                expected.update({("substream_keys", DOMAIN_LINK): 1, ("keyed_draws", "random"): 1})
            assert calls == expected


def _stacked_channel(users: int, n_real: int = 3, seed: int = 7) -> ChannelRealization:
    """A (n_real, users, 4 antennas, taps) stack of Model E channels."""
    gains = np.stack([[sample_channel(PROFILES["model-E-NLOS"], 4, substream(seed, r, u)).gains
                       for u in range(users)] for r in range(n_real)])
    return ChannelRealization(PROFILES["model-E-NLOS"].delays_s, gains)


class TestPerUserLosses:
    @pytest.mark.parametrize("curve", sorted(CURVES))
    @pytest.mark.parametrize("unequal", [False, True], ids=["equal", "unequal"])
    @pytest.mark.parametrize("users", [1, 2, 3, 4])
    def test_one_call_equals_the_per_user_calls(self, users, unequal, curve):
        ch = _stacked_channel(users)
        losses = [1.5 * u + 0.25 if unequal else 2.0 for u in range(users)]
        grid, budget, curve = GRIDS["ieee"], LinkBudget(), CURVES[curve]
        got = dc_power_matrix(ch, grid, budget, curve, losses)
        for u, loss in enumerate(losses):
            alone = dc_power_matrix(ChannelRealization(ch.delays_s, ch.gains[:, u]), grid,
                                    budget, curve, loss)
            assert got[:, u].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("losses", [[0.0], [0.0, 1.0, 2.0], []])
    def test_loss_count_must_match_the_user_axis(self, losses):
        ch = _stacked_channel(2)
        with pytest.raises(ValidationError):
            dc_power_matrix(ch, GRIDS["uniform"], LinkBudget(), CURVES["parametric"], losses)

    def test_a_lone_matrix_has_no_user_axis(self):
        lone = ChannelRealization(PROFILES["single-tap-flat"].delays_s, [[1.0 + 0j]])
        with pytest.raises(ValidationError):
            dc_power_matrix(lone, GRIDS["uniform"], LinkBudget(), CURVES["parametric"], [0.0])


class TestCellSlices:
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_a_slice_matches_the_cells_own_subgrid_matrix(self, grid):
        # A protocol cell reads its matrices as a slice of the full-grid tensor.
        # Computed on the cell's own antennas and frequencies instead, they
        # differ only by the matmul's summation order, in the last bits.
        cfg = ExperimentConfig(PROFILES["model-E-NLOS"], GRIDS[grid], users=2,
                               user_loss_db=(0.0, 3.0), realizations=5)
        dc = _dc_tensor(cfg, 0, cfg.realizations)
        for r in range(cfg.realizations):
            for u in range(cfg.users):
                ch = sample_channel(cfg.profile, cfg.max_antennas,
                                    substream(cfg.seed, DOMAIN_CHANNEL, r, u))
                for m, _k, cols in _sweep_cells(cfg):
                    subgrid = oracle.grid_from_frequencies(cfg.grid.frequencies_hz[cols])
                    own = dc_power_matrix(oracle.subset(ch, m), subgrid, cfg.budget,
                                          cfg.rect.curve, cfg.loss_for_user(u))
                    np.testing.assert_allclose(dc[r, u, :m][:, cols], own, rtol=1e-12, atol=0)


class TestIdealEqualsProtocol:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("users,losses", [
        (1, ()), (1, (3.0,)), (2, ()), (2, (0.0, 3.0)),
        (3, ()), (3, (0.0, 2.0, 4.0)), (4, ()), (4, (0.0, 2.0, 4.0, 6.0))])
    def test_every_cell_is_exact(self, users, losses, grid, seed):
        # Fast settling, no ADC and a perfect control link: the protocol
        # selects and delivers each cell's steady-state joint optimum.
        cfg = ExperimentConfig(PROFILES["model-E-NLOS"], GRIDS[grid],
                               rect=RectennaConfig(settle_tau_s=10e-6), strategies=("joint",),
                               users=users, user_loss_db=losses, realizations=60, seed=seed)
        values = _block_values(cfg, (FrameSchedule(), ControlLinkModel(), None), 0, 60)
        ideal = _cell_values(cfg, _dc_tensor(cfg, 0, cfg.realizations))
        assert len(values) == 16
        for key, got in values.items():
            assert np.array_equal(got, ideal[key])
