"""The blocked dc tensor both sweeps read, against the one-realization-at-a-
time oracle, and the bound on its working memory.

``_dc_tensor`` draws (realization, user) channels in blocks and runs one
stacked ``dc_power_matrix`` call for all users of a block. Every entry must
equal, bit for bit, what a lone realization and user gives, whatever the
block boundaries or the range's start. The protocol sweep's cells are
slices of the same tensor, so under ideal protocol settings its values
equal the ideal sweep's joint values exactly.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracle as oracle
from wptdas.channel import (ChannelRealization, FrequencyGrid, LinkBudget, builtin_profile,
                            sample_channel)
from wptdas.errors import ValidationError
from wptdas.experiments import (DC_BLOCK_DRAWS, ExperimentConfig, _cell_values, _dc_tensor,
                                _protocol_values, _sweep_cells)
from wptdas.protocol import ControlLinkModel, FrameSchedule
from wptdas.rectenna import EfficiencyCurve, RectennaConfig, load_efficiency_table
from wptdas.rng import DOMAIN_CHANNEL, substream
from wptdas.signal_chain import dc_power_matrix

TABLE = load_efficiency_table(Path(__file__).resolve().parents[1] / "src" / "wptdas" / "data"
                              / "efficiency-table-sample.txt")
PROFILES = {name: builtin_profile(name) for name in ("model-E-NLOS", "single-tap-flat")}
GRIDS = {"uniform": FrequencyGrid.uniform(), "ieee": FrequencyGrid.ieee_plan()}
CURVES = {"parametric": EfficiencyCurve.parametric(), "table": TABLE}


def block(users: int) -> int:
    """Realizations per block."""
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
    """tracemalloc peak of one ``_dc_tensor`` call, less its output."""
    tracemalloc.start()
    try:
        out = _dc_tensor(cfg, 0, n_real)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - out.nbytes


@pytest.mark.parametrize("users", [1, 4])
def test_working_memory_does_not_grow_with_realizations(users):
    # The block bound keeps the temporaries at one block's worth (~0.3 MB
    # for 64 draws); stacking every realization at once would grow them
    # ~16x here. The slack covers allocator noise of a few hundred bytes.
    cfg = ExperimentConfig(PROFILES["model-E-NLOS"], GRIDS["uniform"], users=users)
    _dc_tensor(cfg, 0, 1)  # first-call caches are not working memory
    small = _working_bytes(cfg, 256)
    assert _working_bytes(cfg, 4096) <= small + 16 * 1024


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
    @pytest.mark.parametrize("users,losses", [(1, ()), (1, (3.0,)), (2, ()), (2, (0.0, 3.0))])
    def test_every_cell_is_exact(self, users, losses, grid, seed):
        # Fast settling, no ADC and a perfect control link: the protocol
        # selects and delivers each cell's steady-state joint optimum.
        cfg = ExperimentConfig(PROFILES["model-E-NLOS"], GRIDS[grid],
                               rect=RectennaConfig(settle_tau_s=10e-6), strategies=("joint",),
                               users=users, user_loss_db=losses, realizations=60, seed=seed)
        values = _protocol_values(cfg, FrameSchedule(), ControlLinkModel(), None)
        ideal = _cell_values(cfg, _dc_tensor(cfg, 0, cfg.realizations))
        assert len(values) == 16
        for (m, k), got in values.items():
            assert np.array_equal(got, ideal[(m, k, "joint")])
