"""The ideal sweep's blocked dc tensor against the one-realization-at-a-time
oracle, and the bound on its working memory.

``_dc_tensor`` draws (realization, user) channels in blocks and runs one
stacked ``dc_power_matrix`` per user and block. Every entry must equal, bit
for bit, what a lone realization gives, whatever the block boundaries or
the range's start.
"""

import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracle as oracle
from wptdas.channel import FrequencyGrid, builtin_profile
from wptdas.experiments import DC_BLOCK_DRAWS, ExperimentConfig, _dc_tensor
from wptdas.rectenna import RectennaConfig, load_efficiency_table

TABLE = load_efficiency_table(Path(__file__).resolve().parents[1] / "src" / "wptdas" / "data"
                              / "efficiency-table-sample.txt")
PROFILES = {name: builtin_profile(name) for name in ("model-E-NLOS", "single-tap-flat")}
GRIDS = {"uniform": FrequencyGrid.uniform(), "ieee": FrequencyGrid.ieee_plan()}


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
