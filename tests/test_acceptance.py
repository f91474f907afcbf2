"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one line per
criterion; each test prints an ``ACCEPTANCE nn PASS`` line on success and
pytest reports any failure itself.
"""

import math
import time

import numpy as np
import pytest

from wptdas.channel import FrequencyGrid, builtin_profile, path_loss_db
from wptdas.cli import main
from wptdas.experiments import (
    SUM_USER,
    ExperimentConfig,
    _block_values,
    dc_power_matrix,
    power_budget_report,
    run_sweep,
    run_tdma,
)
from wptdas.protocol import (MESSAGE_SIZE_BYTES, ControlLinkModel, FrameSchedule, decode_feedback,
                             encode_feedback, frame_log)
from wptdas.rectenna import EfficiencyCurve, RectennaConfig
from wptdas.rng import DOMAIN_CHANNEL

from scalar_oracle import sample_channel, select_one, substream

MODEL_E = builtin_profile("model-E-NLOS")
FLAT = builtin_profile("single-tap-flat")
GRID15 = FrequencyGrid.uniform(count=15)


def _report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS - {text}")


def test_c01_power_budget_arithmetic():
    t0 = time.perf_counter()
    budget, _report_text = power_budget_report()  # defaults are the reference inputs
    assert budget.e_dc_j == pytest.approx(63.8e-6, abs=0.1e-6)
    assert budget.e_soc_j == pytest.approx(10.4e-6, abs=0.1e-6)
    assert budget.e_radio_j == pytest.approx(7.68e-6, abs=0.1e-6)
    assert budget.e_consumed_j == pytest.approx(18.1e-6, abs=0.1e-6)
    assert budget.e_net_j == pytest.approx(45.7e-6, abs=0.1e-6)
    assert budget.efficiency * 100 == pytest.approx(72.0, abs=1.0)
    assert time.perf_counter() - t0 < 1.0
    _report(1, "per-frame energy ledger reproduces the reference numbers")


def test_c02_link_budget_constant():
    t0 = time.perf_counter()
    assert path_loss_db(10.0, 2.4e9, 0.0, 0.0) == pytest.approx(60.046, abs=0.001)
    assert time.perf_counter() - t0 < 1.0
    _report(2, "free-space loss at 10 m / 2.4 GHz is 60.046 dB")


def test_c03_frame_timing():
    t0 = time.perf_counter()
    # one frame of one 4 x 15 receiver, drawn from stream (DOMAIN_CHANNEL, 0, 0) of seed 1
    batch = run_tdma(ExperimentConfig(MODEL_E, GRID15, seed=1), 1).batch
    log = frame_log(batch, 0, 0, FrameSchedule())
    kinds = [e.kind for e in log]
    assert kinds.count("SlotStart") == 60
    assert kinds.count("AdcSample") == 60
    assert log[kinds.index("WptPhaseStart")].t_us == 1_080_000
    assert FrameSchedule().frame_us(60) == 4_000_000
    assert log[-1].t_us == 4_000_000
    assert MESSAGE_SIZE_BYTES * kinds.count("MessageSent") == 5
    assert time.perf_counter() - t0 < 1.0
    _report(3, "60 slots, training 1.080000 s, frame end 4.000000 s, 5 bytes")


def test_c04_feedback_codec():
    t0 = time.perf_counter()
    codes = set()
    for m in range(1, 5):
        for n in range(1, 16):
            code = encode_feedback(m, n, (4, 15))
            assert 0 <= code < 64
            assert decode_feedback(code, (4, 15)) == (m, n)
            codes.add(code)
    assert len(codes) == 60
    assert time.perf_counter() - t0 < 1.0
    _report(4, "all 60 pairs roundtrip through distinct 6-bit codes")


def test_c05_monotone_selection_trends():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(profile=MODEL_E, grid=GRID15,
                           antenna_sweep=(1, 2, 3, 4),
                           frequency_sweep=(1, 3, 5, 15),
                           realizations=300, seed=1)
    res = run_sweep(cfg)
    by_n = [res.get(1, k, "joint").avg_pdc_w for k in (1, 3, 5, 15)]
    assert all(a <= b for a, b in zip(by_n, by_n[1:]))
    by_m = [res.get(m, 1, "joint").avg_pdc_w for m in (1, 2, 3, 4)]
    assert all(a <= b for a, b in zip(by_m, by_m[1:]))
    for m in (1, 2, 3, 4):
        for k in (1, 3, 5, 15):
            joint = res.get(m, k, "joint").avg_pdc_w
            antenna = res.get(m, k, "antenna_only").avg_pdc_w
            freq = res.get(m, k, "frequency_only").avg_pdc_w
            none = res.get(m, k, "none").avg_pdc_w
            assert joint >= antenna >= none
            assert joint >= freq >= none
    assert time.perf_counter() - t0 < 60.0
    _report(5, "average dc power monotone in nested sets; dominance in every cell")


def test_c06_order_statistics_oracle():
    t0 = time.perf_counter()
    # constant-efficiency curve keeps dc power proportional to RF power
    const_curve = EfficiencyCurve.from_table([-20.0], [2.44e9], [[0.25]])
    cfg = ExperimentConfig(profile=FLAT, grid=FrequencyGrid.uniform(count=1),
                           rect=RectennaConfig(curve=const_curve),
                           antenna_sweep=(1, 2, 4), frequency_sweep=(1,),
                           strategies=("none", "antenna_only"),
                           realizations=10_000, seed=123)
    res = run_sweep(cfg)
    for m, h_m in ((2, 1.5), (4, 25.0 / 12.0)):
        ratio = res.get(m, 1, "antenna_only").avg_pdc_w / res.get(m, 1, "none").avg_pdc_w
        assert ratio == pytest.approx(h_m, rel=0.03)
    assert time.perf_counter() - t0 < 60.0
    _report(6, "selection gain over M antennas matches harmonic numbers H_2, H_4")


def test_c07_two_pipeline_equivalence():
    t0 = time.perf_counter()
    fast = RectennaConfig(settle_tau_s=10e-6)
    cfg = ExperimentConfig(profile=MODEL_E, grid=GRID15, rect=fast,
                           antenna_sweep=(4,), frequency_sweep=(15,),
                           strategies=("joint",), realizations=100, seed=9)
    # one user: each realization's value is its served power, 0 + x divided by 1
    protocol = (FrameSchedule(), ControlLinkModel(), None)
    delivered = _block_values(cfg, protocol, 0, 100)[(4, 15, "joint")][:, 0]
    assert len(delivered) == 100
    for r, value in enumerate(delivered):
        gains = sample_channel(MODEL_E, 4, substream(9, DOMAIN_CHANNEL, r, 0))
        truth = dc_power_matrix(MODEL_E, gains, GRID15, cfg.budget, fast.curve)
        expected = select_one(truth, "joint")[2]
        assert value == expected
    assert time.perf_counter() - t0 < 60.0
    _report(7, "protocol delivery power equals the idealized joint optimum per realization")


def test_c08_two_user_symmetry_and_sum_gain():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(profile=MODEL_E, grid=GRID15, users=2,
                           realizations=300, seed=1)
    res = run_sweep(cfg)
    for m in (1, 2, 3, 4):
        for k in (1, 3, 5, 15):
            r1 = res.get(m, k, "joint", 1)
            r2 = res.get(m, k, "joint", 2)
            se = math.hypot(r1.stderr_w, r2.stderr_w)
            assert abs(r1.avg_pdc_w - r2.avg_pdc_w) <= 3.0 * se
            joint_sum = res.get(m, k, "joint", SUM_USER).avg_pdc_w
            for s in ("none", "frequency_only", "antenna_only"):
                assert joint_sum >= res.get(m, k, s, SUM_USER).avg_pdc_w
    assert time.perf_counter() - t0 < 60.0
    _report(8, "equal per-user averages within 3 SE; joint sum beats every baseline")


def test_c09_cli_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[experiment]\nrealizations = 20\nseed = 4\nusers = 2\nframes = 4\n")
    for sub in ("sweep", "frame", "tdma", "budget", "validate"):
        dirs = (tmp_path / f"{sub}_a", tmp_path / f"{sub}_b")
        stdouts = []
        for d in dirs:
            d.mkdir()
            assert main([sub, "--config", str(cfg), "--out", str(d)]) == 0
            stdouts.append(capsys.readouterr().out.replace(str(d), "<out>"))
        assert stdouts[0] == stdouts[1]
        files_a = sorted(p.name for p in dirs[0].iterdir())
        files_b = sorted(p.name for p in dirs[1].iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    assert time.perf_counter() - t0 < 60.0
    _report(9, "every subcommand reproduces byte-identical outputs under a fixed seed")


def test_c10_rayleigh_statistics():
    t0 = time.perf_counter()
    gains = sample_channel(FLAT, 100_000, substream(11))
    amp2 = np.abs(gains[:, 0]) ** 2
    assert abs(amp2.mean() - 1.0) <= 0.02
    tail = float(np.mean(amp2 > 1.0))
    assert abs(tail - math.exp(-1.0)) <= 0.02 * math.exp(-1.0)
    assert time.perf_counter() - t0 < 30.0
    _report(10, "unit-power fading: mean |h|^2 = 1 and P(|h|^2 > 1) = 1/e")
