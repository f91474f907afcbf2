"""Tests of the benchmark itself: its output check and its tracing.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import worker
from check import check_csv, data_lines, reference_path
from tracing import Tracer, per_layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = Path(worker.BENCH_DIR)
ROOT = BENCH_DIR.parent
SMALL_R = 3


def reference_text(name):
    return reference_path(WORKLOADS[name]).read_text(encoding="utf-8")


def edit_row(text, key, column, value):
    """Set ``column`` of the row whose first four fields are ``key``."""
    out = []
    for ln in text.splitlines():
        f = ln.split(",")
        if f[:4] == [str(k) for k in key]:
            f[column] = value
        out.append(",".join(f))
    return "\n".join(out) + "\n"


def problems(name, text, with_reference=False):
    w = WORKLOADS[name]
    ref = data_lines(reference_text(name)) if with_reference else None
    return check_csv(text, w, w.realizations, DEFAULT_SEED, ref)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_passes_its_own_check(name):
    assert problems(name, reference_text(name), with_reference=True) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_perturbed_row_is_rejected(name):
    lines = reference_text(name).splitlines()
    f = lines[len(lines) // 2].split(",")
    f[4] = repr(float(f[4]) * (1 + 1e-7))
    lines[len(lines) // 2] = ",".join(f)
    found = problems(name, "\n".join(lines) + "\n", with_reference=True)
    assert any("reference" in p for p in found)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_missing_or_invalid_rows_are_rejected(name):
    lines = reference_text(name).splitlines()
    assert problems(name, "\n".join(lines[:-1]) + "\n")
    key = lines[1].split(",")[:4]
    for bad in ("-1e-06", "nan", "inf"):
        assert problems(name, edit_row(reference_text(name), key, 4, bad))


def test_dominance_and_monotone_trend_are_checked():
    text = reference_text("ideal-1u")
    none = next(ln for ln in text.splitlines() if ln.startswith("4,15,none,1,"))
    swapped = edit_row(text, (4, 15, "joint", 1), 4, none.split(",")[4])
    assert any("dominance" in p for p in problems("ideal-1u", swapped))
    low = edit_row(text, (4, 15, "joint", 1), 4, "1e-12")
    assert any("monotone" in p for p in problems("ideal-1u", low))


def test_degenerate_cells_and_user_sums_are_checked():
    text = reference_text("ideal-4u-table")
    bumped = edit_row(text, (1, 5, "antenna_only", 3), 4, "1e-06")
    assert any("antenna_only != none" in p for p in problems("ideal-4u-table", bumped))
    text = reference_text("protocol-2u-lossy")
    row = next(ln for ln in text.splitlines() if ln.startswith("2,3,joint,1,"))
    bumped = edit_row(text, (2, 3, "joint", 1), 4, repr(float(row.split(",")[4]) * 1.01))
    assert any("user-sum" in p for p in problems("protocol-2u-lossy", bumped))


def traced_run(name, tmp_path):
    """One untraced and one traced sweep at a small size."""
    w = WORKLOADS[name]
    tmp_path.mkdir(parents=True, exist_ok=True)
    ini = tmp_path / "w.ini"
    ini.write_text(w.ini(str(ROOT), SMALL_R), encoding="utf-8")
    return worker.measure({"workload": name, "ini": str(ini), "seed": 7, "seconds": 0,
                           "trace": 1, "realizations": SMALL_R, "out": str(tmp_path)})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly(name, tmp_path):
    runs = [traced_run(name, tmp_path / str(i)) for i in range(2)]
    for res in runs:
        # the untraced and the traced sweep wrote identical CSVs
        assert res["failed"] == 0, res["errors"]
    first, second = (worker._counts(res["layers"][0]) for res in runs)
    assert first == second
    reported = {n for n, _u, _b in per_layer_metrics()} - {"trace.overhead_ratio"}
    assert set(runs[0]["layers"][0]) == reported


def test_counts_match_the_sweep_shape(tmp_path):
    r = SMALL_R
    one = traced_run("ideal-1u", tmp_path / "a")["layers"][0]
    assert one["selection.from_powers.calls"] == r * 16 * 4
    assert one["selection.select.calls"] == r * 16 * 4
    assert one["channel.sample_channel.calls"] == r
    assert one["rng.substream.calls"] == r
    assert one["signal_chain.useful_pairs_ratio"] == 1.0
    for span in ("rectenna.settling_energy", "protocol.adc_quantize",
                 "protocol.run_frame", "scheduler.run_tdma"):
        assert one[f"{span}.calls"] == 0
    four = traced_run("ideal-4u-table", tmp_path / "b")["layers"][0]
    assert four["selection.from_powers.calls"] == r * 16 * 4 * 4
    assert four["scheduler.run_tdma.calls"] == 0
    two = traced_run("protocol-2u-lossy", tmp_path / "c")["layers"][0]
    assert two["signal_chain.useful_pairs_ratio"] == 0.125
    assert two["protocol.run_frame.calls"] == r * 16 * 2
    assert two["scheduler.run_tdma.calls"] == r * 16
    assert two["channel.sample_channel.calls"] == r * 2
    assert two["rng.substream.calls"] == r * 3
    assert 0 < two["protocol.link_delivered_ratio"] < 1


def test_tracer_restores_every_name():
    cli = worker.import_cli()
    from wptdas import experiments, selection

    before = (experiments.dc_power_matrix, cli.load_settings,
              selection.CandidateMatrix.__dict__["from_powers"])
    tracer = Tracer()
    tracer.install()
    assert experiments.dc_power_matrix is not before[0]
    tracer.uninstall()
    after = (experiments.dc_power_matrix, cli.load_settings,
             selection.CandidateMatrix.__dict__["from_powers"])
    assert all(a is b for a, b in zip(before, after))


def test_missing_names_are_absent_not_errors():
    tracer = Tracer()
    tracer.install([types.ModuleType("empty")])
    tracer.uninstall()
    assert set(tracer.snapshot(useful_entries=60).values()) == {None}


def traced_stub_frames(*results):
    """Snapshot after a stub ``run_frame`` returned each of ``results``."""
    stub = types.ModuleType("stub")
    pending = list(results)
    stub.run_frame = lambda: pending.pop(0)
    tracer = Tracer()
    tracer.install([stub])
    for _ in results:
        stub.run_frame()
    tracer.uninstall()
    return tracer.snapshot(useful_entries=60)


def stub_frame(kinds, applied, chosen):
    ns = types.SimpleNamespace
    log = ns(events=[ns(kind=k) for k in kinds],
             applied_antenna=applied[0], applied_frequency=applied[1])
    return log, ns(antenna=chosen[0], frequency=chosen[1])


def test_frame_counts_are_read_from_the_returned_log():
    snap = traced_stub_frames(
        stub_frame(["MessageSent", "MessageSent", "MessageDropped"], (1, 2), (1, 2)),
        stub_frame(["MessageSent", "MessageDropped"], (0, 0), (3, 4)))
    assert snap["protocol.run_frame.calls"] == 2
    assert snap["protocol.link_delivered_ratio"] == 1 / 3
    assert snap["protocol.feedback_fallback"] == 1


def test_frame_counts_are_absent_when_the_log_lacks_fields():
    good = stub_frame(["MessageSent"], (1, 2), (1, 2))
    for results in ([(object(), object())], [good, ("no log",)]):
        snap = traced_stub_frames(*results)
        assert snap["protocol.run_frame.calls"] == len(results)
        assert snap["protocol.link_delivered_ratio"] is None
        assert snap["protocol.feedback_fallback"] is None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    if (ROOT / "BENCHMARK.json").exists():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ideal-1u",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(ln.startswith("{") for ln in proc.stdout.splitlines())


def test_per_layer_metrics_match_benchmark_json():
    names = [n for n, _u, _b in per_layer_metrics()]
    assert len(names) == len(set(names))
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in config["per_layer"]] == names
