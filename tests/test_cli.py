import os
import subprocess
import sys
from pathlib import Path

import pytest

from wptdas import cli
from wptdas.cli import load_settings, main
from wptdas.experiments import _dc_tensor

TABLE = (Path(__file__).resolve().parents[1] / "src" / "wptdas" / "data"
         / "efficiency-table-sample.txt")
SWEEP_CONFIG = """\
[experiment]
realizations = 10
antenna_sweep = 1, 4
frequency_sweep = 1, 15
seed = 3
"""


def run(args, tmp_path, extra=()):
    return main([*args, "--out", str(tmp_path), *extra])


class TestBudget:
    def test_default_reproduces_reference_numbers(self, tmp_path, capsys):
        assert run(["budget"], tmp_path) == 0
        out = capsys.readouterr().out
        assert "63.780 uJ" in out
        assert "10.400 uJ" in out
        assert "7.680 uJ" in out
        assert "45.700 uJ" in out
        assert "71.7 %" in out
        assert (tmp_path / "budget.txt").exists()

    def test_byte_identical_reruns(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert run(["budget", "--quiet"], a_dir) == 0
        assert run(["budget", "--quiet"], b_dir) == 0
        assert (a_dir / "budget.txt").read_bytes() == (b_dir / "budget.txt").read_bytes()

    def test_bytes_are_the_frame_messages_of_the_largest_antenna_set(self, tmp_path, capsys):
        cfg = tmp_path / "two.ini"
        cfg.write_text("[experiment]\nantenna_sweep = 1, 2\n")
        assert run(["budget", "--config", str(cfg)], tmp_path) == 0
        budget = capsys.readouterr().out
        # two activations and the feedback: 24 bits at 250 kbps, 96 us at 48 mW
        assert "radio      4.608 uJ (3 B @ 250.0 kbps -> 0.096 ms" in budget
        assert budget in (tmp_path / "budget.txt").read_text()
        assert run(["frame", "--config", str(cfg), "--seed", "1"], tmp_path) == 0
        assert "; 3 control bytes" in capsys.readouterr().out


class TestFrame:
    def test_same_seed_identical_event_logs(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert run(["frame", "--seed", "1", "--quiet"], a_dir) == 0
        assert run(["frame", "--seed", "1", "--quiet"], b_dir) == 0
        a = (a_dir / "frame_events.csv").read_bytes()
        assert a == (b_dir / "frame_events.csv").read_bytes()
        assert b"FrameEnd" in a

    def test_different_seed_differs(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run(["frame", "--seed", "1", "--quiet"], a_dir)
        run(["frame", "--seed", "2", "--quiet"], b_dir)
        assert (a_dir / "frame_events.csv").read_bytes() != \
            (b_dir / "frame_events.csv").read_bytes()

    def test_summary_on_stdout(self, tmp_path, capsys):
        assert run(["frame", "--seed", "1"], tmp_path) == 0
        out = capsys.readouterr().out
        assert "selected antenna" in out
        assert "5 control bytes" in out

    def test_user_loss_applies_to_the_frame(self, tmp_path, monkeypatch):
        batches = []
        real = cli.run_frame

        def recorded(*args, **kwargs):
            batches.append(real(*args, **kwargs))
            return batches[-1]

        monkeypatch.setattr(cli, "run_frame", recorded)
        events = []
        for loss in (0, 10):
            cfg = tmp_path / f"loss{loss}.ini"
            cfg.write_text(f"[experiment]\nuser_loss_db = {loss}\n")
            out = tmp_path / str(loss)
            assert run(["frame", "--config", str(cfg), "--seed", "1", "--quiet"], out) == 0
            text = (out / "frame_events.csv").read_text()
            events.append([ln for ln in text.splitlines() if not ln.startswith("#")])
        assert events[0] != events[1]
        batch = batches[1]
        p_dc = _dc_tensor(load_settings(str(cfg), 1).experiment, 0, 1)[0, 0]
        assert batch.served_w[0, 0, 0] == p_dc[tuple(batch.applied[0, 0])]

    def test_adc_bits_beyond_a_float_fail_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "adc.ini"
        cfg.write_text("[adc]\nbits = 1024\n")
        assert run(["frame", "--config", str(cfg), "--quiet"], tmp_path) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command,pipeline", [("validate", "ideal"), ("frame", "ideal"),
                                                  ("tdma", "ideal"), ("sweep", "protocol")])
    def test_adc_step_below_a_normal_float_fails_cleanly(self, tmp_path, capsys, command,
                                                         pipeline):
        cfg = tmp_path / "adc.ini"
        cfg.write_text(f"[adc]\nvref = 1e-320\n\n[experiment]\npipeline = {pipeline}\n"
                       "realizations = 2\nframes = 2\n")
        assert run([command, "--config", str(cfg), "--quiet"], tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "v_ref" in err


class TestSweep:
    def test_row_count(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(SWEEP_CONFIG)
        assert run(["sweep", "--config", str(cfg), "--quiet"], tmp_path) == 0
        lines = (tmp_path / "sweep_results.csv").read_text().splitlines()
        data = [ln for ln in lines if ln and not ln.startswith("#")]
        # header + 2x2 cells x 4 strategies
        assert data[0].startswith("M,N,strategy,user")
        assert len(data) == 1 + 4 * 4

    def test_deterministic(self, tmp_path):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(SWEEP_CONFIG)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run(["sweep", "--config", str(cfg), "--quiet"], a_dir)
        run(["sweep", "--config", str(cfg), "--quiet"], b_dir)
        assert (a_dir / "sweep_results.csv").read_bytes() == \
            (b_dir / "sweep_results.csv").read_bytes()

    def test_seed_override_changes_results(self, tmp_path):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(SWEEP_CONFIG)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run(["sweep", "--config", str(cfg), "--quiet"], a_dir)
        run(["sweep", "--config", str(cfg), "--seed", "99", "--quiet"], b_dir)
        assert (a_dir / "sweep_results.csv").read_bytes() != \
            (b_dir / "sweep_results.csv").read_bytes()

    def test_protocol_pipeline(self, tmp_path):
        cfg = tmp_path / "proto.ini"
        cfg.write_text("[experiment]\npipeline = protocol\nrealizations = 3\n"
                       "antenna_sweep = 4\nfrequency_sweep = 15\nseed = 3\n")
        assert run(["sweep", "--config", str(cfg), "--quiet"], tmp_path) == 0
        text = (tmp_path / "sweep_results.csv").read_text()
        assert "# kind=protocol" in text


class TestTdma:
    def test_trace_written(self, tmp_path, capsys):
        cfg = tmp_path / "tdma.ini"
        cfg.write_text("[experiment]\nusers = 2\nframes = 4\nseed = 5\n")
        assert run(["tdma", "--config", str(cfg)], tmp_path) == 0
        lines = (tmp_path / "tdma_trace.csv").read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0] == "frame,user,active_flag,antenna,frequency,p_dc_watts,energy_joules"
        assert len(data) == 1 + 4 * 2
        said = capsys.readouterr().out.splitlines()
        for user in ("1", "2"):  # each total is the user's last trace row
            last = [ln.split(",") for ln in data[1:] if ln.split(",")[1] == user][-1]
            line, = [ln for ln in said if ln.startswith(f"user {user}: ")]
            assert line.endswith(f"total {float(last[-1]) * 1e6:.4g} uJ")


class TestValidate:
    def test_accepts_what_sweep_accepts(self, tmp_path, capsys):
        cfg = tmp_path / "ok.ini"
        cfg.write_text(SWEEP_CONFIG)
        assert run(["validate", "--config", str(cfg)], tmp_path) == 0
        assert "OK" in capsys.readouterr().out

    def test_rejects_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        for text in ("[experiment]\nrealisations = 10\n", "[consumption]\nbytes = 5\n"):
            cfg.write_text(text)
            assert run(["validate", "--config", str(cfg)], tmp_path) == 1
            assert "error" in capsys.readouterr().err

    def test_rejects_unknown_section(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[waveform]\npapr = 1\n")
        assert run(["validate", "--config", str(cfg)], tmp_path) == 1

    def test_rejects_bad_strategy(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[experiment]\nstrategies = beamforming\n")
        assert run(["validate", "--config", str(cfg)], tmp_path) == 1
        assert run(["sweep", "--config", str(cfg)], tmp_path) == 1

    def test_rejects_empty_strategies(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[experiment]\nstrategies =\n")
        assert run(["validate", "--config", str(cfg)], tmp_path) == 1
        assert "strategies" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    @pytest.mark.parametrize("line,field", [
        ("antenna_sweep = 2, 2, 1\nfrequency_sweep = 3, 3", "antenna_sweep"),
        ("frequency_sweep = 3, 1, 3", "frequency_sweep"),
        ("strategies = joint, none, joint", "strategies")])
    def test_rejects_a_repeated_sweep_entry(self, tmp_path, capsys, command, line, field):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[experiment]\n{line}\nrealizations = 2\n")
        assert run([command, "--config", str(cfg)], tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not any(tmp_path.glob("*.csv"))

    def test_rejects_oversized_frequency_subset(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[experiment]\nfrequency_sweep = 20\n")
        assert run(["validate", "--config", str(cfg)], tmp_path) == 1

    def test_rejects_candidate_set_beyond_feedback_space(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[experiment]\nantenna_sweep = 5\n")  # 5 x 15 = 75 > 64
        assert run(["validate", "--config", str(cfg)], tmp_path) == 1
        assert "feedback" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "sweep", "frame", "tdma", "budget"])
    @pytest.mark.parametrize("frames", ["0", "-3", "2.5"])
    def test_rejects_a_frame_count_below_one_in_every_command(self, tmp_path, capsys, command,
                                                              frames):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[experiment]\nframes = {frames}\nrealizations = 2\n")
        assert run([command, "--config", str(cfg)], tmp_path) == 1
        assert "frames" in capsys.readouterr().err
        assert not any(tmp_path.glob("*.csv")) and not any(tmp_path.glob("*.txt"))

    @pytest.mark.parametrize("row, value, field", [
        (1, "-inf", "power_axis_dbm"), (-1, "inf", "power_axis_dbm"),
        (0, "inf", "freq_axis_hz"), (0, "1e303", "freq_axis_hz")])  # 1e303 MHz is inf Hz
    def test_rejects_a_non_finite_table_axis(self, tmp_path, capsys, row, value, field):
        # a -inf first power row once validated, and an inf last row swept a flat curve
        lines = [ln for ln in TABLE.read_text().splitlines() if ln and not ln.startswith("#")]
        lines[row] = " ".join([value, *lines[row].split()[1:]])
        table = tmp_path / "eta.txt"
        table.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[rectenna]\ncurve = {table}\n")
        assert run(["validate", "--config", str(cfg)], tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err

    def test_missing_config_file(self, tmp_path, capsys):
        assert run(["validate", "--config", str(tmp_path / "nope.ini")], tmp_path) == 1
        assert "error" in capsys.readouterr().err

    def test_empty_config_ok(self, tmp_path):
        cfg = tmp_path / "empty.ini"
        cfg.write_text("")
        assert run(["validate", "--config", str(cfg)], tmp_path) == 0


class TestFlags:
    def test_unknown_flag_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["budget", "--frobnicate"])
        assert exc.value.code == 2

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        assert run(["budget", "--quiet"], tmp_path) == 0
        assert capsys.readouterr().out == ""

    def test_env_var_output_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("WPTDAS_OUT", str(tmp_path / "envout"))
        assert main(["budget", "--quiet"]) == 0
        assert (tmp_path / "envout" / "budget.txt").exists()

    def test_bad_seed_rejected(self, tmp_path, capsys):
        assert run(["budget", "--seed", "-4"], tmp_path) == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("pipeline", ["ideal", "protocol"])
    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, pipeline, jobs):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(SWEEP_CONFIG + f"pipeline = {pipeline}\n")
        assert run(["sweep", "--config", str(cfg), "--jobs", jobs], tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--jobs" in err
        assert not (tmp_path / "sweep_results.csv").exists()


def test_importing_the_cli_loads_no_process_pool(tmp_path):
    # neither the import nor a serial sweep run after it loads a pool
    config = tmp_path / "cfg.ini"
    config.write_text(SWEEP_CONFIG)
    code = ("import sys, wptdas.cli\n"
            "pool = {'concurrent.futures.process', 'multiprocessing'}\n"
            "print(sorted(pool & set(sys.modules)))\n"
            f"assert wptdas.cli.main(['sweep', '--config', {str(config)!r}, "
            f"'--out', {str(tmp_path)!r}, '--quiet']) == 0\n"
            "print(sorted(pool & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.splitlines() == ["[]", "[]"]
    assert (tmp_path / "sweep_results.csv").exists()
