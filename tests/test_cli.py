import configparser
import math
import os
import statistics
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from wptdas import cli
from wptdas.cli import load_settings, main
from wptdas.experiments import _block_values, _dc_tensor

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

    def test_a_steep_rise_saturates_without_a_warning(self, tmp_path):
        # the logistic's exp overflows for a steep rise; the warning is an error here
        cfg = tmp_path / "steep.ini"
        cfg.write_text(SWEEP_CONFIG + "\n[rectenna]\nrise_slope = 4000\n")
        assert run(["sweep", "--config", str(cfg), "--quiet"], tmp_path) == 0
        assert len((tmp_path / "sweep_results.csv").read_text().splitlines()) == 5 + 4 * 4

    def test_huge_finite_powers_give_finite_standard_errors(self, tmp_path):
        # np.std once squared these powers past the float range and wrote inf
        # in every stderr cell; the overflow warning is an error here
        cfg = tmp_path / "huge.ini"
        cfg.write_text(f"[channel]\ntx_power_dbm = 3000\npath_loss_db = 0\n\n"
                       f"[rectenna]\ncurve = {TABLE}\n\n[experiment]\nrealizations = 4\n")
        assert run(["sweep", "--config", str(cfg), "--quiet"], tmp_path) == 0
        rows = [ln.split(",") for ln in (tmp_path / "sweep_results.csv").read_text().splitlines()
                if ln[:1].isdigit()]
        assert len(rows) == 64
        values = _block_values(load_settings(str(cfg)).experiment, None, 0, 4)
        for m, n, strategy, _user, mean, stderr, _r, _seed in rows:
            series = values[int(m), int(n), strategy][:, 0].tolist()
            assert float(mean) > 1e293 and math.isfinite(float(stderr))
            assert float(stderr) == pytest.approx(statistics.stdev(series) / 2, rel=1e-10)


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

    @pytest.mark.parametrize("key, filename, text, expected", [
        ("profile", "p.pdp", "0 0\n10 x\n", "p.pdp:2: "),
        ("profile", "p.pdp", "# taps\n0 0\n10 -3 7\n", "p.pdp:3: "),
        ("profile", "p.pdp", "0 0\nnan -3\n", "p.pdp:2: "),
        ("profile", "p.pdp", "0 0\n10 inf\n", "p.pdp:2: "),
        ("profile", "p.pdp", "0 0\n10 4000\n", "p.pdp:2: "),  # 10**400 is beyond a float
        ("profile", "p.pdp", "# no taps\n\n", "no taps"),
        ("curve", "eta.txt", "2400 2480\n-20 0.2 x\n", "eta.txt:2: "),
        ("curve", "eta.txt", "2400 2480\n-20 0.2 0.3\n# short\n-10 0.4\n", "eta.txt:4: "),
        ("curve", "eta.txt", "2400 2480\nnan 0.2 0.3\n", "power_axis_dbm"),
        ("curve", "eta.txt", "2400 inf\n-20 0.2 0.3\n", "freq_axis_hz"),
        ("curve", "eta.txt", "2400 2480\n-20 0.2 inf\n", "efficiencies"),
        ("curve", "eta.txt", "# no rows\n", "frequency row"),
    ], ids=["pdp-token", "pdp-count", "pdp-nan", "pdp-inf", "pdp-overflow", "pdp-comments",
            "table-token", "table-width", "table-nan", "table-inf", "table-eta-inf",
            "table-comments"])
    def test_rejects_a_malformed_data_file(self, tmp_path, capsys, key, filename, text,
                                           expected):
        # the suite turns warnings into errors, so none may be raised on the way
        data = tmp_path / filename
        data.write_text(text)
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[{'channel' if key == 'profile' else 'rectenna'}]\n{key} = {data}\n")
        assert run(["validate", "--config", str(cfg)], tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and expected in err

    @pytest.mark.parametrize("lines,key", [
        ("[experiment]\nuser_loss_db = -4000\n", "user_loss_db"),
        ("[channel]\ntx_gain_dbi = 1e308\nrx_gain_dbi = 1e308\n", "rx_gain_dbi")],
        ids=["user_loss", "gains"])
    def test_rejects_a_received_power_scale_that_overflows(self, tmp_path, capsys, lines, key):
        # once accepted, then a sweep ended in an OverflowError traceback or
        # failed on p_rf_w, which names the wrong input
        cfg = tmp_path / "bad.ini"
        cfg.write_text(lines)
        for command in ("validate", "sweep"):
            assert run([command, "--config", str(cfg), "--quiet"], tmp_path) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and key in err

    @pytest.mark.parametrize("command,pipeline", [("sweep", "protocol"), ("frame", "ideal"),
                                                  ("tdma", "ideal")])
    def test_rejects_a_load_whose_output_voltage_overflows(self, tmp_path, capsys, command,
                                                           pipeline):
        # finite powers through this load once overflowed in the settling walk,
        # which then failed on "candidate powers must be finite", the wrong input
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[channel]\ntx_power_dbm = 3000\npath_loss_db = 0\n\n"
                       f"[rectenna]\ncurve = {TABLE}\nload_ohms = 1e20\n\n"
                       f"[experiment]\npipeline = {pipeline}\nrealizations = 2\nframes = 2\n")
        assert run(["validate", "--config", str(cfg), "--quiet"], tmp_path) == 0
        assert run([command, "--config", str(cfg), "--quiet"], tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "load_ohms" in err

    def test_rejects_a_negative_first_tap_delay(self, tmp_path, capsys):
        pdp = tmp_path / "p.pdp"
        pdp.write_text("-5 0\n10 -3\n")
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[channel]\nprofile = {pdp}\n")
        assert run(["validate", "--config", str(cfg)], tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "first tap delay" in err

    @pytest.mark.parametrize("command,lines,expected", [
        ("tdma", f"frames = {10 ** 15}", "error: frames"),
        ("tdma", f"users = {10 ** 15}", "error: users"),
        ("frame", f"users = {10 ** 15}", "error: users"),
        # 1,024 rounds of 2**32 users: a 1.9 PiB array, which numpy refuses at once
        ("tdma", f"users = {2 ** 32}\nframes = {2 ** 42}", "error: Unable to allocate")],
        ids=["tdma-frames", "tdma-users", "frame-users", "tdma-allocation"])
    def test_a_count_too_large_to_allocate_fails_cleanly(self, tmp_path, capsys, command, lines,
                                                         expected):
        # these once ended in a traceback; a count past a 32-bit stream path
        # word now fails by name before any array is asked for
        cfg = tmp_path / "huge.ini"
        cfg.write_text(f"[experiment]\n{lines}\n")
        assert run([command, "--config", str(cfg), "--quiet"], tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith(expected) and "Traceback" not in err

    @pytest.mark.parametrize("command,key,value", [
        ("validate", "frequency_sweep", 10 ** 400),
        ("sweep", "realizations", 2 ** 32 + 1),
        ("validate", "users", 10 ** 400),
        ("tdma", "frames", 10 ** 400),
        ("frame", "users", 10 ** 400)],
        ids=["validate-frequency_sweep", "sweep-realizations", "validate-users", "tdma-frames",
             "frame-users"])
    def test_an_entry_too_large_fails_in_one_line(self, tmp_path, capsys, command, key, value):
        # once an OverflowError or numpy traceback, an OK, or a failure once a
        # sweep block reached realization 2**32, hours in
        cfg = tmp_path / "huge.ini"
        cfg.write_text(f"[experiment]\n{key} = {value}\n")
        assert run([command, "--config", str(cfg), "--quiet"], tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key.split("_")[0] in err

    def test_a_huge_user_count_fails_at_the_first_array(self, tmp_path):
        # in a child held to 4 GiB of address space, so a list that grows with
        # the user count cannot touch the machine's memory: the sweep must ask
        # numpy for its first array before it builds any such list
        cfg = tmp_path / "users.ini"
        cfg.write_text(f"[experiment]\nusers = {2 ** 31}\n")
        code = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
                "from wptdas.cli import main\n"
                f"sys.exit(main(['sweep', '--config', {str(cfg)!r}, "
                f"'--out', {str(tmp_path)!r}, '--quiet']))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=60)
        assert out.returncode == 1
        assert out.stderr.startswith("error: Unable to allocate"), out.stderr

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


# Every INI key is set alone to each of these on a small lossy config, then
# run through validate, which reads every key, and the runs that read its
# section. A protocol sweep reads the schedule, link and ADC; an ideal one does not.
FUZZ_VALUES = ("0", "-1", "1e-300", "4000", "-4000", "1e308", "-1e308")
FUZZ_BASE = {"experiment": {"realizations": "2", "frames": "2"},
             "link": {"delivery": "lossy", "drop_probability": "0.1", "latency_s": "0.002"}}
FUZZ_RUNS = {"protocol": ("sweep", {"pipeline": "protocol"})}  # the rest are plain commands
FUZZ_READERS = {
    "channel": ("sweep", "protocol", "frame", "tdma"),
    "rectenna": ("sweep", "protocol", "frame", "tdma"),
    "schedule": ("protocol", "frame", "tdma", "budget"),
    "link": ("protocol", "frame", "tdma"),
    "adc": ("protocol", "frame", "tdma"),
    "experiment": ("sweep", "protocol", "frame", "tdma", "budget"),
    "consumption": ("budget",),
    "budget": ("budget",),
}
# A valid count of 4000 only makes a long run (4000 users' passive harvest
# alone is a 1 GB array), so it is validated but not run.
FUZZ_COUNTS = ("users", "realizations", "frames")


@pytest.mark.parametrize("section,key", [(section, key) for section in cli._SCHEMA
                                         for key in cli._SCHEMA[section]])
def test_every_key_fails_cleanly_or_runs(tmp_path, capsys, section, key):
    for value in FUZZ_VALUES:
        for run_name in ("validate", *FUZZ_READERS[section]):
            command, extra = FUZZ_RUNS.get(run_name, (run_name, {}))
            ini = configparser.ConfigParser()
            ini.read_dict(FUZZ_BASE)
            ini.read_dict({"experiment": extra})
            ini.read_dict({section: {key: value}})
            with open(tmp_path / "fuzz.ini", "w", encoding="utf-8") as fh:
                ini.write(fh)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = run([command, "--config", str(tmp_path / "fuzz.ini"), "--quiet"],
                           tmp_path / "out")
            err = capsys.readouterr().err
            if run_name == "validate" and code == 1:
                assert err.startswith("error:"), (value, err)
                break  # every command loads the config validate rejected
            assert (code, err) == (0, ""), (run_name, value, code, err)
            if key in FUZZ_COUNTS and value == "4000":
                break


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


# Every simulation output names its config's hash on a "# config=" line, so
# two runs whose bodies differ must differ there too. Each _SCHEMA key is set
# alone to another valid value on a small two-user lossy base config, and
# every run that writes a hash is compared with the base's. budget.txt has no
# hash (only simulation outputs carry one), so budget is not run, and the
# keys that only the budget reads change no body here.
PRINT_BASE = {
    "channel": {"frequencies": "5"},
    "rectenna": {"peak_dbm": "-30", "breakdown_dbm": "-25"},  # the breakdown bites
    "experiment": {"users": "2", "realizations": "3", "frames": "4",
                   "antenna_sweep": "1, 2", "frequency_sweep": "1, 3"},
    "link": {"delivery": "lossy", "drop_probability": "0.1", "latency_s": "0.002"},
}
PRINT_VALUES = {
    "channel": {"profile": "single-tap-flat", "grid": "ieee", "center_mhz": "2450",
                "bandwidth_mhz": "50", "frequencies": "4", "tx_power_dbm": "33",
                "path_loss_db": "55", "tx_gain_dbi": "2", "rx_gain_dbi": "2"},
    "rectenna": {"curve": str(TABLE), "eta_peak": "0.5", "peak_dbm": "-35", "rise_slope": "0.2",
                 "breakdown_dbm": "-20", "breakdown_slope": "2", "load_ohms": "5000",
                 "settle_tau_s": "0.004"},
    "schedule": {"slot_s": "0.01", "wpt_s": "1.5"},
    "link": {"delivery": "ideal", "drop_probability": "0.4", "latency_s": "0.005"},
    "adc": {"enabled": "false", "bits": "8", "vref": "2.5"},
    "experiment": {"realizations": "4", "seed": "9", "users": "3", "antenna_sweep": "1, 3",
                   "frequency_sweep": "1, 5", "strategies": "joint, none",
                   "user_loss_db": "0, 3", "pipeline": "protocol", "frames": "5"},
    "consumption": {"soc_power_dbm": "-20", "radio_power_dbm": "10", "bitrate_bps": "1e6",
                    "pa_supply_dbm": "45"},
    "budget": {"train_power_dbm": "-25", "wpt_power_dbm": "-15"},
}
PRINT_RUNS = {"ideal": ("sweep", "sweep_results.csv"), "protocol": ("sweep", "sweep_results.csv"),
              "frame": ("frame", "frame_events.csv"), "tdma": ("tdma", "tdma_trace.csv")}


def test_every_key_that_changes_an_output_changes_its_config_hash(tmp_path):
    assert {s: set(keys) for s, keys in PRINT_VALUES.items()} == \
        {s: set(keys) for s, keys in cli._SCHEMA.items()}

    def outputs(section=None, key=None):
        """{run: (config line, body)} of every hashed run, with ``key`` changed."""
        got = {}
        for name, (command, filename) in PRINT_RUNS.items():
            ini = configparser.ConfigParser()
            ini.read_dict(PRINT_BASE)
            if command == "sweep":
                ini.read_dict({"experiment": {"pipeline": name}})
            if key is not None:
                ini.read_dict({section: {key: PRINT_VALUES[section][key]}})
            with open(tmp_path / "print.ini", "w", encoding="utf-8") as fh:
                ini.write(fh)
            out = tmp_path / "out"
            assert run([command, "--config", str(tmp_path / "print.ini"), "--quiet"], out) == 0
            lines = (out / filename).read_text().splitlines()
            config, = [ln for ln in lines if ln.startswith("# config=")]
            got[name] = config, [ln for ln in lines if not ln.startswith("#")]
        return got

    base = outputs()
    silent = set()
    for section, keys in cli._SCHEMA.items():
        for key in keys:
            changed = outputs(section, key)
            moved = [name for name in PRINT_RUNS if changed[name][1] != base[name][1]]
            for name in moved:
                assert changed[name][0] != base[name][0], (section, key, name)
            if not moved:
                silent.add((section, key))
    assert silent == {(s, key) for s in ("consumption", "budget") for key in cli._SCHEMA[s]}
