"""The INI schema of the CLI: defaults, key coverage, bad values, flags, and
the config hash line of the frame and TDMA outputs."""

import io
import math
import re
import tempfile
import tracemalloc
from contextlib import redirect_stderr
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wptdas
from wptdas.cli import _SCHEMA, load_settings, main
from wptdas.channel import FrequencyGrid, LinkBudget, builtin_profile
from wptdas.errors import FeedbackCapacityError, ValidationError
from wptdas.experiments import ExperimentConfig, power_budget_report
from wptdas.protocol import DEFAULT_ADC, AdcModel, ControlLinkModel, FrameSchedule
from wptdas.rectenna import EfficiencyCurve, RectennaConfig

README = Path(__file__).resolve().parents[1] / "README.md"
TABLE = Path(wptdas.__file__).parent / "data" / "efficiency-table-sample.txt"
SCHEMA_KEYS = [(section, key) for section, keys in _SCHEMA.items() for key in keys]

# One value per key that differs from the standard setup.
NON_DEFAULT = {
    ("channel", "profile"): "single-tap-flat",
    ("channel", "grid"): "ieee",
    ("channel", "center_mhz"): "2450",
    ("channel", "bandwidth_mhz"): "50",
    ("channel", "frequencies"): "16",
    ("channel", "tx_power_dbm"): "30",
    ("channel", "path_loss_db"): "50",
    ("channel", "tx_gain_dbi"): "2",
    ("channel", "rx_gain_dbi"): "1",
    ("rectenna", "curve"): str(TABLE),
    ("rectenna", "eta_peak"): "0.5",
    ("rectenna", "peak_dbm"): "-2",
    ("rectenna", "rise_slope"): "0.2",
    ("rectenna", "breakdown_dbm"): "5",
    ("rectenna", "breakdown_slope"): "2",
    ("rectenna", "load_ohms"): "5000",
    ("rectenna", "settle_tau_s"): "0.001",
    ("schedule", "slot_s"): "0.01",
    ("schedule", "wpt_s"): "1",
    ("link", "delivery"): "lossy",
    ("link", "drop_probability"): "0.5",
    ("link", "latency_s"): "0.01",
    ("adc", "enabled"): "false",
    ("adc", "bits"): "8",
    ("adc", "vref"): "1.8",
    ("experiment", "realizations"): "20",
    ("experiment", "seed"): "2",
    ("experiment", "users"): "2",
    ("experiment", "frames"): "4",
    ("experiment", "antenna_sweep"): "1, 2",
    ("experiment", "frequency_sweep"): "1, 15",
    ("experiment", "strategies"): "joint",
    ("experiment", "pipeline"): "protocol",
    ("experiment", "user_loss_db"): "3",
    ("consumption", "soc_power_dbm"): "-20",
    ("consumption", "radio_power_dbm"): "10",
    ("consumption", "bitrate_bps"): "1e6",
    ("consumption", "pa_supply_dbm"): "40",
    ("budget", "train_power_dbm"): "-20",
    ("budget", "wpt_power_dbm"): "-10",
}
# Keys whose value shows only next to another key's.
CONTEXT = {
    ("link", "delivery"): {("link", "drop_probability"): "0.5"},
    ("link", "drop_probability"): {("link", "delivery"): "lossy"},
}


def _reads_floats(cast) -> bool:
    try:
        value = cast("0.5")
    except ValueError:
        return False
    return all(isinstance(x, float) for x in (value if isinstance(value, tuple) else [value]))


FLOAT_KEYS = [(s, k) for s, k in SCHEMA_KEYS if _reads_floats(_SCHEMA[s][k][2])]


# The multi-key fuzz runs the simulating commands on every config that validate
# accepts, as small as the single-key fuzz runs them. A protocol sweep keeps
# U frames of U users' powers per realization and cell, so a config past
# FUZZ_RUN_SIZE users**2 x realizations is validated but not run.
FUZZ_BASE = {("experiment", "realizations"): "2", ("experiment", "frames"): "2"}
FUZZ_COMMANDS = [("sweep", "ideal"), ("sweep", "protocol"), ("frame", "ideal"), ("tdma", "ideal")]
FUZZ_RUN_SIZE = 100_000


def ini(values: dict) -> str:
    sections: dict = {}
    for (section, key), value in values.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items())


def write(tmp_path, text: str, name: str = "cfg.ini") -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def resolved(st) -> tuple:
    """Everything a Settings holds, in a form that compares with ==."""
    return (st.experiment.fingerprint(), st.sched, st.link, st.adc, st.energy_budget,
            st.pipeline, st.frames)


class TestSchema:
    def test_empty_config_is_the_library_defaults(self):
        st = load_settings(None)
        assert st.sched == FrameSchedule()
        assert st.link == ControlLinkModel()
        assert st.adc == DEFAULT_ADC
        assert st.experiment.fingerprint() == "ea1af8e37eab7b14"
        assert st.energy_budget == power_budget_report()

    def test_a_pdp_file_is_read_again_on_every_load(self, tmp_path):
        # only the packaged profiles are loaded once per process
        pdp, out = tmp_path / "taps.pdp", tmp_path / "out"
        cfg = write(tmp_path, f"[channel]\nprofile = {pdp}\n")
        config_lines = []
        for delay_ns in (10, 20):
            pdp.write_text(f"0 0\n{delay_ns} -3\n")
            profile = load_settings(cfg).experiment.profile
            assert profile.delays_s[1] == pytest.approx(delay_ns * 1e-9)
            assert main(["frame", "--config", cfg, "--quiet", "--out", str(out)]) == 0
            lines = (out / "frame_events.csv").read_text().splitlines()
            config_lines += [ln for ln in lines if ln.startswith("# config=")]
        assert len(config_lines) == 2 and config_lines[0] != config_lines[1]

    def test_every_key_has_a_test_value(self):
        assert set(NON_DEFAULT) == set(SCHEMA_KEYS)

    @pytest.mark.parametrize("section,key", SCHEMA_KEYS)
    def test_every_key_changes_the_settings(self, tmp_path, section, key):
        context = CONTEXT.get((section, key), {})
        base = load_settings(write(tmp_path, ini(context), "base.ini"))
        changed = {**context, (section, key): NON_DEFAULT[(section, key)]}
        assert resolved(load_settings(write(tmp_path, ini(changed)))) != resolved(base)

    def test_feedback_space_is_the_protocol_check(self, tmp_path):
        cfg = write(tmp_path, "[experiment]\nantenna_sweep = 5\n")
        with pytest.raises(FeedbackCapacityError, match="5 antennas x 15 frequencies"):
            load_settings(cfg)

    @pytest.mark.parametrize("grid", ["uniform", "ieee"])
    def test_pair_count_is_checked_before_the_grid_is_built(self, tmp_path, grid):
        cfg = write(tmp_path, f"[channel]\ngrid = {grid}\nfrequencies = 1000000\n")
        tracemalloc.start()
        try:
            with pytest.raises(FeedbackCapacityError,
                               match="4 antennas x 1000000 frequencies exceed the 6-bit"):
                load_settings(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # the grid alone would take 8 MB


class TestBadValues:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section,key", FLOAT_KEYS)
    def test_non_finite_float_fails_cleanly(self, tmp_path, capsys, section, key, value):
        cfg = write(tmp_path, f"[{section}]\n{key} = {value}\n")
        assert main(["validate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"[{section}] {key}" in err

    @pytest.mark.parametrize("text", [
        "[channel]\ntx_power_dbm = 1e300\n",  # finite dBm, infinite watts
        "[schedule]\nslot_s = 1e303\n",  # finite seconds, infinite microseconds
        "[schedule]\nwpt_s = 1e303\n",
        "[link]\nlatency_s = 1e303\n",
        # each key is finite alone, but the band's top edge 1.5e308 + 1e308 / 2 Hz
        # is not: np.linspace warned on it, and the grid then failed as not > 0
        "[channel]\ncenter_mhz = 1.5e302\nbandwidth_mhz = 1e302\n",
    ])
    def test_overflowing_value_fails_cleanly(self, tmp_path, capsys, text):
        assert main(["validate", "--config", write(tmp_path, text)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("section,key,bad", [
        ("channel", "grid", "foo"), ("link", "delivery", "baz"), ("experiment", "pipeline", "bar")])
    def test_a_choice_outside_its_names_is_rejected(self, tmp_path, capsys, section, key, bad):
        # an unknown name would otherwise run as the default
        assert main(["validate", "--config", write(tmp_path, f"[{section}]\n{key} = {bad}\n")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"[{section}] {key}" in err

    @pytest.mark.parametrize("choice,key,bad,good", [
        ("[link]\ndelivery = ideal\n", "drop_probability", "-1", "0.3"),
        ("[adc]\nenabled = false\n", "bits", "0", "8"),
        ("[adc]\nenabled = false\n", "vref", "-3", "1.8"),
        ("[channel]\ngrid = ieee\n", "center_mhz", "-5", "2450"),
        ("[channel]\ngrid = ieee\n", "bandwidth_mhz", "-75", "50"),
        (f"[rectenna]\ncurve = {TABLE}\n", "eta_peak", "5", "0.5"),
    ], ids=["drop_probability", "bits", "vref", "center_mhz", "bandwidth_mhz", "eta_peak"])
    def test_a_value_the_choices_leave_unused_is_still_checked(self, tmp_path, capsys, choice,
                                                               key, bad, good):
        # each bad value once validated: the choice that skips its object
        # dropped it unchecked
        assert main(["validate", "--config", write(tmp_path, f"{choice}{key} = {bad}\n")]) == 1
        assert capsys.readouterr().err.startswith("error:")
        # a valid one is still ignored
        alone = load_settings(write(tmp_path, choice, "alone.ini"))
        given = load_settings(write(tmp_path, f"{choice}{key} = {good}\n", "good.ini"))
        assert resolved(given) == resolved(alone)

    @pytest.mark.parametrize("build,field,bad", [
        *[(LinkBudget, name, bad)
          for name in ("tx_power_w", "path_loss_db", "tx_gain_dbi", "rx_gain_dbi")
          for bad in (math.nan, math.inf, "10")],
        *[(RectennaConfig, name, bad) for name in ("load_ohms", "settle_tau_s")
          for bad in (math.nan, "1")],
        *[(EfficiencyCurve.parametric, name, math.nan)
          for name in ("eta_peak", "peak_dbm", "rise_slope", "breakdown_dbm", "breakdown_slope")],
        (EfficiencyCurve.parametric, "rise_slope", -0.1),
        (EfficiencyCurve.parametric, "breakdown_slope", -0.1),
        *[(ExperimentConfig, name, bad) for name, bad in [
            ("user_loss_db", (math.nan,)), ("user_loss_db", (-math.inf,)),
            ("user_loss_db", ("3",)), ("user_loss_db", (None,)), ("user_loss_db", (True,)),
            ("user_loss_db", 3.0), ("antenna_sweep", 1), ("antenna_sweep", (0, 2)),
            ("antenna_sweep", (-1, 2)),
            ("frequency_sweep", None), ("strategies", 7)]],
        *[(power_budget_report, name, bad)
          for name in ("soc_power_w", "radio_power_w", "radio_bitrate_bps")
          for bad in (math.nan, math.inf, "1", -1.0)],
        *[(power_budget_report, "pa_supply_w", bad) for bad in (math.nan, math.inf, "1", -84.0)],
        (FrameSchedule, "slot_s", "0.018"), (FrameSchedule, "wpt_s", True),
        (ControlLinkModel, "drop_probability", True), (ControlLinkModel, "drop_probability", "0.1"),
        (AdcModel, "bits", 12.5), (AdcModel, "bits", True), (AdcModel, "v_ref", "3.3"),
    ], ids=lambda v: getattr(v, "__qualname__", repr(v)))
    def test_library_input_fails_at_construction(self, build, field, bad):
        required = dict(profile=builtin_profile("model-E-NLOS"), grid=FrequencyGrid.uniform())
        kwargs = {**(required if build is ExperimentConfig else {}), field: bad}
        with pytest.raises(ValidationError, match=field):
            build(**kwargs)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(list(_SCHEMA)).flatmap(
            lambda s: st.tuples(st.just(s), st.sampled_from(list(_SCHEMA[s])))),
        st.one_of(
            st.integers(-5, 200).map(str),  # small, so no example builds a huge grid
            st.sampled_from(["nan", "inf", "-inf", "1e303", "-0.0", "5e-324"]),
            st.floats().map(repr),
            st.sampled_from(["", "junk", "1, 2", "2 3", "uniform", "ieee", "lossy",
                             "protocol", "yes", "off", "joint, none", "0x10", "%"]),
        )), min_size=1, max_size=3))
    # finite values that overflow only together once wrote inf into budget.txt
    @example([(("consumption", "bitrate_bps"), "1e-300"),
              (("consumption", "radio_power_dbm"), "100")])
    @example([(("consumption", "soc_power_dbm"), "3000"), (("schedule", "slot_s"), "1e10")])
    @example([(("budget", "train_power_dbm"), "-3100"), (("budget", "wpt_power_dbm"), "-3100")])
    # an int frame length beyond the float range once raised a bare OverflowError
    @example([(("schedule", "slot_s"), "1e302")])
    # validate accepts it; the simulating commands reject its energy bound
    @example([(("rectenna", "settle_tau_s"), "1e308"), (("channel", "path_loss_db"), "0")])
    # a slot_us past int64, with and without a lossy, late link: each command exits 0
    @example([(("schedule", "slot_s"), "9223372036855.0")])
    @example([(("schedule", "slot_s"), "9223372036855.0"), (("link", "delivery"), "lossy"),
              (("link", "latency_s"), "0.002")])
    def test_fuzzed_config_exits_zero_or_one(self, entries):
        given = {**FUZZ_BASE, **dict(entries)}
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write(Path(tmp), ini(given))
            code = main(["validate", "--config", cfg, "--quiet"])
            assert code in (0, 1)
            if code == 1:
                return
            # budget simulates nothing, so every valid config runs it
            assert main(["budget", "--config", cfg, "--quiet", "--out", tmp]) == 0
            report = (Path(tmp) / "budget.txt").read_text()
            assert not re.search(r"\b(inf|nan)\b", report, re.I), report
            experiment = load_settings(cfg).experiment
            if experiment.users ** 2 * experiment.realizations > FUZZ_RUN_SIZE:
                return
            for command, pipeline in FUZZ_COMMANDS:
                out = Path(tmp) / f"{command}-{pipeline}"
                path = write(Path(tmp), ini({**given, ("experiment", "pipeline"): pipeline}),
                             "run.ini")
                with redirect_stderr(io.StringIO()) as err:
                    code = main([command, "--config", path, "--quiet", "--out", str(out)])
                assert (code, err.getvalue()) == (0, "") or (
                    code == 1 and re.fullmatch(r"error: [^\n]*\n", err.getvalue())), \
                    (command, pipeline, code, err.getvalue())
                for written in out.iterdir() if out.exists() else ():
                    text = written.read_text()
                    assert not re.search(r"\b(inf|nan)\b", text, re.I), (command, text)


class TestReadme:
    def test_ini_example_sets_every_key_to_the_standard_setup(self, tmp_path):
        block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
        cfg = write(tmp_path, block)
        assert main(["validate", "--config", cfg, "--quiet"]) == 0
        keys = set(re.findall(r"^(\w+) =", block, re.M))
        assert keys == {key for _section, key in SCHEMA_KEYS}
        doc, std = load_settings(cfg), load_settings(None)
        assert resolved(doc)[:4] == resolved(std)[:4]
        # dBm values in the example are rounded to 0.001 dB
        assert doc.energy_budget[0].e_net_j == pytest.approx(std.energy_budget[0].e_net_j, rel=1e-3)
        amplifier = re.search(r"amplifier (\S+) W", doc.energy_budget[1]).group(1)
        assert float(amplifier) == pytest.approx(84.0, rel=1e-3)

    def test_library_example_runs(self, capsys):
        block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
        exec(compile(block, str(README), "exec"), {})
        assert re.fullmatch(r"selected antenna [1-4], frequency (1[0-5]|[1-9]); "
                            r"\d+(\.\d+)? uJ delivered\n", capsys.readouterr().out)


def outputs(tmp_path, values: dict) -> dict:
    """The bytes of each simulation output of the config ``values``, split
    into its ``# config=`` line and everything else."""
    tmp_path.mkdir()
    runs = {"ideal": ("sweep", "ideal", "sweep_results.csv"),
            "protocol": ("sweep", "protocol", "sweep_results.csv"),
            "frame": ("frame", "ideal", "frame_events.csv"),
            "tdma": ("tdma", "ideal", "tdma_trace.csv")}
    out = {}
    for name, (command, pipeline, filename) in runs.items():
        given = {("experiment", "pipeline"): pipeline, **values}
        path = write(tmp_path, ini(given), f"{name}.ini")
        assert main([command, "--config", path, "--out", str(tmp_path / name), "--quiet"]) == 0
        lines = (tmp_path / name / filename).read_bytes().splitlines(keepends=True)
        config = [ln for ln in lines if ln.startswith(b"# config=")]
        out[name] = (config, [ln for ln in lines if not ln.startswith(b"# config=")])
    return out


class TestOutputs:
    @pytest.mark.parametrize("section,key", SCHEMA_KEYS)
    def test_every_key_that_changes_an_output_changes_its_config_line(self, tmp_path,
                                                                       section, key):
        # ideal and protocol sweeps, frame and tdma, with and without the key
        base = {("experiment", "realizations"): "3", ("experiment", "frames"): "2",
                **CONTEXT.get((section, key), {})}
        before = outputs(tmp_path / "base", base)
        after = outputs(tmp_path / "changed", {**base, (section, key): NON_DEFAULT[(section, key)]})
        for name, (config, rest) in after.items():
            assert len(config) == 1
            if rest != before[name][1]:
                assert config != before[name][0], name
    @pytest.mark.parametrize("command,filename", [("frame", "frame_events.csv"),
                                                  ("tdma", "tdma_trace.csv")])
    def test_config_line_tells_link_configs_apart(self, tmp_path, command, filename):
        configs = ["[link]\ndelivery = lossy\ndrop_probability = 0.3\n",
                   "[link]\nlatency_s = 0.01\n"]
        outputs = []
        for i, text in enumerate(configs + configs[:1]):
            out = tmp_path / str(i)
            argv = [command, "--config", write(tmp_path, text, f"{i}.ini"), "--seed", "1",
                    "--out", str(out), "--quiet"]
            assert main(argv) == 0
            outputs.append((out / filename).read_bytes())
        lines = [[ln for ln in o.splitlines() if ln.startswith(b"# config=")] for o in outputs]
        assert len(lines[0]) == 1
        assert lines[0] != lines[1]
        assert outputs[2] == outputs[0]

    def test_tdma_config_line_covers_frames(self, tmp_path):
        lines = []
        for frames in (2, 3):
            out = tmp_path / str(frames)
            cfg = write(tmp_path, f"[experiment]\nframes = {frames}\n", f"{frames}.ini")
            assert main(["tdma", "--config", cfg, "--out", str(out), "--quiet"]) == 0
            text = (out / "tdma_trace.csv").read_text()
            lines.append(re.search("^# config=.*$", text, re.M).group(0))
        assert lines[0] != lines[1]


class TestFlags:
    @pytest.mark.parametrize("command", ["frame", "tdma", "budget", "validate"])
    def test_jobs_is_a_sweep_flag_only(self, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--jobs", "2"])
        assert exc.value.code == 2
