"""The INI schema of the CLI: defaults, key coverage, bad values, flags, and
the config hash line of the frame and TDMA outputs."""

import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wptdas
from wptdas.cli import _SCHEMA, load_settings, main
from wptdas.errors import FeedbackCapacityError
from wptdas.experiments import TransmitterConsumption, power_budget_report
from wptdas.protocol import DEFAULT_ADC, ControlLinkModel, FrameSchedule, ReceiverConsumption

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
    ("consumption", "bytes"): "7",
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
    return (st.experiment.fingerprint(), st.sched, st.link, st.adc, st.consumption,
            st.tx_consumption, st.report_powers, st.pipeline, st.frames)


def budget_of(st):
    return power_budget_report(sched=st.sched, consumption=st.consumption,
                               tx=st.tx_consumption, **st.report_powers)


class TestSchema:
    def test_empty_config_is_the_library_defaults(self):
        st = load_settings(None)
        assert st.sched == FrameSchedule()
        assert st.link == ControlLinkModel()
        assert st.adc == DEFAULT_ADC
        assert st.consumption == ReceiverConsumption()
        assert st.tx_consumption == TransmitterConsumption()
        assert st.experiment.fingerprint() == "ea1af8e37eab7b14"
        assert budget_of(st) == power_budget_report()

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
    ])
    def test_overflowing_value_fails_cleanly(self, tmp_path, capsys, text):
        assert main(["validate", "--config", write(tmp_path, text)]) == 1
        assert capsys.readouterr().err.startswith("error:")

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
    def test_fuzzed_config_exits_zero_or_one(self, entries):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write(Path(tmp), ini(dict(entries)))
            assert main(["validate", "--config", cfg, "--quiet"]) in (0, 1)


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
        assert budget_of(doc)[0].e_net_j == pytest.approx(budget_of(std)[0].e_net_j, rel=1e-3)
        assert doc.tx_consumption.total_w == pytest.approx(std.tx_consumption.total_w, rel=1e-3)


class TestOutputs:
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
