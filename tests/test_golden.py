"""Byte-for-byte golden outputs of the subcommands.

Each case runs one subcommand on a small config and compares the file it
writes, or its stdout with the output directory masked, with the copy under
``tests/data/golden/``. The goldens pin every digit of the ideal and
protocol sweeps, the frame event log, the TDMA trace and the TDMA users'
averages and totals, so a change that moves any of them fails here.

Regenerate them only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py --write

Run as a script with any other arguments, or none, it prints its usage,
writes nothing and exits with status 2.
"""

import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from wptdas.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden"
TABLE = ROOT / "src" / "wptdas" / "data" / "efficiency-table-sample.txt"

LOSSY = """\
[link]
delivery = lossy
drop_probability = 0.1
latency_s = 0.002

[adc]
enabled = true
bits = 12
"""

CONFIGS = {
    # one user, ideal link, exact voltages, fast settling
    "a": """\
[rectenna]
settle_tau_s = 0.00001

[adc]
enabled = false

[experiment]
pipeline = protocol
realizations = 12
seed = 5
""",
    # two users over a lossy, late link with a 12-bit ADC
    "b": LOSSY + """
[experiment]
pipeline = protocol
users = 2
realizations = 6
seed = 6
""",
    # three users on the channel plan with the shipped table; the feedback
    # takes effect 1.2 s late, past the whole training phase
    "c": f"""\
[channel]
grid = ieee

[rectenna]
curve = {TABLE}

[link]
latency_s = 1.2

[experiment]
pipeline = protocol
users = 3
realizations = 4
seed = 7
""",
    # three users, 60 frames over the lossy link
    "d": LOSSY + """
[experiment]
users = 3
frames = 60
seed = 8
""",
    # the ideal sweep at its defaults, over more than two blocks of draws
    "e": """\
[experiment]
realizations = 150
""",
    # four users with unequal losses on the channel plan with the shipped table
    "f": f"""\
[channel]
grid = ieee

[rectenna]
curve = {TABLE}

[experiment]
users = 4
user_loss_db = 0, 2, 4, 6
realizations = 40
""",
    # two users with unequal losses and the shipped table over the lossy link;
    # 25 frames cut the last round short
    "g": LOSSY + f"""
[channel]
grid = ieee

[rectenna]
curve = {TABLE}

[experiment]
users = 2
user_loss_db = 0, 6
frames = 25
""",
}

# (config, subcommand, file it writes); STDOUT is the masked stdout
STDOUT = "stdout.txt"
CASES = [
    ("a", "sweep", "sweep_results.csv"),
    ("b", "sweep", "sweep_results.csv"),
    ("b", "frame", "frame_events.csv"),
    ("c", "sweep", "sweep_results.csv"),
    ("d", "tdma", "tdma_trace.csv"),
    ("d", "tdma", STDOUT),
    ("e", "sweep", "sweep_results.csv"),
    ("f", "sweep", "sweep_results.csv"),
    ("g", "tdma", "tdma_trace.csv"),
    ("g", "tdma", STDOUT),
]


def golden_name(config: str, filename: str) -> str:
    return f"{config}_{filename}"


def write_output(config: str, command: str, workdir: Path) -> Path:
    ini = workdir / f"{config}.ini"
    ini.write_text(CONFIGS[config], encoding="utf-8")
    out = workdir / f"{config}-{command}"
    with redirect_stdout(StringIO()) as stdout:
        assert main([command, "--config", str(ini), "--out", str(out)]) == 0
    (out / STDOUT).write_text(stdout.getvalue().replace(str(out), "<out>"), encoding="utf-8")
    return out


@pytest.mark.parametrize("config,command,filename", CASES)
def test_output_matches_golden(config, command, filename, tmp_path):
    out = write_output(config, command, tmp_path)
    expected = (GOLDEN / golden_name(config, filename)).read_bytes()
    assert (out / filename).read_bytes() == expected


USAGE = "usage: PYTHONPATH=src python tests/test_golden.py --write"


def write_goldens(argv: list, golden: Path = GOLDEN) -> int:
    """Rewrite every golden file under ``golden`` when ``argv`` is exactly
    ``["--write"]``; otherwise print the usage and return 2."""
    if argv != ["--write"]:
        print(USAGE, file=sys.stderr)
        return 2
    golden.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for config, command, filename in CASES:
            out = write_output(config, command, Path(tmp))
            (golden / golden_name(config, filename)).write_bytes((out / filename).read_bytes())
            print(f"wrote {golden_name(config, filename)}", file=sys.stderr)
    return 0


@pytest.mark.parametrize("argv", [[], ["--help"], ["-w"], ["write"], ["--write", "--help"]])
def test_the_script_writes_only_when_asked(argv, tmp_path, capsys):
    # any other call once overwrote every golden file
    assert write_goldens(argv, tmp_path / "golden") == 2
    assert not (tmp_path / "golden").exists()
    assert capsys.readouterr().err == USAGE + "\n"


def test_the_script_writes_the_goldens(tmp_path):
    assert write_goldens(["--write"], tmp_path) == 0
    for config, _command, filename in CASES:
        name = golden_name(config, filename)
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    sys.exit(write_goldens(sys.argv[1:]))
