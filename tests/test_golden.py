"""Byte-for-byte golden outputs of the protocol-side subcommands.

Each case runs one subcommand on a small config and compares the file it
writes with the copy under ``tests/data/golden/``. The goldens pin every
digit of the protocol sweep, the frame event log and the TDMA trace, so a
change that moves any of them fails here.

Regenerate them only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
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
}

# (config, subcommand, file it writes)
CASES = [
    ("a", "sweep", "sweep_results.csv"),
    ("b", "sweep", "sweep_results.csv"),
    ("b", "frame", "frame_events.csv"),
    ("c", "sweep", "sweep_results.csv"),
    ("d", "tdma", "tdma_trace.csv"),
]


def golden_name(config: str, filename: str) -> str:
    return f"{config}_{filename}"


def write_output(config: str, command: str, workdir: Path) -> Path:
    ini = workdir / f"{config}.ini"
    ini.write_text(CONFIGS[config], encoding="utf-8")
    out = workdir / f"{config}-{command}"
    assert main([command, "--config", str(ini), "--out", str(out), "--quiet"]) == 0
    return out


@pytest.mark.parametrize("config,command,filename", CASES)
def test_output_matches_golden(config, command, filename, tmp_path):
    out = write_output(config, command, tmp_path)
    expected = (GOLDEN / golden_name(config, filename)).read_bytes()
    assert (out / filename).read_bytes() == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for config, command, filename in CASES:
            out = write_output(config, command, Path(tmp))
            (GOLDEN / golden_name(config, filename)).write_bytes((out / filename).read_bytes())
            print(f"wrote {golden_name(config, filename)}", file=sys.stderr)
