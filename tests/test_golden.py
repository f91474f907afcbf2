"""Byte-for-byte golden outputs of the subcommands.

Each case runs one subcommand on a small config and compares the file it
writes, or its stdout with the output directory masked, with the copy under
``tests/data/golden/``. The goldens pin every digit of the ideal and
protocol sweeps, the frame event log, the TDMA trace, the TDMA users'
averages and totals, the energy budget and the validation summary, so a
change that moves any of them fails here.

The digest matrix pins more runs than a golden file each would: ``sweep``,
``frame`` and ``tdma`` on the benchmark's three workload configs, on one
config whose late link splits slots, one whose feedback lands after delivery
ends and one with no delivery phase, at seeds 1-3, one sha256 per output
file and per masked stdout, in ``tests/data/golden/workloads.sha256``.

Regenerate them only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py --write

Run as a script with any other arguments, or none, it prints its usage,
writes nothing and exits with status 2.
"""

import hashlib
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
    # 25 frames end partway through the last round
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
    # every default
    "h": "",
    # a faster schedule, other consumption constants and measured phase powers
    "i": """\
[schedule]
slot_s = 0.01
wpt_s = 1.5

[consumption]
soc_power_dbm = -20
radio_power_dbm = 10
bitrate_bps = 1e6
pa_supply_dbm = 45

[budget]
train_power_dbm = -25
wpt_power_dbm = -15
""",
}

# the benchmark's workloads (perfbench/workloads.py), copied, and one more config
SWEEP_SHAPE = """\
[channel]
profile = model-E-NLOS
frequencies = 15
grid = {grid}

[experiment]
pipeline = {pipeline}
users = {users}
realizations = {realizations}
antenna_sweep = 1, 2, 3, 4
frequency_sweep = 1, 3, 5, 15
strategies = {strategies}
"""
ALL_STRATEGIES = "none, frequency_only, antenna_only, joint"
WORKLOADS = {
    "ideal-1u": SWEEP_SHAPE.format(grid="uniform", pipeline="ideal", users=1,
                                   realizations=300, strategies=ALL_STRATEGIES),
    "protocol-2u-lossy": SWEEP_SHAPE.format(grid="uniform", pipeline="protocol", users=2,
                                            realizations=30, strategies="joint") + "\n" + LOSSY,
    "ideal-4u-table": SWEEP_SHAPE.format(grid="ieee", pipeline="ideal", users=4,
                                         realizations=60, strategies=ALL_STRATEGIES)
    + f"user_loss_db = 0, 2, 4, 6\n\n[rectenna]\ncurve = {TABLE}\n",
    # not a benchmark workload: a 0.5 ms latency splits each antenna block's
    # first slot, and three users over a lossy link leave rows idle in it
    "split-3u-lossy": SWEEP_SHAPE.format(grid="uniform", pipeline="protocol", users=3,
                                         realizations=40, strategies="joint") + """\
frames = 60

[link]
delivery = lossy
drop_probability = 0.3
latency_s = 0.0005

[adc]
enabled = false
""",
    # not a benchmark workload: the feedback lands after a 40 ms delivery phase
    # ends, and the latency blanks two whole slots and the start of a third
    "dark-2u-late": SWEEP_SHAPE.format(grid="uniform", pipeline="protocol", users=2,
                                       realizations=40, strategies="joint") + """\
frames = 60

[schedule]
wpt_s = 0.04

[link]
delivery = lossy
drop_probability = 0.2
latency_s = 0.05

[adc]
enabled = true
""",
    # not a benchmark workload: frames with no delivery phase at all
    "nowpt-2u": SWEEP_SHAPE.format(grid="uniform", pipeline="protocol", users=2,
                                   realizations=40, strategies="joint") + """\
frames = 60

[schedule]
wpt_s = 0

[link]
delivery = lossy
drop_probability = 0.3
latency_s = 0.002

[adc]
enabled = false
""",
}
DIGESTS = GOLDEN / "workloads.sha256"
# (workload, seed, subcommand) of every run the digests pin
MATRIX = [(w, seed, command) for w in WORKLOADS for seed in (1, 2, 3)
          for command in ("sweep", "frame", "tdma")]

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
    ("h", "budget", "budget.txt"),
    ("i", "budget", "budget.txt"),
    ("i", "validate", STDOUT),
]


def golden_name(config: str, filename: str) -> str:
    return f"{config}_{filename}"


def write_output(config: str, command: str, workdir: Path, seed: int | None = None) -> Path:
    """Run ``command`` on the config or workload named ``config``, at ``seed``
    if given, into a new directory of ``workdir`` that also holds the stdout."""
    ini = workdir / f"{config}.ini"
    ini.write_text(CONFIGS[config] if config in CONFIGS else WORKLOADS[config], encoding="utf-8")
    seeded = [] if seed is None else ["--seed", str(seed)]
    out = workdir / "-".join([config, *seeded[1:], command])
    with redirect_stdout(StringIO()) as stdout:
        assert main([command, "--config", str(ini), "--out", str(out), *seeded]) == 0
    out.mkdir(exist_ok=True)  # validate writes no file
    (out / STDOUT).write_text(stdout.getvalue().replace(str(out), "<out>"), encoding="utf-8")
    return out


@pytest.mark.parametrize("config,command,filename", CASES)
def test_output_matches_golden(config, command, filename, tmp_path):
    out = write_output(config, command, tmp_path)
    expected = (GOLDEN / golden_name(config, filename)).read_bytes()
    assert (out / filename).read_bytes() == expected


def run_digests(workload: str, seed: int, command: str, workdir: Path) -> dict:
    """{"workload/seed/command/file": sha256} of every file one matrix run writes."""
    out = write_output(workload, command, workdir, seed)
    return {f"{workload}/{seed}/{command}/{path.name}":
            hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(out.iterdir())}


def read_digests() -> dict:
    return {name: digest for digest, name in
            (line.split("  ") for line in DIGESTS.read_text(encoding="utf-8").splitlines())}


@pytest.mark.parametrize("workload,seed,command", MATRIX)
def test_workload_outputs_match_digests(workload, seed, command, tmp_path):
    prefix = f"{workload}/{seed}/{command}/"
    pinned = {name: d for name, d in read_digests().items() if name.startswith(prefix)}
    assert run_digests(workload, seed, command, tmp_path) == pinned


USAGE = "usage: PYTHONPATH=src python tests/test_golden.py --write"


def write_goldens(argv: list, golden: Path = GOLDEN) -> int:
    """Rewrite every golden file and the digest matrix under ``golden`` when
    ``argv`` is exactly ``["--write"]``; otherwise print the usage and return 2."""
    if argv != ["--write"]:
        print(USAGE, file=sys.stderr)
        return 2
    golden.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for config, command, filename in CASES:
            out = write_output(config, command, Path(tmp))
            (golden / golden_name(config, filename)).write_bytes((out / filename).read_bytes())
            print(f"wrote {golden_name(config, filename)}", file=sys.stderr)
        digests = {}
        for run in MATRIX:
            digests.update(run_digests(*run, Path(tmp)))
    (golden / DIGESTS.name).write_text("".join(f"{d}  {name}\n" for name, d in digests.items()),
                                       encoding="utf-8")
    print(f"wrote {DIGESTS.name}", file=sys.stderr)
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
    assert (tmp_path / DIGESTS.name).read_bytes() == DIGESTS.read_bytes()


if __name__ == "__main__":
    sys.exit(write_goldens(sys.argv[1:]))
