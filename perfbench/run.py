"""Benchmark of ``wptdas sweep``: one workload, one seed, one run.

    python3 perfbench/run.py --workload ideal-1u --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
With ``--trace 0`` the run reports the end-to-end metrics:

* ``realizations_per_s``: realizations per second of one
  ``cli.main(["sweep", ...])`` call (read the config, run the sweep, write
  the CSV), median over the run's sweeps.
* ``setup_s``: seconds from starting a fresh interpreter to
  ``load_settings`` returning, median over interpreters started at even
  intervals through the run.
* ``peak_rss_mb``: peak resident memory of the process that ran the sweeps
  (this one; set-up probes run in children of their own).

Sweep and set-up times are calibrated for the host's speed at the time they
were taken, each with a kernel of its own kind of work (see
``calibrate.py``); the raw medians are printed alongside.

With ``--trace 1`` the sweeps alternate between untraced and traced, and the
run reports per-layer counts and self times of one traced sweep (see
``tracing.py``) plus the tracing overhead. Every sweep's CSV is checked
(``check.py``); a failed check or a non-zero exit counts as a failed run,
and ``failed / attempted`` is the failed ratio. The last line of standard
output is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from calibrate import calibrated, calibrated_setup  # noqa: E402
from tracing import per_layer_metrics  # noqa: E402
from worker import measure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 16
WORK_DIR = ROOT / ".perfbench-work"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        p.error("--seed must be an unsigned 64-bit value")
    if not 1 <= args.seconds <= 120:
        p.error("--seconds must be in 1..120")
    return args


def run(args) -> int:
    if not (ROOT / "src" / "wptdas" / "cli.py").is_file():
        print(f"error: no wptdas sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    r = w.realizations
    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK_DIR))
    try:
        ini = tmp / "workload.ini"
        ini.write_text(w.ini(str(ROOT), r), encoding="utf-8")
        res = measure({"workload": w.name, "ini": str(ini), "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace, "realizations": r,
                       "out": str(tmp / "out"),
                       "setup_probes": 0 if args.trace else SETUP_PROBES})
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it

    probes = len(res["setup_s"]) + len(res["probe_errors"])
    attempted = res["attempted"] + probes
    failed = res["failed"] + len(res["probe_errors"])
    for err in res["errors"] + res["probe_errors"]:
        print(f"check failed: {err}")
    print(f"workload {w.name}: seed {args.seed}, {r} realizations per sweep, "
          f"{res['attempted']} sweeps, {probes} set-up probes, "
          f"failed_ratio {failed / attempted:.4g} ({failed}/{attempted})")
    if args.trace:
        metrics = report_layers(res, r)
    else:
        metrics = report_end_to_end(res, r)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def sweep_rates(res: dict, r: int, traced: bool) -> tuple:
    """Calibrated and raw realizations per second of the (un)traced sweeps."""
    cal = calibrated(res["sweep_s"], res["kernel_s"])
    keep = [i for i, t in enumerate(res["traced"]) if t == traced]
    return [r / cal[i] for i in keep], [r / res["sweep_s"][i] for i in keep]


def report_end_to_end(res: dict, r: int) -> dict:
    rates, raw = sweep_rates(res, r, traced=False)
    rate = statistics.median(rates)
    print(f"realizations_per_s {rate:.6g} 1/s (median of {len(rates)} calibrated sweeps; "
          f"raw median {statistics.median(raw):.6g})")
    setups = res["setup_s"]
    setup = calibrated_setup(setups, res["start_kernel_s"]) if setups else 0.0
    print(f"setup_s {setup:.6g} s (median of {len(setups)} fresh interpreters, calibrated; "
          f"raw median {statistics.median(setups) if setups else 0.0:.6g})")
    rss_mb = res["peak_rss_kib"] * 1024 / 1e6
    print(f"peak_rss_mb {rss_mb:.6g} MB ({res['rss_base_kib'] * 1024 / 1e6:.6g} MB "
          f"before the first sweep)")
    return {"realizations_per_s": {"value": rate, "unit": "1/s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}


def report_layers(res: dict, r: int) -> dict:
    layers = res["layers"]
    metrics = {}
    for name, unit, _better in per_layer_metrics():
        if name == "trace.overhead_ratio":
            plain = statistics.median(sweep_rates(res, r, traced=False)[0])
            traced = statistics.median(sweep_rates(res, r, traced=True)[0])
            value, note = plain / traced, (f"untraced {plain:.6g} 1/s over traced "
                                           f"{traced:.6g} 1/s")
        else:
            samples = [snap[name] for snap in layers]
            if samples[0] is None:
                value, note = 0, "absent or not exercised"
            elif name.endswith(".self_s"):
                value = statistics.median(samples)
                note = f"median per sweep of {len(samples)} traced sweeps"
            else:
                value, note = samples[0], "per sweep"
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} {value:.6g} {unit} ({note})")
    return metrics


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
