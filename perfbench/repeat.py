"""Repeat the benchmark over ten seeds and summarise each metric.

    python3 perfbench/repeat.py
    python3 perfbench/repeat.py --record "label"

For each workload, runs ``run.py`` for ``run_seconds`` (from
BENCHMARK.json) with seeds 1..10 and prints, per end-to-end metric, the
median, the quartiles and the quartile spread as a share of the median (the
figure each metric's bound in BENCHMARK.json is held to). ``--record`` also
makes one traced run per workload at seed 1 and appends the whole summary,
labelled, to ``trajectory.json``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TRAJECTORY = BENCH_DIR / "trajectory.json"
RUNS = 10

sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS  # noqa: E402


def host() -> str:
    from importlib.metadata import version

    return (f"{platform.machine()}, {os.cpu_count()} CPUs, "
            f"{platform.python_implementation()} {platform.python_version()}, "
            f"numpy {version('numpy')}")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
                         timeout=seconds + 170)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(results: list) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--record", metavar="LABEL", help="append the summary to trajectory.json")
    args = p.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    point = {"label": args.record, "host": host(), "run_seconds": seconds,
             "seeds": list(range(1, RUNS + 1)), "workloads": {}}
    failed = 0
    for name in WORKLOADS:
        results = [run_once(name, seed, seconds, 0) for seed in point["seeds"]]
        failed += sum(r["failed"] for r in results)
        entry = {"end_to_end": summarise(results),
                 "correct": all(r["correct"] for r in results)}
        for metric, s in entry["end_to_end"].items():
            print(f"{name} {metric}: median {s['median']:.6g} {s['unit']} "
                  f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, spread {s['spread']:.4f})")
        if args.record:
            traced = run_once(name, 1, seconds, 1)
            entry["per_layer_seed_1"] = {k: v["value"] for k, v in traced["metrics"].items()}
        point["workloads"][name] = entry
    if args.record:
        history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        history.append(point)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n", encoding="utf-8")
        print(f"recorded '{args.record}' in {TRAJECTORY}")
    print(f"failed runs: {failed}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
