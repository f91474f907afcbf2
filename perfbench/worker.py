"""The measuring loop of the benchmark, and its set-up probe.

    python3 perfbench/worker.py setup <ini> <seed> <t0>

``measure`` repeats ``wptdas sweep`` through ``cli.main`` for the given
number of seconds and checks every CSV. The calibration kernel
(``calibrate.py``) runs before the first sweep and after every sweep, so
each sweep lies between two kernel timings. Set-up probes are spread
evenly over the same seconds, run after a sweep when they are due, each
followed by its own calibration kernel.

A set-up probe is this file run as ``setup`` in a fresh interpreter: it
prints the seconds from ``t0`` (the parent's ``perf_counter`` just before
it started this interpreter) until ``load_settings`` returned. On Linux
``perf_counter`` reads CLOCK_MONOTONIC, which every process shares. The
imports above the measured part are kept to the few modules the
interpreter has loaded already.
"""

import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PROBE_TIMEOUT_S = 60


def import_cli():
    """Import ``wptdas.cli`` from this checkout's ``src``, nowhere else."""
    sys.path.insert(0, SRC)
    from wptdas import cli
    where = os.path.dirname(os.path.abspath(cli.__file__))
    if where != os.path.join(SRC, "wptdas"):
        raise RuntimeError(f"imported wptdas from {where}, not from {SRC}")
    return cli


def setup_seconds(ini: str, seed: int, t0: float) -> float:
    cli = import_cli()
    cli.load_settings(ini, seed)
    return time.perf_counter() - t0


def setup_probe(ini: str, seed: int) -> float:
    """Seconds from a fresh interpreter to ``load_settings`` done."""
    import subprocess

    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "setup", ini, str(seed),
                          repr(t0)], cwd=ROOT, stdout=subprocess.PIPE,
                         timeout=PROBE_TIMEOUT_S, check=True, text=True)
    return float(out.stdout.strip().splitlines()[-1])


def sweep_argv(ini: str, seed: int, out_dir: str) -> list:
    return ["sweep", "--config", ini, "--seed", str(seed), "--quiet",
            "--out", out_dir, "--jobs", "1"]


def run_sweep(cli, argv: list, csv_path: str, tracer=None):
    """One CLI sweep; returns (exit code or error text, seconds, CSV text)."""
    if os.path.exists(csv_path):
        os.remove(csv_path)
    if tracer is not None:
        tracer.reset()
        tracer.install()
    start = time.perf_counter()
    try:
        status = cli.main(argv)
    except Exception as exc:  # a crash is a failed run, not a benchmark error
        status = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    text = None
    if os.path.exists(csv_path):
        with open(csv_path, encoding="utf-8") as fh:
            text = fh.read()
    return status, elapsed, text


def measure(spec: dict) -> dict:
    import resource
    import subprocess

    cli = import_cli()
    sys.path.insert(0, BENCH_DIR)
    from calibrate import kernel_seconds, start_kernel_seconds
    from check import check_csv, data_lines, reference_path
    from tracing import Tracer
    from workloads import DEFAULT_SEED, GRID_COUNT, WORKLOADS

    w = WORKLOADS[spec["workload"]]
    seed, r = spec["seed"], spec["realizations"]
    reference = None
    if seed == DEFAULT_SEED and r == w.realizations:
        reference = data_lines(reference_path(w).read_text(encoding="utf-8"))
    useful = r * w.users * w.max_antennas * GRID_COUNT
    tracer = Tracer() if spec["trace"] else None
    argv = sweep_argv(spec["ini"], seed, spec["out"])
    csv_path = os.path.join(spec["out"], "sweep_results.csv")

    probes = spec.get("setup_probes", 0)
    setup_s, start_s, probe_errors = [], [], []
    sweep_s, traced, kernel_s, layers, errors = [], [], [kernel_seconds()], [], []
    rss_base_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    first = None
    attempted = failed = 0
    start = time.perf_counter()
    deadline = start + spec["seconds"]
    while True:
        is_traced = tracer is not None and attempted % 2 == 1
        status, elapsed, text = run_sweep(cli, argv, csv_path, tracer if is_traced else None)
        kernel_s.append(kernel_seconds())
        attempted += 1
        sweep_s.append(elapsed)
        traced.append(is_traced)
        problems = []
        if status != 0:
            problems.append(f"sweep exited with {status!r}")
        elif text is None:
            problems.append("sweep wrote no CSV")
        else:
            problems += check_csv(text, w, r, seed, reference)
            if first is None:
                first = data_lines(text)
            elif data_lines(text) != first:
                problems.append("CSV differs from the first sweep of this run")
        if is_traced:
            snap = tracer.snapshot(useful)
            if layers and _counts(snap) != _counts(layers[0]):
                problems.append("per-layer counts differ between sweeps of one seed")
            layers.append(snap)
        if problems:
            failed += 1
            errors += problems[: max(0, 5 - len(errors))]
        now = time.perf_counter()
        done = now >= deadline and (tracer is None or attempted >= 2)
        # set-up probe k is due k/probes of the way through the run
        while (len(setup_s) + len(probe_errors) < probes
               and (done or now >= start + (len(setup_s) + len(probe_errors))
                    * spec["seconds"] / probes)):
            try:
                setup = setup_probe(spec["ini"], seed)
                start_s.append(start_kernel_seconds(PROBE_TIMEOUT_S))
                setup_s.append(setup)
            except (subprocess.SubprocessError, ValueError, IndexError) as exc:
                probe_errors.append(f"set-up probe failed: {exc}")
            now = time.perf_counter()
        if done:
            break

    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "sweep_s": sweep_s,
        "traced": traced,
        "kernel_s": kernel_s,
        "layers": layers,
        "setup_s": setup_s,
        "start_kernel_s": start_s,
        "probe_errors": probe_errors,
        "rss_base_kib": rss_base_kib,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def _counts(snap: dict) -> dict:
    """The values of a snapshot that must repeat exactly for one seed."""
    return {k: v for k, v in snap.items() if not k.endswith(".self_s")}


def main(argv: list) -> int:
    if argv[:1] == ["setup"] and len(argv) == 4:
        print(repr(setup_seconds(argv[1], int(argv[2]), float(argv[3]))))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
