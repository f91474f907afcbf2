"""Write the reference CSV rows the benchmark compares against.

    python3 perfbench/make_reference.py

Runs one sweep of every workload at the default seed and stores its data
rows (the ``#`` lines dropped) in ``perfbench/reference/<workload>.csv``.
The stored files come from the seed commit; rewrite them only in a change
that is meant to change the sweep's results, and say so.
"""

import shutil
import sys
import tempfile
from pathlib import Path

import worker
from check import check_csv, data_lines, reference_path
from workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(worker.BENCH_DIR).parent
WORK_DIR = ROOT / ".perfbench-work"


def main() -> int:
    cli = worker.import_cli()
    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        for w in WORKLOADS.values():
            ini = tmp / f"{w.name}.ini"
            ini.write_text(w.ini(str(ROOT)), encoding="utf-8")
            argv = worker.sweep_argv(str(ini), DEFAULT_SEED, str(tmp))
            status, _secs, text = worker.run_sweep(cli, argv, str(tmp / "sweep_results.csv"))
            problems = [f"exit {status!r}"] if status != 0 else check_csv(
                text, w, w.realizations, DEFAULT_SEED)
            if problems:
                print(f"{w.name}: {problems}", file=sys.stderr)
                return 1
            path = reference_path(w)
            path.parent.mkdir(exist_ok=True)
            path.write_text("\n".join(data_lines(text)) + "\n", encoding="utf-8")
            print(f"{w.name}: {path}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
