"""Output check for one ``wptdas sweep`` CSV.

Only data rows are compared: the ``#`` header lines carry a config hash
whose definition may change without any result changing. Invariants that
hold for every seed are checked on every sweep; at the default seed the
rows are also compared with the stored reference within 1e-9 relative.

Strategy dominance and the monotone joint trend are checked on
single-user ideal rows, where they hold realization by realization. A
multi-user row also holds the passive share harvested at the other users'
pairs, which depends on the others' choices, so dominance can invert there
by chance; those rows are held to the exact degenerate-cell equalities
and to the user-sum identity instead.
"""

from __future__ import annotations

import math
from pathlib import Path

from workloads import ANTENNA_SWEEP, ALL_STRATEGIES, FREQUENCY_SWEEP, Workload, expected_keys

COLUMNS = "M,N,strategy,user,avg_pdc_watts,stderr_watts,realizations,seed"
REL_TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def data_lines(text: str) -> list:
    """Column header and data rows, without the ``#`` lines."""
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def parse_rows(lines: list) -> list:
    """Rows as (M, N, strategy, user, avg, stderr, realizations, seed)."""
    if not lines or lines[0] != COLUMNS:
        raise ValueError(f"column header is {lines[0] if lines else None!r}")
    rows = []
    for ln in lines[1:]:
        f = ln.split(",")
        if len(f) != 8:
            raise ValueError(f"row has {len(f)} fields: {ln!r}")
        rows.append((int(f[0]), int(f[1]), f[2], int(f[3]),
                     float(f[4]), float(f[5]), int(f[6]), int(f[7])))
    return rows


def reference_path(w: Workload) -> Path:
    return REFERENCE_DIR / f"{w.name}.csv"


def check_csv(text: str, w: Workload, realizations: int, seed: int,
              reference: list | None = None) -> list:
    """Return a list of problems; empty when the output is correct.

    ``reference`` is the reference's data lines, compared when given.
    """
    lines = data_lines(text)
    try:
        rows = parse_rows(lines)
    except ValueError as exc:
        return [f"unparsable output: {exc}"]
    errors = []
    keys = [r[:4] for r in rows]
    if keys != expected_keys(w):
        missing = set(expected_keys(w)) - set(keys)
        errors.append(f"row set differs from the sweep shape ({len(keys)} rows, "
                      f"{len(missing)} expected keys missing)")
    for r in rows:
        if not all(math.isfinite(x) and x >= 0 for x in r[4:6]):
            errors.append(f"non-finite or negative power in row {r[:4]}")
        if r[6:] != (realizations, seed):
            errors.append(f"row {r[:4]} reports realizations/seed {r[6:]}")
    avg = {r[:4]: r[4] for r in rows}
    if w.pipeline == "ideal" and w.users == 1:
        errors += _single_user_trends(avg)
    if w.pipeline == "ideal" and tuple(w.strategies) == ALL_STRATEGIES:
        errors += _degenerate_cells(avg, w.users)
    if w.users > 1:
        errors += _user_sums(avg, w)
    if reference is not None:
        errors += _against_reference(lines, reference)
    return errors


def _single_user_trends(avg: dict) -> list:
    errors = []
    for m in ANTENNA_SWEEP:
        for n in FREQUENCY_SWEEP:
            v = {s: avg.get((m, n, s, 1)) for s in ALL_STRATEGIES}
            if None in v.values():
                continue
            if not (v["joint"] >= v["antenna_only"] >= v["none"]
                    and v["joint"] >= v["frequency_only"] >= v["none"]):
                errors.append(f"strategy dominance fails at M={m}, N={n}")
    joint = {(m, n): avg.get((m, n, "joint", 1))
             for m in ANTENNA_SWEEP for n in FREQUENCY_SWEEP}
    lines = ([[joint[m, n] for n in FREQUENCY_SWEEP] for m in ANTENNA_SWEEP]
             + [[joint[m, n] for m in ANTENNA_SWEEP] for n in FREQUENCY_SWEEP])
    for seq in lines:
        if None not in seq and any(x > y for x, y in zip(seq, seq[1:])):
            errors.append(f"joint not monotone over nested sets: {seq}")
    return errors


def _degenerate_cells(avg: dict, users: int) -> list:
    """One antenna: joint = frequency_only, antenna_only = none.
    One frequency: joint = antenna_only, frequency_only = none."""
    errors = []
    ids = list(range(1, users + 1)) + ([0] if users > 1 else [])
    for m in ANTENNA_SWEEP:
        for n in FREQUENCY_SWEEP:
            pairs = []
            if m == 1:
                pairs += [("joint", "frequency_only"), ("antenna_only", "none")]
            if n == 1:
                pairs += [("joint", "antenna_only"), ("frequency_only", "none")]
            for u in ids:
                for a, b in pairs:
                    if avg.get((m, n, a, u)) != avg.get((m, n, b, u)):
                        errors.append(f"{a} != {b} at M={m}, N={n}, user {u}")
    return errors


def _user_sums(avg: dict, w: Workload) -> list:
    errors = []
    for m in ANTENNA_SWEEP:
        for n in FREQUENCY_SWEEP:
            for s in w.strategies:
                total = avg.get((m, n, s, 0))
                parts = [avg.get((m, n, s, u)) for u in range(1, w.users + 1)]
                if total is None or None in parts:
                    continue
                if not math.isclose(total, math.fsum(parts), rel_tol=REL_TOL):
                    errors.append(f"user-sum row differs from the per-user sum "
                                  f"at M={m}, N={n}, {s}")
    return errors


def _against_reference(lines: list, reference: list) -> list:
    if len(lines) != len(reference):
        return [f"{len(lines)} lines, reference has {len(reference)}"]
    errors = []
    for got, want in zip(lines, reference):
        if got == want:
            continue
        g, r = got.split(","), want.split(",")
        same = len(g) == len(r) and all(
            a == b or _close(a, b) for a, b in zip(g, r))
        if not same:
            errors.append(f"row differs from the reference: {got!r} vs {want!r}")
    return errors


def _close(a: str, b: str) -> bool:
    try:
        return math.isclose(float(a), float(b), rel_tol=REL_TOL)
    except ValueError:
        return False
