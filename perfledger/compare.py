"""Compare two sets of result files, one row per (workload, end-to-end metric).

    python -m perfledger compare A.json [A2.json ...] -- B.json [B2.json ...]

A is the parent, B the change.  Each file is what ``run.py --out`` or
``python -m perfledger run --out`` wrote.

Host-time and memory rows are judged on medians, with the bound
``BENCHMARK.json`` fixes for the metric:

* ``unresolved`` -- either side has fewer than three runs, so its spread
  is unknown;
* ``regressed``  -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- either side's inter-quartile distance is wider than
  the bound, so the runs cannot tell a change from noise;
* ``improved``   -- B's median is better by more than either side's own
  inter-quartile distance (a claim still needs the ten alternating pairs
  the choosing-metrics guide asks for; this is the row it would quote);
* ``unchanged``  -- none of the above.

Simulated results are the modelled system's own and repeat bit for bit
for one seed, so ``sim_time_s`` and ``sim_wire_bytes`` are judged run
against run on every (workload, seed) both sides share, with the
tolerances in :data:`EXACT` instead of the across-seed bounds of
``BENCHMARK.json``: any pair that differs makes the row ``regressed`` or
``improved`` (``unresolved`` when no seed is shared).  ``sim_digest`` and
the per-pass counts of the same pairs are compared exactly and listed
separately.

The exit code is 0 only if no row regressed and every simulated statistic
is identical: a simulator-only change must leave them bit-equal, and a
protocol change has to say that it is one.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from typing import Dict, List, Tuple

from . import load_benchmark

__all__ = ["main", "load_runs", "compare", "EXACT", "MIN_RUNS"]

#: Relative tolerance of the metrics judged pair by pair.
EXACT = {"sim_time_s": 1e-9, "sim_wire_bytes": 0.0}
#: Fewer runs than this on either side cannot show a spread.
MIN_RUNS = 3


def load_runs(paths: List[str]) -> List[dict]:
    """Every untraced run in ``paths`` (suite files hold several)."""
    runs: List[dict] = []
    for path in paths:
        with open(path) as fh:
            data = json.load(fh)
        for run in data.get("runs", [data]):
            if not run.get("trace"):
                runs.append(run)
    return runs


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _worse(a: float, b: float, better: str) -> float:
    """By what share of ``a`` the value ``b`` is worse (negative: better)."""
    delta = b - a if better == "lower" else a - b
    if a == 0:
        return 0.0 if delta == 0 else math.copysign(math.inf, delta)
    return delta / abs(a)


def _collect(runs: List[dict]) -> Dict[Tuple[str, str], List[float]]:
    table: Dict[Tuple[str, str], List[float]] = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            table.setdefault((run["workload"], name), []).append(metric["value"])
    return table


def _shared(a_runs: List[dict], b_runs: List[dict]) -> List[Tuple[dict, dict]]:
    """(A run, B run) for every (workload, seed, sizes) both sides have."""
    b_by_key = {(r["workload"], r["seed"], bool(r.get("smoke"))): r for r in b_runs}
    pairs = []
    for a_run in a_runs:
        b_run = b_by_key.get((a_run["workload"], a_run["seed"], bool(a_run.get("smoke"))))
        if b_run is not None:
            pairs.append((a_run, b_run))
    return pairs


def compare(a_runs: List[dict], b_runs: List[dict], end_to_end: List[dict]):
    """Rows for the end-to-end table and the list of exact differences."""
    a_table, b_table = _collect(a_runs), _collect(b_runs)
    pairs = _shared(a_runs, b_runs)
    workloads = sorted({w for w, _ in a_table} & {w for w, _ in b_table})
    rows = []
    for workload in workloads:
        for spec in end_to_end:
            name, better = spec["name"], spec["better"]
            key = (workload, name)
            if key not in a_table or key not in b_table:
                continue
            a_q1, a_med, a_q3 = _quartiles(a_table[key])
            b_q1, b_med, b_q3 = _quartiles(b_table[key])
            if name in EXACT:
                bound = EXACT[name]
                changes = [
                    _worse(a["metrics"][name]["value"], b["metrics"][name]["value"], better)
                    for a, b in pairs if a["workload"] == workload
                ]
                worse = max(changes, key=abs, default=0.0)
                if not changes:
                    verdict = "unresolved"
                elif max(changes) > bound:
                    verdict = "regressed"
                elif min(changes) < -bound:
                    verdict = "improved"
                else:
                    verdict = "unchanged"
            else:
                bound = spec["bound"]
                worse = _worse(a_med, b_med, better)
                spread = max(a_q3 - a_q1, b_q3 - b_q1) / abs(a_med) if a_med else math.inf
                if min(len(a_table[key]), len(b_table[key])) < MIN_RUNS:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "regressed"
                elif spread > bound:
                    verdict = "unresolved"
                elif -worse > spread:
                    verdict = "improved"
                else:
                    verdict = "unchanged"
            rows.append(dict(
                workload=workload, metric=name, unit=spec["unit"],
                a=(a_q1, a_med, a_q3), b=(b_q1, b_med, b_q3), n=(len(a_table[key]), len(b_table[key])),
                worse=worse, bound=bound, verdict=verdict,
            ))
    exact = []
    for a_run, b_run in pairs:
        label = f"{a_run['workload']} seed {a_run['seed']}"
        if a_run["sim_digest"] != b_run["sim_digest"]:
            exact.append(f"{label}: sim_digest {a_run['sim_digest']} != {b_run['sim_digest']}")
        for name, value in a_run["counts"].items():
            if b_run["counts"].get(name) != value:
                exact.append(f"{label}: count {name} {value} != {b_run['counts'].get(name)}")
    return rows, exact


def main(argv: List[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    a_paths, b_paths = argv[:split], argv[split + 1:]
    if not a_paths or not b_paths:
        print("perfledger compare: need at least one file on each side of --", file=sys.stderr)
        return 2
    end_to_end = load_benchmark()["end_to_end"]
    rows, exact = compare(load_runs(a_paths), load_runs(b_paths), end_to_end)
    print(f"{'workload':16s} {'metric':24s} {'unit':5s} {'A median [q1, q3]':>40s} "
          f"{'B median [q1, q3]':>40s} {'worse by':>9s} {'bound':>7s}  verdict")
    for row in rows:
        (a_q1, a_med, a_q3), (b_q1, b_med, b_q3) = row["a"], row["b"]
        print(
            f"{row['workload']:16s} {row['metric']:24s} {row['unit']:5s} "
            f"{a_med:14.6g} [{a_q1:10.5g}, {a_q3:10.5g}] "
            f"{b_med:14.6g} [{b_q1:10.5g}, {b_q3:10.5g}] "
            f"{100 * row['worse']:+8.2f}% {100 * row['bound']:6.3g}%  {row['verdict']}"
            f"  (n={row['n'][0]}/{row['n'][1]})"
        )
    if exact:
        print("\nsimulated statistics DIFFER (expected only for a protocol change):")
        for line in exact:
            print("  " + line)
    else:
        print("\nsimulated statistics: identical on every shared (workload, seed)")
    regressed = any(row["verdict"] == "regressed" for row in rows)
    sim_changed = bool(exact) or any(
        row["metric"] in EXACT and row["verdict"] in ("regressed", "improved") for row in rows
    )
    return 1 if regressed or sim_changed else 0
