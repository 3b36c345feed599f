"""``python -m perfledger run`` / ``python -m perfledger compare``.

``run`` is the whole suite for a person at a terminal: every workload in
its own fresh subprocess (one at a time -- the box has two cores and the
client is single-threaded), every end-to-end metric printed by name and
unit, outputs checked, and a non-zero exit code if anything failed.
``--traced`` adds the per-layer run of each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import List

from . import ROOT, compare, load_benchmark

_RUN = os.path.join(ROOT, "perfledger", "run.py")


def _one(workload: str, args, trace: int, scratch: str) -> dict:
    out = os.path.join(scratch, f"{workload}.{trace}.json")
    command = [
        sys.executable, _RUN, "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--out", out,
    ]
    if args.smoke:
        command.append("--smoke")
    if trace and args.trace_out:
        os.makedirs(args.trace_out, exist_ok=True)
        command += ["--trace-out", os.path.join(args.trace_out, f"{workload}.spans.json")]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0 or not os.path.exists(out):
        raise SystemExit(f"perfledger: {workload} exited with code {done.returncode}")
    with open(out) as fh:
        return json.load(fh)


def _print(run: dict, nonzero_only: bool) -> None:
    for name, metric in run["metrics"].items():
        if nonzero_only and not metric["value"]:
            continue
        print(f"  {run['workload']:16s} {name:58s} {metric['value']:16.6g} {metric['unit']}")


def _run(argv: List[str]) -> int:
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(prog="python -m perfledger run")
    parser.add_argument("--traced", action="store_true", help="also run every workload traced")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (the tests use this)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--out", help="write every run's full result here (input to compare)")
    parser.add_argument("--trace-out", help="directory for the traced runs' span files")
    args = parser.parse_args(argv)
    runs = []
    with tempfile.TemporaryDirectory(prefix=".perfledger-", dir=ROOT) as scratch:
        for workload in (w["name"] for w in benchmark["workloads"]):
            run = _one(workload, args, 0, scratch)
            runs.append(run)
            print(f"{workload}: {run['attempted']} ops, failed_share = {run['failed_share']:g}, "
                  f"sim_digest {run['sim_digest']}")
            _print(run, nonzero_only=False)
            if args.traced:
                traced = _one(workload, args, 1, scratch)
                runs.append(traced)
                print(f"{workload} (traced; zero-valued layers omitted):")
                _print(traced, nonzero_only=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"schema": 1, "runs": runs}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    failed = [run["workload"] for run in runs if run["failed"] or not run["correct"]]
    if failed:
        print(f"perfledger: FAILED ops in {sorted(set(failed))}", file=sys.stderr)
        return 1
    return 0


def main(argv: List[str]) -> int:
    if argv and argv[0] == "run":
        return _run(argv[1:])
    if argv and argv[0] == "compare":
        return compare.main(argv[1:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
