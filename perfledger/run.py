#!/usr/bin/env python3
"""The benchmark's command: one workload, in this fresh process.

    python3 perfledger/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fresh process per workload
is what makes the numbers comparable: no workload inherits another's
heap (the old rule "run flow rows before packet rows" is gone) and
``peak_rss_mb`` and ``setup_s`` describe this workload alone.
"""

import os
import sys
import time

_START = time.perf_counter()
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# One client, one core: pin every numeric library to a single thread and
# fix the hash seed before numpy (or the interpreter's str hashing) starts.
_PINS = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
    "REPRO_JOBS": "1", "PYTHONHASHSEED": "0",
}


def _main() -> int:
    if any(os.environ.get(name) != value for name, value in _PINS.items()):
        os.environ.update(_PINS)
        os.execv(sys.executable, [sys.executable] + sys.argv)  # same process, pinned
    if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
        print(f"perfledger: no src/repro under {_ROOT}: nothing to measure", file=sys.stderr)
        return 2
    sys.path[:0] = [_ROOT, os.path.join(_ROOT, "src")]
    from perfledger import bench  # imports numpy, repro and every workload's modules

    return bench.main(sys.argv[1:], (_START, time.perf_counter()))


if __name__ == "__main__":
    sys.exit(_main())
