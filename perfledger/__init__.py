"""perfledger: this repository's benchmark.

Six workloads, each run in its own fresh process by ``perfledger/run.py``
(the command ``BENCHMARK.json`` names), report the end-to-end metrics a
user of the simulator pays -- host time per pass, simulated packets per
host second, set-up time, peak memory -- next to the modelled system's
own results (simulated completion time and wire bytes).  A separate
traced run splits each workload's host time across the repo's modules.

Nothing under ``src/`` knows about this package: every number is taken
from outside, by timing calls into public functions.  See ``README.md``.
"""

import json
import os

#: The checkout: ``BENCHMARK.json``, ``src/`` and this package live here, and
#: every scratch file the benchmark writes stays inside it.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark() -> dict:
    """The contract at the repo root: workloads, metric names, units, bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)
