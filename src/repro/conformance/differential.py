"""Packet-vs-flow differential: the flow mode equivalence gauntlet.

The flow simulator (``sim_mode="flow"``) is only trustworthy because
every claim it makes is checked against the packet kernel on identical
inputs.  :func:`run_differential` executes one
:class:`~repro.conformance.runner.ConformanceCase` under **both**
modes -- same cluster spec, same seeded tensors, same options -- and
enforces the equivalence contract:

* **tensors**: bit-identical (``np.array_equal`` on the raw float32
  buffers, not approximate closeness);
* **wire counters**: exactly equal -- ``bytes_sent``, ``packets_sent``,
  ``upward_bytes``, ``downward_bytes``, plus the protocol counters
  (``rounds``, ``retransmissions``, ``duplicates``);
* **completion time**: within a documented relative tolerance.
  Baselines run over :class:`~repro.netsim.flow.FlowTransport`, which
  books each segment through the packet kernel's own
  ``Network.book_send`` / ``book_receive``, so their times must agree;
  the rack-hierarchical, SwitchML* and Parallax flow timelines agree to
  rounding too (:data:`TRANSPORT_TIME_RTOL` bounds them all).  Only the
  vectorized flat-OmniReduce engine books cross-stream contention out
  of order and is held to :data:`~repro.core.flowreduce.TIME_RTOL`
  (documented in ``docs/performance.md``).

Both runs must *also* individually pass the dense oracle and counter
sanity checks; the packet run keeps the invariant monitors attached
(flow mode bypasses the per-packet trace stream, so its wire behaviour
is vouched for by the exact counter equality instead).

:func:`flow_capable` declares which case axes flow mode admits;
:func:`differential_matrix` builds the standard sweep -- every registry
algorithm on the shared axes, plus OmniReduce's flow-supported extras
(patterns, transports, block sizes, tail elements, stragglers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

import numpy as np

from ..baselines import registry
from ..core.flowreduce import TIME_RTOL
from ..netsim.flow import FlowUnsupported
from .patterns import SPARSITY_PATTERNS
from .runner import CaseReport, ConformanceCase, _LOSSY_FAULTS, run_case

__all__ = [
    "TRANSPORT_TIME_RTOL",
    "DifferentialReport",
    "flow_capable",
    "run_differential",
    "differential_sweep",
    "differential_matrix",
]

#: Relative completion-time tolerance for every collective but flat
#: OmniReduce: FlowTransport baselines book through the packet kernel's
#: own ``Network`` helpers, and the rack-hierarchical, SwitchML* and
#: Parallax flow timelines reproduce packet mode to rounding.
TRANSPORT_TIME_RTOL = 1e-9

#: Exact-match counter fields of CollectiveResult.
_EXACT_COUNTERS = (
    "bytes_sent",
    "packets_sent",
    "upward_bytes",
    "downward_bytes",
    "rounds",
    "retransmissions",
    "duplicates",
)


def time_tolerance(algorithm: str) -> float:
    """The documented relative completion-time tolerance for ``algorithm``."""
    return TIME_RTOL if algorithm == "omnireduce" else TRANSPORT_TIME_RTOL


def flow_capable(case: ConformanceCase) -> Optional[str]:
    """Why ``case`` cannot run in flow mode, or ``None`` if it can.

    Mirrors the :class:`~repro.netsim.flow.FlowUnsupported` gates:
    per-packet loss, the datagram transport's retransmission timers, and
    aggregator crash/failover orchestration all need packet events.
    Stragglers (deterministic start delays / slowdowns) are supported.
    """
    if case.transport == "dpdk":
        return "datagram transport needs per-packet retransmission timers"
    if case.fault in _LOSSY_FAULTS:
        return "packet loss is decided per packet"
    if case.fault == "crash-failover":
        return "crash/failover re-routes individual in-flight packets"
    if case.topology != "flat" and case.algorithm.startswith(
        ("omnireduce", "switchml")
    ):
        # The vectorized flat-OmniReduce engine books NIC stages per
        # stream; shared topology pipes need global send-order replay,
        # which only the rack-hierarchical engine (and FlowTransport
        # baselines) perform.
        return "flat OmniReduce engine cannot replay shared topology pipes"
    return None


@dataclass
class DifferentialReport:
    """Outcome of one packet-vs-flow differential."""

    case: ConformanceCase  #: the packet-mode base case
    packet: Optional[CaseReport] = None
    flow: Optional[CaseReport] = None
    problems: List[str] = field(default_factory=list)
    #: Set when flow mode (correctly or not) refused the case.
    unsupported: Optional[str] = None
    time_rel_err: float = 0.0
    #: The packet-vs-flow comparisons that failed: ``differential:``
    #: ``tensors``, ``counters`` or ``time``.
    mismatches: Set[str] = field(default_factory=set)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def checks(self) -> Set[str]:
        """Every check that fired: both sides' and the comparisons."""
        fired = set(self.mismatches)
        for side in (self.packet, self.flow):
            if side is not None:
                fired |= side.checks
        return fired

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        if self.unsupported and self.ok:
            status = "SKIP"
        lines = [
            f"{status} {self.case.case_id} "
            f"(time_rel_err={self.time_rel_err:.3e})"
        ]
        lines.extend(f"  - {p}" for p in self.problems)
        return "\n".join(lines)


def run_differential(case: ConformanceCase) -> DifferentialReport:
    """Run ``case`` under packet and flow modes and diff the results.

    ``case`` must be packet-mode (``sim_mode="packet"``); the flow twin
    is derived with ``case.with_(sim_mode="flow")``.  If the case hits a
    :func:`flow_capable` exclusion, the report is marked ``unsupported``
    and passes only if flow mode *did* raise
    :class:`~repro.netsim.flow.FlowUnsupported` (silently producing
    numbers for an unsupported configuration is itself a bug).
    """
    if case.sim_mode != "packet":
        case = case.with_(sim_mode="packet")
    report = DifferentialReport(case=case)
    reason = flow_capable(case)

    flow_case = case.with_(sim_mode="flow")
    try:
        report.flow = run_case(flow_case)
    except FlowUnsupported as exc:
        report.unsupported = str(exc)
        if reason is None:
            report.problems.append(
                f"flow mode unexpectedly refused a supported case: {exc}"
            )
        return report
    if reason is not None:
        report.problems.append(
            f"flow mode accepted an unsupported case ({reason}); "
            "it must raise FlowUnsupported"
        )
        return report

    report.packet = run_case(case)

    for side_name, side in (("packet", report.packet), ("flow", report.flow)):
        if not side.ok:
            report.problems.extend(
                f"{side_name}: {p}" for p in side.problems()
            )
    pres, fres = report.packet.result, report.flow.result
    if pres is None or fres is None:
        report.problems.append("one side produced no result")
        return report

    # Tensors: bit-identical, worker by worker.
    if len(pres.outputs) != len(fres.outputs):
        report.problems.append(
            f"output count differs: packet {len(pres.outputs)} vs "
            f"flow {len(fres.outputs)}"
        )
    else:
        for worker, (p_out, f_out) in enumerate(zip(pres.outputs, fres.outputs)):
            if not np.array_equal(
                np.asarray(p_out), np.asarray(f_out), equal_nan=True
            ):
                diff = int(
                    (np.asarray(p_out) != np.asarray(f_out)).sum()
                )
                report.mismatches.add("differential:tensors")
                report.problems.append(
                    f"worker {worker} tensor differs in {diff} elements "
                    "(bit-exact equality required)"
                )
                break

    # Wire and protocol counters: exactly equal.
    for name in _EXACT_COUNTERS:
        p_val, f_val = getattr(pres, name), getattr(fres, name)
        if p_val != f_val:
            report.mismatches.add("differential:counters")
            report.problems.append(
                f"{name} differs: packet {p_val} vs flow {f_val} "
                "(exact equality required)"
            )

    # Completion time: within the documented tolerance.
    rtol = time_tolerance(case.algorithm)
    denom = max(abs(pres.time_s), 1e-30)
    report.time_rel_err = abs(fres.time_s - pres.time_s) / denom
    if report.time_rel_err > rtol:
        report.mismatches.add("differential:time")
        report.problems.append(
            f"time_s differs by {report.time_rel_err:.3e} rel "
            f"(packet {pres.time_s:.9e} vs flow {fres.time_s:.9e}, "
            f"tolerance {rtol:g})"
        )
    return report


def differential_sweep(cases: List[ConformanceCase]) -> List[DifferentialReport]:
    """Run every differential; never raises (reports carry failures)."""
    return [run_differential(case) for case in cases]


def differential_matrix(level: str = "smoke") -> List[ConformanceCase]:
    """The standard packet-vs-flow differential matrix.

    ``smoke`` (CI-sized): every registry algorithm on uniform and
    all-zero patterns, plus OmniReduce's flow-supported extras --
    clustered/dense patterns, the TCP transport, a straggler fault, a
    non-divisible tail, and a multi-worker-per-shard shape.  ``full``
    widens worker counts, block sizes, and seeds.

    Only flow-capable axes appear here; the excluded axes (dpdk, lossy
    faults, crash-failover) are covered by tests asserting flow mode
    *refuses* them.
    """
    if level not in ("smoke", "full"):
        raise ValueError("level must be 'smoke' or 'full'")
    algorithms = sorted(registry.ALGORITHMS)
    cases: List[ConformanceCase] = []

    if level == "smoke":
        for algorithm in algorithms:
            cases.append(ConformanceCase(algorithm=algorithm, pattern="uniform"))
            cases.append(ConformanceCase(algorithm=algorithm, pattern="all-zero"))
        for pattern in ("clustered", "dense"):
            cases.append(ConformanceCase(algorithm="omnireduce", pattern=pattern))
        cases.append(ConformanceCase(algorithm="omnireduce", transport="tcp"))
        cases.append(ConformanceCase(algorithm="omnireduce", fault="straggler"))
        # Non-divisible tail: elements not a multiple of the block size.
        cases.append(
            ConformanceCase(algorithm="omnireduce", elements=2048 - 17)
        )
        # Fewer shards than workers: multicast fan-out over shared NICs.
        cases.append(
            ConformanceCase(algorithm="omnireduce", workers=4, aggregators=2)
        )
        # Oversubscribed fat-tree: shared uplink/spine pipes under both
        # modes.  The ring baseline runs over FlowTransport (held to the
        # exact transport tolerance even through the pipes), the
        # rack-hierarchical engine replays them analytically, and flat
        # OmniReduce must *refuse* (covered via flow_capable).
        cases.append(ConformanceCase(algorithm="ring", topology="fat-tree-2x"))
        for pattern in ("uniform", "all-zero"):
            cases.append(
                ConformanceCase(
                    algorithm="rackhier", topology="fat-tree-2x", pattern=pattern
                )
            )
        cases.append(
            ConformanceCase(
                algorithm="rackhier", topology="fat-tree-4x", fault="straggler"
            )
        )
        cases.append(
            ConformanceCase(algorithm="omnireduce", topology="fat-tree-2x")
        )
        return cases

    for algorithm in algorithms:
        for pattern in SPARSITY_PATTERNS:
            for workers in (2, 4, 8):
                cases.append(
                    ConformanceCase(
                        algorithm=algorithm, pattern=pattern, workers=workers
                    )
                )
    for block_size in (32, 256):
        cases.append(ConformanceCase(algorithm="omnireduce", block_size=block_size))
    cases.append(
        ConformanceCase(algorithm="omnireduce", elements=2048 - 17, block_size=64)
    )
    cases.append(ConformanceCase(algorithm="omnireduce", transport="tcp"))
    for seed in (0, 1, 2):
        cases.append(
            ConformanceCase(algorithm="omnireduce", fault="straggler", seed=seed)
        )
        cases.append(
            ConformanceCase(
                algorithm="omnireduce", workers=8, aggregators=2, seed=seed
            )
        )
    for topology in ("leaf-spine-2x", "fat-tree-2x", "fat-tree-4x"):
        for algorithm in ("ring", "rackhier"):
            for workers in (4, 8):
                cases.append(
                    ConformanceCase(
                        algorithm=algorithm, workers=workers, topology=topology
                    )
                )
    for seed in (0, 1):
        cases.append(
            ConformanceCase(
                algorithm="rackhier",
                topology="fat-tree-4x",
                fault="straggler",
                seed=seed,
            )
        )
    return cases
