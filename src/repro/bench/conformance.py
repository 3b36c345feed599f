"""Conformance sweep: every registry algorithm against the dense oracle.

``python -m repro.bench --experiment conformance`` runs the
:mod:`repro.conformance` matrix -- all 12 registry algorithms crossed
with sparsity patterns, plus OmniReduce's dtype/transport/fault axes --
with the invariant monitors attached, and reports one row per
algorithm.  A healthy tree reports zero oracle mismatches and zero
invariant violations everywhere.

The ``flow-diff:*`` rows run the packet-vs-flow differential matrix:
identical cases under both simulation modes must agree bit-exactly on
tensors, exactly on wire counters, and within the documented tolerance
on completion time (see ``docs/performance.md``).

The final rows run every test-only mutant of
:data:`~repro.conformance.mutants.MUTANTS` on its target case to prove
the harness has teeth: each must be *caught* by exactly the one check it
declares -- the oracle, a monitor, or the differential's time or counter
check -- and each single-mode kill is shrunk to a minimized seed-replay
case whose one-command repro appears in the notes.

``REPRO_CONFORMANCE_LEVEL=full`` widens the matrix (more worker counts,
block sizes, seeds); the default ``smoke`` level is CI-sized.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Dict, List

from ..conformance import (
    MUTANTS,
    default_matrix,
    differential_matrix,
    differential_sweep,
    minimize_case,
    run_case,
    run_differential,
    sweep,
)
from .harness import ExperimentResult

__all__ = ["conformance"]


def conformance() -> ExperimentResult:
    """``conformance``: differential sweep + invariant monitors + mutants."""
    level = os.environ.get("REPRO_CONFORMANCE_LEVEL", "smoke")
    cases = default_matrix(level)
    reports = sweep(cases)

    result = ExperimentResult(
        "conformance",
        f"oracle + invariant conformance sweep ({level} matrix, "
        f"{len(cases)} cases)",
        [
            "algorithm", "cases", "oracle_ok", "counters_ok",
            "violations", "max_abs_err", "status",
        ],
    )

    by_algorithm: Dict[str, List] = defaultdict(list)
    for report in reports:
        by_algorithm[report.case.algorithm].append(report)

    total_failures = 0
    for algorithm in sorted(by_algorithm):
        group = by_algorithm[algorithm]
        oracle_ok = sum(1 for r in group if not r.oracle_problems)
        counters_ok = sum(1 for r in group if not r.counter_problems)
        violations = sum(len(r.violations) for r in group)
        failures = sum(1 for r in group if not r.ok)
        total_failures += failures
        result.add_row(
            algorithm=algorithm,
            cases=len(group),
            oracle_ok=f"{oracle_ok}/{len(group)}",
            counters_ok=f"{counters_ok}/{len(group)}",
            violations=violations,
            max_abs_err=max(r.max_abs_err for r in group),
            status="PASS" if failures == 0 else f"FAIL({failures})",
        )
        for report in group:
            if not report.ok:
                result.notes.append(f"FAIL {report.case.case_id}: "
                                    + "; ".join(report.problems()[:3]))

    # Packet-vs-flow differential: the same cases under both simulation
    # modes must agree bit-exactly on tensors, exactly on wire counters,
    # and within the documented tolerance on completion time.
    diff_reports = differential_sweep(differential_matrix(level))
    diff_by_algorithm: Dict[str, List] = defaultdict(list)
    for report in diff_reports:
        diff_by_algorithm[report.case.algorithm].append(report)
    for algorithm in sorted(diff_by_algorithm):
        group = diff_by_algorithm[algorithm]
        failures = sum(1 for r in group if not r.ok)
        total_failures += failures
        result.add_row(
            algorithm=f"flow-diff:{algorithm}",
            cases=len(group),
            oracle_ok=f"{sum(1 for r in group if r.ok)}/{len(group)}",
            counters_ok="exact" if failures == 0 else "DIFF",
            violations=failures,
            max_abs_err=max(r.time_rel_err for r in group),
            status="PASS" if failures == 0 else f"FAIL({failures})",
        )
        for report in group:
            if not report.ok:
                result.notes.append(
                    f"FLOW-DIFF FAIL {report.case.case_id}: "
                    + "; ".join(report.problems[:3])
                )

    # Every mutant must die on its target by the one check it declares,
    # and nothing else may fire; a single-mode kill also shrinks to a
    # minimized seed-replay.
    for name, mutant in MUTANTS.items():
        differential = mutant.kill.startswith("differential:")
        report = (run_differential if differential else run_case)(mutant.target)
        fired = report.checks
        caught = fired == {mutant.kill}
        if not caught:
            total_failures += 1
        result.add_row(
            algorithm=f"mutant:{name}",
            cases=1,
            oracle_ok="caught" if caught else "MISSED",
            counters_ok="-",
            violations=len(fired),
            max_abs_err=report.time_rel_err if differential else report.max_abs_err,
            status="PASS" if caught else "FAIL",
        )
        result.notes.append(
            f"mutant {name} on {mutant.target.case_id}: declared "
            f"{mutant.kill}, fired {'+'.join(sorted(fired)) or 'nothing'}"
        )
        if caught and not differential:
            spec = minimize_case(mutant.target)
            result.notes.append(
                f"mutant {name} minimized to {spec.constructor_source()} "
                f"({spec.shrink_runs} shrink runs); first problem: "
                f"{spec.problems[0] if spec.problems else '<none>'}"
            )

    result.notes.insert(
        0,
        "zero violations expected on real algorithms; mutant rows must "
        "report 'caught' by their declared check, single-mode ones with "
        "a minimized seed-replay in the notes",
    )
    result.notes.insert(
        1,
        f"total failing real-algorithm cases: {total_failures}",
    )
    return result
