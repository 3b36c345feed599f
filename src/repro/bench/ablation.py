"""Protocol-feature ablation: what each mechanism earns.

``python -m repro.bench --experiment ablation`` runs the
:mod:`repro.ablation` harness over the Table-1 workload x fault-plan
matrix: per cell, one baseline collective with the full feature set and
one run per catalog feature with exactly that feature disabled.  Every
row reports the disabled run's completion time, goodput and wire
counters as fractional deltas against the cell's baseline (positive
``dtime%`` = disabling the feature slowed the collective down, i.e. the
mechanism earns that much), all read from per-run telemetry metrics
registries.  Every run is a conformance case checked against the dense
float64 oracle, the counter checks and the invariant monitors -- the
``correct`` column must read ``yes`` everywhere, because protocol
features are performance-only by contract.

The notes carry the cross-cell importance ranking (mean fractional
slowdown when disabled) plus the reason for any skipped row (a feature
inactive in the cell's baseline).

Environment knobs:

* ``REPRO_ABLATION_WORKLOADS`` -- comma-separated Table-1 workload
  names (default ``deeplight,bert``: the sparsest and densest extremes).
* ``REPRO_ABLATION_FAULTS`` -- comma-separated fault-plan names
  (default ``none,bernoulli-loss``).
* ``REPRO_ABLATION_ELEMENTS`` -- per-run tensor length (default 2 Mi
  elements = 8 MB, large enough that chunked prefetch is observable).
"""

from __future__ import annotations

import os

from ..ablation import default_cells, run_ablation
from ..core.features import FEATURES
from .harness import ExperimentResult

__all__ = ["ablation"]


def _pct(value) -> str:
    return "n/a" if value is None else f"{value * 100:+.1f}%"


def _count(value) -> str:
    return "n/a" if value is None else f"{value:.0f}"


def ablation() -> ExperimentResult:
    """``ablation``: per-feature deltas + cross-cell importance ranking."""
    workloads = os.environ.get("REPRO_ABLATION_WORKLOADS", "deeplight,bert")
    faults = os.environ.get("REPRO_ABLATION_FAULTS", "none,bernoulli-loss")
    cells = default_cells(
        workloads=[w.strip() for w in workloads.split(",") if w.strip()],
        faults=[f.strip() for f in faults.split(",") if f.strip()],
    )
    report = run_ablation(cells)

    result = ExperimentResult(
        "ablation",
        "protocol-feature ablation: per-cell deltas vs the full feature set",
        [
            "run_id", "feature", "time_ms", "dtime", "goodput_gbps",
            "dgoodput", "dbytes", "dpackets", "retrans", "correct",
        ],
    )

    for cell_report in report.cells:
        baseline = cell_report.baseline
        result.add_row(
            run_id=baseline.run_id,
            feature="(baseline)",
            time_ms=baseline.metrics["time_s"] * 1e3,
            dtime="-",
            goodput_gbps=baseline.metrics["goodput_gbps"],
            dgoodput="-",
            dbytes="-",
            dpackets="-",
            retrans=_count(baseline.metrics["retransmissions"]),
            correct="yes" if baseline.correct else "NO",
        )
        for delta in cell_report.deltas:
            if not delta.measured:
                result.add_row(
                    run_id=f"{cell_report.cell_id}-no-{delta.feature}",
                    feature=delta.feature,
                    time_ms="-", dtime="skip", goodput_gbps="-",
                    dgoodput="-", dbytes="-", dpackets="-", retrans="-",
                    correct="-",
                )
                result.notes.append(
                    f"skipped {cell_report.cell_id}-no-{delta.feature}: "
                    f"{delta.skipped}"
                )
                continue
            run = delta.run
            result.add_row(
                run_id=run.run_id,
                feature=delta.feature,
                time_ms=run.metrics["time_s"] * 1e3,
                dtime=_pct(delta.time_delta),
                goodput_gbps=run.metrics["goodput_gbps"],
                dgoodput=_pct(delta.goodput_delta),
                dbytes=_pct(delta.bytes_delta),
                dpackets=_pct(delta.packets_delta),
                retrans=_count(run.metrics["retransmissions"]),
                correct="yes" if run.correct else "NO",
            )

    ranking = report.ranking()
    result.notes.insert(
        0,
        "importance ranking (mean slowdown when disabled): "
        + ", ".join(
            f"{i + 1}. {name} {_pct(mean)} ({cells_measured} cells)"
            for i, (name, mean, cells_measured) in enumerate(ranking)
        ),
    )
    result.notes.insert(
        1,
        "all runs checked against the dense float64 oracle, the counter "
        "checks and the invariant monitors; "
        + ("all passed" if report.ok else "CHECK FAILURES PRESENT"),
    )
    for cell_report in report.cells:
        for run in cell_report.runs:
            if not run.correct:
                result.notes.append(
                    f"CHECK FAIL {run.run_id}: "
                    + "; ".join(run.report.problems()[:3])
                )
    result.notes.append(
        f"feature catalog: {', '.join(FEATURES)}; "
        "see docs/ablation.md for methodology"
    )
    return result
