"""The automated protocol-feature ablation harness.

Built on the :class:`~repro.core.features.ProtocolFeatures` layer: an
ablation cell is a :class:`~repro.conformance.runner.ConformanceCase`
whose ``pattern`` names a Table-1 workload.  Per cell the harness runs
the *baseline* -- the case with ``features=None``, i.e. the case's own
resolved feature set -- then one run per catalog feature with exactly
that feature disabled, and reports what each mechanism earns:
completion-time, goodput and wire-counter deltas read from each run's
own telemetry metrics registry (the single numeric source of truth; see
:mod:`repro.telemetry.metrics`).

Every run goes through :func:`~repro.conformance.runner.run_case`, so it
faces the dense float64 oracle, the counter checks and the invariant
monitors: protocol features are performance-only, so a disabled feature
that changes the reduced tensor or breaks a protocol invariant is a bug
the harness must flag, not a data point.  The test suite proves the
flagging works with the case's ``mutant`` field.

A workload pattern places blocks uniformly at the workload's per-worker
block sparsity, ``1 - comm_fraction`` (Table 1's last column is the
per-worker transmitted-block fraction at 256-element blocks).

``retransmit_backoff`` is only active when the cell's resolved baseline
enables it (every fault plan's conformance configuration); elsewhere its
row reports a skip reason instead of a fake zero delta.  Every run uses
the packet engine.

Run ids are stable and deterministic:
``{workload}-{fault}-baseline`` / ``{workload}-{fault}-no-{feature}``,
so exported traces, metrics JSONs and committed reports stay diffable
across revisions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..conformance.runner import (
    _LOSSY_FAULTS,
    CaseReport,
    ConformanceCase,
    run_case,
)
from ..core.features import FEATURES
from ..telemetry import Telemetry, runtime

__all__ = [
    "AblationRun",
    "FeatureDelta",
    "CellReport",
    "AblationReport",
    "ablation_elements",
    "default_cells",
    "run_cell",
    "run_ablation",
]

#: Metrics each run reads back from its telemetry registry, in report
#: order.  All are members of the uniform metric set.
RUN_METRICS = (
    "time_s",
    "goodput_gbps",
    "bytes_on_wire",
    "packets_on_wire",
    "zero_blocks_suppressed",
    "retransmissions",
)


def ablation_elements(default: int = 1 << 21) -> int:
    """Per-run tensor length in elements (env-tunable).

    The default (2 Mi elements = 8 MB of float32) deliberately exceeds
    the 4 MiB prefetch chunk so the ``chunk_prefetch`` ablation has
    something to measure; ``REPRO_ABLATION_ELEMENTS`` scales the whole
    matrix up or down.
    """
    n = int(os.environ.get("REPRO_ABLATION_ELEMENTS", default))
    if n < 1:
        raise ValueError("REPRO_ABLATION_ELEMENTS must be >= 1")
    return n


def _cell_id(case: ConformanceCase) -> str:
    return f"{case.pattern}-{case.fault}"


@dataclass
class AblationRun:
    """One conformance run with one feature set, metrics attached."""

    run_id: str
    feature: str  # "" for the baseline run
    report: CaseReport
    metrics: Dict[str, Optional[float]]

    @property
    def correct(self) -> bool:
        """Oracle, counter checks and every invariant monitor passed."""
        return self.report.ok


@dataclass
class FeatureDelta:
    """What one feature earns: disabled-run metrics relative to baseline.

    Deltas are fractional: ``time_delta = 0.25`` means disabling the
    feature made the collective 25% slower, so the mechanism earns a
    25% speedup in this cell.  ``None`` marks a skipped run.
    """

    feature: str
    run: Optional[AblationRun]
    baseline: Optional[AblationRun]
    skipped: str = ""  # non-empty = why there is no run
    time_delta: Optional[float] = None
    goodput_delta: Optional[float] = None
    bytes_delta: Optional[float] = None
    packets_delta: Optional[float] = None

    @property
    def measured(self) -> bool:
        return not self.skipped


def _relative(run_value, base_value) -> Optional[float]:
    if run_value is None or base_value is None or base_value == 0:
        return None
    return (run_value - base_value) / base_value


def _delta(feature: str, run: AblationRun, baseline: AblationRun) -> FeatureDelta:
    return FeatureDelta(
        feature=feature,
        run=run,
        baseline=baseline,
        time_delta=_relative(
            run.metrics.get("time_s"), baseline.metrics.get("time_s")
        ),
        goodput_delta=_relative(
            run.metrics.get("goodput_gbps"), baseline.metrics.get("goodput_gbps")
        ),
        bytes_delta=_relative(
            run.metrics.get("bytes_on_wire"), baseline.metrics.get("bytes_on_wire")
        ),
        packets_delta=_relative(
            run.metrics.get("packets_on_wire"),
            baseline.metrics.get("packets_on_wire"),
        ),
    )


@dataclass
class CellReport:
    """One cell's baseline plus one delta row per catalog feature."""

    case: ConformanceCase  # the cell's baseline case (features=None)
    baseline: AblationRun
    deltas: List[FeatureDelta]

    @property
    def cell_id(self) -> str:
        return _cell_id(self.case)

    @property
    def runs(self) -> List[AblationRun]:
        return [self.baseline] + [d.run for d in self.deltas if d.run is not None]

    @property
    def ok(self) -> bool:
        return all(run.correct for run in self.runs)

    def ranked(self) -> List[FeatureDelta]:
        """Measured deltas, most important (largest slowdown) first."""
        measured = [d for d in self.deltas if d.measured]
        return sorted(
            measured,
            key=lambda d: (
                -(d.time_delta if d.time_delta is not None else float("-inf")),
                -(d.bytes_delta or 0.0),
            ),
        )


@dataclass
class AblationReport:
    """The full matrix: one :class:`CellReport` per (workload x fault)."""

    cells: List[CellReport]

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    def runs(self) -> List[AblationRun]:
        return [run for cell in self.cells for run in cell.runs]

    def ranking(self) -> List[Tuple[str, float, int]]:
        """Cross-cell feature importance.

        Returns ``(feature, mean fractional slowdown when disabled,
        number of cells measured)`` sorted most-important-first.  A
        feature never measured anywhere is omitted.
        """
        sums: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for cell in self.cells:
            for delta in cell.deltas:
                if delta.measured and delta.time_delta is not None:
                    sums[delta.feature] = sums.get(delta.feature, 0.0) + delta.time_delta
                    counts[delta.feature] = counts.get(delta.feature, 0) + 1
        ranked = [
            (feature, sums[feature] / counts[feature], counts[feature])
            for feature in sums
        ]
        ranked.sort(key=lambda item: -item[1])
        return ranked


def default_cells(
    workloads: Sequence[str] = ("deeplight", "bert"),
    faults: Sequence[str] = ("none", "bernoulli-loss"),
    elements: Optional[int] = None,
    **overrides,
) -> List[ConformanceCase]:
    """The standard matrix: Table-1 workloads crossed with fault plans.

    Each cell is an 8-worker OmniReduce case at 256-element blocks on
    the datagram transport for lossy plans (loss and Algorithm 2 need
    per-packet delivery) and RDMA otherwise; ``overrides`` replace any
    of these case fields.
    """
    if elements is None:
        elements = ablation_elements()
    cells = []
    for workload in workloads:
        for fault in faults:
            case_fields = dict(
                workers=8,
                elements=elements,
                block_size=256,
                pattern=workload,
                fault=fault,
                transport="dpdk" if fault in _LOSSY_FAULTS else "rdma",
            )
            case_fields.update(overrides)
            cells.append(ConformanceCase(**case_fields))
    return cells


def _read_metrics(telemetry: Telemetry, algorithm: str) -> Dict[str, Optional[float]]:
    """The uniform metrics one run recorded, ``None`` where unsupported."""
    from ..telemetry.metrics import unsupported_metrics

    registry_ = telemetry.metrics
    unsupported = unsupported_metrics(registry_, algorithm)
    out: Dict[str, Optional[float]] = {}
    for name in RUN_METRICS:
        if name in unsupported:
            out[name] = None
            continue
        metric = registry_.get(name)
        out[name] = None if metric is None else metric.value(algorithm=algorithm)
    return out


def _run(case: ConformanceCase, run_id: str, feature: str) -> AblationRun:
    # The Cluster run_case builds attaches the active telemetry, so each
    # run reads its metrics from a registry of its own.
    telemetry = Telemetry()
    with runtime.use(telemetry):
        report = run_case(case)
    return AblationRun(
        run_id=run_id,
        feature=feature,
        report=report,
        metrics=_read_metrics(telemetry, case.algorithm),
    )


def run_cell(case: ConformanceCase) -> CellReport:
    """Baseline + one run per catalog feature for one matrix cell."""
    baseline_case = case.with_(features=None)
    cell_id = _cell_id(case)
    baseline = _run(baseline_case, f"{cell_id}-baseline", "")
    features = baseline_case.config().features
    deltas: List[FeatureDelta] = []
    for name in FEATURES:
        if not features.enabled(name):
            deltas.append(
                FeatureDelta(
                    feature=name,
                    run=None,
                    baseline=baseline,
                    skipped="inactive in this cell's baseline",
                )
            )
            continue
        run = _run(
            case.with_(features=features.disable(name)),
            f"{cell_id}-no-{name}",
            name,
        )
        deltas.append(_delta(name, run, baseline))
    return CellReport(case=baseline_case, baseline=baseline, deltas=deltas)


def run_ablation(cells: Optional[Sequence[ConformanceCase]] = None) -> AblationReport:
    """Run the ablation matrix (:func:`default_cells` by default)."""
    if cells is None:
        cells = default_cells()
    return AblationReport(cells=[run_cell(case) for case in cells])
