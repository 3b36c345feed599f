"""Automated protocol-feature ablation (see docs/ablation.md).

``repro.ablation`` sits on top of the
:class:`~repro.core.features.ProtocolFeatures` layer: it runs a
baseline plus one run per disabled catalog feature for every (Table-1
workload x fault plan) cell, reads time/goodput/wire-counter deltas
from each run's telemetry metrics registry, and ranks the features by
what they earn.  A cell is a
:class:`~repro.conformance.runner.ConformanceCase` and every run goes
through :func:`~repro.conformance.runner.run_case`, so each faces the
dense float64 oracle, the counter checks and the invariant monitors.
Exposed as ``python -m repro.bench --experiment ablation``.
"""

from .harness import (
    AblationReport,
    AblationRun,
    CellReport,
    FeatureDelta,
    ablation_elements,
    default_cells,
    run_ablation,
    run_cell,
)

__all__ = [
    "AblationReport",
    "AblationRun",
    "CellReport",
    "FeatureDelta",
    "ablation_elements",
    "default_cells",
    "run_ablation",
    "run_cell",
]
