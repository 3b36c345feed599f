"""Fabric health observatory: streaming rollups, detectors, attribution.

The diagnosis layer on top of :mod:`repro.telemetry`: where telemetry
records *what happened*, the observatory watches the stream and says
*who is unhealthy and why* -- "worker 3 is the straggler", "rack 2's
uplink is the bottleneck", "agg-0 restarted at t=220us".

Layers (see ``docs/observability.md``, "Health observatory"):

* :mod:`~repro.observatory.series` -- bounded streaming rollups
  (ring buffers, EWMA baselines, P-square p50/p95/p99 sketches).
* :mod:`~repro.observatory.detectors` -- straggler, loss-burst,
  congestion-localization, aggregator-crash, and SLO burn-rate
  detectors emitting structured :class:`Incident` records.
* :mod:`~repro.observatory.attribution` -- correlates concurrent
  incidents across the topology graph into a ranked cause list.
* :mod:`~repro.observatory.scoring` -- replays the fault-plan matrix
  and scores every detector's precision/recall/time-to-detect against
  injected ground truth (``python -m repro.bench --experiment
  observatory``).

Usage::

    obs = Observatory(ObservatoryConfig(interval_s=50e-6))
    obs.attach(cluster)                      # watch a collective run
    prepare("omnireduce", cluster).allreduce(tensors)
    obs.finalize()
    for incident in obs.incidents:
        print(incident)
    print(obs.summary())                     # incl. ranked root causes

A disabled observatory (``ObservatoryConfig(enabled=False)``) registers
nothing anywhere -- the same guaranteed no-op contract as
:data:`repro.telemetry.NULL_RECORDER`.
"""

from .attribution import RootCause, correlate
from .detectors import (
    AggregatorCrashDetector,
    CongestionLocalizer,
    Detector,
    JobSample,
    LossBurstDetector,
    PipeSample,
    SloBurnDetector,
    StragglerDetector,
    Window,
)
from .incidents import Incident, IncidentLog
from .monitor import Observatory, ObservatoryConfig
from .series import EwmaBaseline, P2Quantile, RingBuffer, Series, SeriesStore

__all__ = [
    "Observatory",
    "ObservatoryConfig",
    "Incident",
    "IncidentLog",
    "RootCause",
    "correlate",
    "Window",
    "PipeSample",
    "JobSample",
    "Detector",
    "StragglerDetector",
    "LossBurstDetector",
    "CongestionLocalizer",
    "AggregatorCrashDetector",
    "SloBurnDetector",
    "RingBuffer",
    "EwmaBaseline",
    "P2Quantile",
    "Series",
    "SeriesStore",
]
