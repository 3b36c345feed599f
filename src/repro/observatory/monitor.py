"""The :class:`Observatory`: sampling, detection, and the telemetry bridge.

One observatory watches one or more clusters (and optionally
:class:`~repro.service.FabricService` instances) on the simulator's
virtual clock.  A step-observer sampler wakes at a configured interval,
derives the fleet :class:`~repro.observatory.detectors.Window` from raw
simulator state -- per-worker egress counters, fabric drop counters,
shared-pipe occupancy, aggregator port tables, live job records -- folds the samples into the :class:`~repro.observatory.series.SeriesStore`,
and runs the detector suite.

Disabled-cost contract (same as :data:`repro.telemetry.NULL_RECORDER`):
an observatory constructed with ``enabled=False`` registers **nothing**
-- no step observer, no cluster attribute, no allocation -- so the
simulation's event sequence is identical to running without one (see
``docs/observability.md``).

With a :class:`~repro.telemetry.Telemetry` attached, incidents mirror
into the Perfetto trace live: each ``(detector, entity)`` pair becomes
one ``incidents/...`` track under a reserved ``observatory`` process,
and every opened incident increments the ``incidents`` counter in the
metrics registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, List, Optional, Tuple

from .attribution import correlate
from .detectors import (
    _RESPAWN_PORT,
    DEFAULT_DETECTORS,
    JobSample,
    PipeSample,
    Window,
    build_detectors,
)
from .incidents import Incident, IncidentLog
from .series import SeriesStore

__all__ = ["Observatory", "ObservatoryConfig"]


@dataclass
class ObservatoryConfig:
    """What to watch and how often.

    ``interval_s`` is the sampling window on the virtual clock; signals
    are rates/deltas over it, so it should be small against the
    phenomena of interest (a handful of windows per fault).
    ``detectors`` selects the suite -- per-worker skew comparisons
    assume one collective tenant spanning the fleet, so multi-tenant
    services typically run with ``("loss-burst", "agg-crash",
    "slo-burn")`` and job-level signals only.
    """

    enabled: bool = True
    interval_s: float = 50e-6
    ring_capacity: int = 256
    ewma_alpha: float = 0.3
    detectors: Tuple[str, ...] = DEFAULT_DETECTORS
    #: Extra per-incident evidence series samples are capped to this
    #: many entries in exports.
    evidence_samples: int = 16


class _ClusterSampler:
    """Step observer deriving one :class:`Window` per interval."""

    def __init__(self, observatory: "Observatory", cluster, interval_s: float):
        self.observatory = observatory
        self.cluster = cluster
        self.interval_s = interval_s
        now = cluster.sim.now
        self._next_s = now + interval_s
        self._last_s = now
        stats = cluster.stats
        self._last_bytes = {
            name: stats.bytes_sent.get(name, 0) for name in cluster.worker_hosts
        }
        self._last_busy = {
            name: cluster.network.host(name).egress_busy_s
            for name in cluster.worker_hosts
        }
        self._last_drops = stats.total_packets_dropped
        self._last_pipe_busy: Dict[str, float] = {}
        #: aggregator host -> (ports scanned, top respawn generation).
        self._agg_scan: Dict[str, Tuple[int, int]] = {}

    def __call__(self, now: float) -> None:
        if now < self._next_s:
            return
        self.flush(now)
        # Skip past idle gaps instead of emitting a window per missed
        # interval: rates are per-elapsed-time, so one long window is
        # the same signal as many empty ones.
        self._next_s = now + self.interval_s

    def flush(self, now: float) -> None:
        """Close the current window at ``now`` and run the detectors."""
        elapsed = now - self._last_s
        if elapsed <= 0:
            return
        cluster = self.cluster
        stats = cluster.stats
        window = Window(start_s=self._last_s, end_s=now)

        for name in cluster.worker_hosts:
            sent = stats.bytes_sent.get(name, 0)
            delta = sent - self._last_bytes.get(name, 0)
            self._last_bytes[name] = sent
            window.worker_rates_bps[name] = delta * 8.0 / elapsed
            window.worker_bytes[name] = sent
            busy = getattr(cluster.network.host(name), "egress_busy_s", 0.0)
            window.worker_duty[name] = (
                busy - self._last_busy.get(name, 0.0)
            ) / elapsed
            self._last_busy[name] = busy

        drops = stats.total_packets_dropped
        window.drops = drops - self._last_drops
        self._last_drops = drops

        topology = getattr(cluster.network, "topology", None)
        segments = getattr(topology, "pipe_segments", None)
        if segments is not None:
            for tier, segment, pipe in segments():
                key = f"{tier}:{segment}"
                busy = pipe.busy_s
                delta_busy = busy - self._last_pipe_busy.get(key, 0.0)
                self._last_pipe_busy[key] = busy
                window.pipes[key] = PipeSample(
                    tier=tier,
                    segment=segment,
                    utilization=delta_busy / elapsed,
                    backlog_s=pipe.backlog_s(now),
                )

        window.agg_generations = self._agg_generations()

        window.jobs = self.observatory._job_samples()
        self.observatory._run_detectors(window)
        self._last_s = now

    def _agg_generations(self) -> Dict[str, int]:
        """:meth:`AggregatorCrashDetector.scan_generations`, incrementally.

        Port tables are insertion-ordered and append-only, so each
        window scans only the ports registered since the previous one
        and folds them into the carried per-host top generation.
        """
        network = self.cluster.network
        out: Dict[str, int] = {}
        for name in self.cluster.aggregator_hosts:
            ports = network.host(name)._ports
            seen, top = self._agg_scan.get(name, (0, 0))
            for port in islice(ports, seen, None):
                match = _RESPAWN_PORT.search(port)
                if match:
                    top = max(top, int(match.group(1)))
            self._agg_scan[name] = (len(ports), top)
            out[name] = top
        return out


class _TelemetryBridge:
    """Mirrors the incident log into the trace and metrics registry."""

    def __init__(self, telemetry) -> None:
        self.telemetry = telemetry
        self.pid = telemetry.reserve_pid("observatory")

    def __call__(self, event: str, incident: Incident) -> None:
        tele = self.telemetry
        if not tele.recorder.enabled:
            if event == "open":
                self._count(incident)
            return
        tracer = tele.tracer
        previous = tracer.pid
        tracer.pid = self.pid
        track = f"incidents/{incident.detector}/{incident.entity}"
        if event == "open":
            self._count(incident)
            tracer.begin(
                incident.start_s,
                track,
                incident.kind,
                cat="incident",
                args={
                    "entity": incident.entity,
                    "confidence": round(incident.confidence, 3),
                },
            )
        else:
            tracer.end(incident.end_s, track)
        tracer.pid = previous

    def _count(self, incident: Incident) -> None:
        self.telemetry.metrics.counter(
            "incidents", "anomalies raised by the health observatory"
        ).inc(detector=incident.detector, kind=incident.kind)


class Observatory:
    """Streaming health monitoring over one or more clusters."""

    def __init__(
        self,
        config: Optional[ObservatoryConfig] = None,
        telemetry=None,
    ) -> None:
        self.config = config or ObservatoryConfig()
        self.store = SeriesStore(
            capacity=self.config.ring_capacity, alpha=self.config.ewma_alpha
        )
        self.log = IncidentLog()
        self.detectors = build_detectors(self.config.detectors)
        self.telemetry = telemetry
        self._bridge = None
        if telemetry is not None and self.config.enabled:
            self._bridge = _TelemetryBridge(telemetry)
            self.log.add_listener(self._bridge)
        #: id(cluster) -> (cluster, sampler); everything detach undoes.
        self._attachments: Dict[int, tuple] = {}
        self._services: List = []
        self._finalized_at: Optional[float] = None

    # -- wiring ---------------------------------------------------------------

    @staticmethod
    def _resolve(cluster):
        """Flow views (anything with a ``base``) share their base
        cluster's simulator and counters; watch the base."""
        return getattr(cluster, "base", cluster)

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    def attach(self, cluster) -> None:
        """Start watching ``cluster`` (idempotent).

        A disabled observatory returns immediately without touching the
        cluster or its simulator -- the guaranteed no-op path.
        """
        if not self.config.enabled:
            return
        cluster = self._resolve(cluster)
        if id(cluster) in self._attachments:
            return
        sampler = _ClusterSampler(self, cluster, self.config.interval_s)
        cluster.sim.add_step_observer(sampler)
        self._attachments[id(cluster)] = (cluster, sampler)

    def detach(self, cluster) -> None:
        """Stop watching ``cluster`` (idempotent); incidents are kept."""
        cluster = self._resolve(cluster)
        record = self._attachments.pop(id(cluster), None)
        if record is None:
            return
        _cluster, sampler = record
        _cluster.sim.remove_step_observer(sampler)

    def attached(self, cluster) -> bool:
        return id(self._resolve(cluster)) in self._attachments

    def watch_service(self, service) -> None:
        """Feed a :class:`~repro.service.FabricService`'s job records
        into the SLO burn-rate detector (idempotent)."""
        if not self.config.enabled:
            return
        if service not in self._services:
            self._services.append(service)
        self.attach(service.cluster)

    # -- sampling support -----------------------------------------------------

    def _job_samples(self) -> List[JobSample]:
        samples: List[JobSample] = []
        for service in self._services:
            for record in service.records:
                if record.status not in ("queued", "running"):
                    continue
                spec = record.spec
                samples.append(
                    JobSample(
                        name=spec.name,
                        status=record.status,
                        arrival_s=record.arrival_s,
                        slo_s=spec.slo_s,
                        iterations=spec.iterations,
                        iterations_done=record.iterations_done,
                    )
                )
        return samples

    def _run_detectors(self, window: Window) -> None:
        for detector in self.detectors:
            detector.observe(window, self.store, self.log)

    # -- lifecycle ------------------------------------------------------------

    def finalize(self, now: Optional[float] = None) -> None:
        """Flush the open window and close every open incident.

        Call at the end of a run (the run boundary is the natural close
        time for anomalies that persist to the end).  Safe to call on a
        disabled observatory and idempotent per run.
        """
        if not self.config.enabled:
            return
        clocks = [c.sim.now for c, _ in self._attachments.values()]
        end = now if now is not None else (max(clocks) if clocks else 0.0)
        for _cluster, sampler in self._attachments.values():
            sampler.flush(end)
        for detector in self.detectors:
            detector.finalize(end, self.log)
        self.log.close_all(end)
        self._finalized_at = end

    # -- results --------------------------------------------------------------

    @property
    def incidents(self) -> List[Incident]:
        return list(self.log.incidents)

    def root_causes(self, slack_s: Optional[float] = None):
        """Ranked root-cause attribution over the recorded incidents."""
        if slack_s is None:
            slack_s = 10.0 * self.config.interval_s
        rack_of = None
        for cluster, _sampler in self._attachments.values():
            topology = getattr(cluster.network, "topology", None)
            if topology is not None and hasattr(topology, "rack_of"):
                rack_of = topology.rack_of
                break
        return correlate(self.log.incidents, rack_of=rack_of, slack_s=slack_s)

    def report(self) -> Dict:
        """JSON-ready report: incidents, ranked causes, series rollups."""
        causes = self.root_causes()
        return {
            "incidents": [i.to_dict() for i in self.log.incidents],
            "root_causes": [
                {
                    "incident": cause.incident.to_dict(),
                    "explains": [e.to_dict() for e in cause.explains],
                    "score": round(cause.score, 3),
                }
                for cause in causes
            ],
            "rollups": self.store.rollup(),
        }

    def summary(self) -> str:
        """Human-readable incident and attribution summary."""
        lines = [
            f"observatory: {len(self.log)} incident(s), "
            f"{len(self.store)} series"
        ]
        for incident in self.log.incidents:
            lines.append(f"  {incident}")
        causes = self.root_causes()
        if causes:
            lines.append("ranked causes:")
            for cause in causes:
                suffix = ""
                if cause.explains:
                    explained = ", ".join(
                        f"{e.detector}:{e.entity}" for e in cause.explains
                    )
                    suffix = f" -> explains {explained}"
                lines.append(
                    f"  [{cause.score:.2f}] {cause.incident.detector} "
                    f"{cause.incident.entity}{suffix}"
                )
        return "\n".join(lines)
