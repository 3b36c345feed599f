"""Unified observability for the simulated collectives.

One :class:`Telemetry` object correlates everything a run emits on the
simulator's virtual clock:

* a :class:`~repro.telemetry.metrics.MetricsRegistry` holding the
  uniform metric set every registry algorithm reports,
* a :class:`~repro.telemetry.spans.SpanTracer` of nested spans from the
  core protocol (block round-trips, slot occupancy, retransmit timers,
  worker wait time),
* live packet events, observed on ``Network.observers``, and fault
  entries from :class:`~repro.netsim.trace.FaultLog`,
* periodic link-utilization / queue-depth samples via
  :meth:`~repro.netsim.kernel.Simulator.add_step_observer`.

Exporters (:mod:`repro.telemetry.export`) render it all as a text
summary, a metrics JSON, or Chrome-trace-event JSON loadable in
Perfetto.  See ``docs/observability.md``.

Usage -- explicit::

    tele = Telemetry()
    session = collective.prepare(cluster, options_cls(telemetry=tele))
    result = session.allreduce(tensors)
    print(summary(tele))

Each collective run is one *frame*, opened by
:meth:`Telemetry.collective_open` and closed by
:meth:`Telemetry.collective_close`.  Their one caller is
:class:`~repro.core.pending.PendingResult`: it opens the frame, begins
the engine and closes the frame when the run finishes, whether the run
was waited for or driven cooperatively.

or process-global (what ``python -m repro.bench --trace`` does)::

    runtime.activate(Telemetry())     # every new Cluster auto-attaches

When no telemetry is attached, instrumented components hold the shared
:data:`~repro.telemetry.spans.NULL_RECORDER` and each instrumentation
point costs one attribute check (see ``tests/telemetry``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from . import runtime
from .collect import TrafficSnapshot
from .export import (
    chrome_trace,
    metrics_report,
    summary,
    write_chrome_trace,
    write_metrics,
)
from .metrics import (
    UNIFORM_METRICS,
    MetricsRegistry,
    record_features,
    record_result,
)

#: Uniform metrics the flow-level fast path cannot measure: flows are
#: booked as continuous transfers, so per-packet loss/recovery never
#: happens and ``retransmissions`` has no defined value (recording 0
#: would be indistinguishable from "lossless run").
FLOW_UNSUPPORTED_METRICS = ("retransmissions",)


def _unsupported_for(cluster):
    """Metrics the execution mode of ``cluster`` cannot measure.

    Checked on the cluster *as passed* (before base-resolution): flow
    views proxy ``flow_base`` through, while the underlying base
    cluster a packet run shares does not have it.
    """
    if hasattr(cluster, "flow_base"):
        return FLOW_UNSUPPORTED_METRICS
    return ()
from .samplers import LinkUtilizationSampler
from .spans import NULL_RECORDER, NullRecorder, SpanTracer

__all__ = [
    "Telemetry",
    "TelemetryConfig",
    "FLOW_UNSUPPORTED_METRICS",
    "MetricsRegistry",
    "SpanTracer",
    "NullRecorder",
    "NULL_RECORDER",
    "UNIFORM_METRICS",
    "TrafficSnapshot",
    "chrome_trace",
    "metrics_report",
    "summary",
    "write_chrome_trace",
    "write_metrics",
    "runtime",
]


@dataclass
class TelemetryConfig:
    """What to record and how much of it to keep.

    ``max_span_events`` caps the unified event stream (spans, packet
    instants, fault instants, samples); past the cap new events are
    dropped-and-counted, keeping the earliest -- a full figure sweep
    emits millions of packet events and an unbounded trace would dwarf
    the experiment itself.  ``record_packets`` subscribes a packet
    observer to the network that turns each packet event into one
    instant on that stream.
    """

    record_spans: bool = True
    record_packets: bool = True
    sample_interval_s: Optional[float] = None
    max_span_events: Optional[int] = 250_000


class _PacketListener:
    """Feeds live packet events into the unified span stream."""

    __slots__ = ("tracer",)

    def __init__(self, tracer: SpanTracer) -> None:
        self.tracer = tracer

    def observe(self, time_s: float, kind: str, packet) -> None:
        self.tracer.instant(
            time_s,
            f"net/{packet.src}",
            kind,
            cat="packet",
            args={
                "dst": packet.dst,
                "bytes": packet.size_bytes,
                "flow": packet.flow,
                "pkt_id": packet.pkt_id,
            },
        )


class _Frame:
    """One recording opened by :meth:`Telemetry.collective_open`."""

    __slots__ = (
        "algorithm", "cluster", "pid", "snapshot", "closed", "unsupported",
    )

    def __init__(self, algorithm, cluster, pid, snapshot, unsupported=()) -> None:
        self.algorithm = algorithm
        self.cluster = cluster
        self.pid = pid
        self.snapshot = snapshot
        self.closed = False
        self.unsupported = unsupported


class Telemetry:
    """The unified observability object for one or more runs."""

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config or TelemetryConfig()
        self.metrics = MetricsRegistry()
        self.tracer = SpanTracer(max_events=self.config.max_span_events)
        #: Recorder handed to protocol components: the tracer when span
        #: recording is on, the shared null recorder otherwise.
        self.recorder = self.tracer if self.config.record_spans else NULL_RECORDER
        #: pid -> algorithm label, one per recorded collective run.
        self.run_labels: Dict[int, str] = {}
        #: pid -> {feature name: enabled} for runs that declared their
        #: protocol feature set; the Chrome-trace exporter emits these
        #: as per-run metadata so a Perfetto trace is self-describing.
        self.run_features: Dict[int, Dict[str, bool]] = {}
        #: pid 0 is the tracer's default (component spans recorded
        #: outside any labelled run land there) and is never handed out,
        #: so a reserved process can't absorb unrelated tracks.
        self._next_pid = 1
        self._open_frames = 0
        #: id(cluster) -> (cluster, packet_listener, sampler);
        #: everything :meth:`detach` must undo.
        self._attachments: Dict[int, tuple] = {}

    # -- wiring into a cluster ----------------------------------------------

    @staticmethod
    def _resolve(cluster):
        """The underlying cluster: per-job fabric views (anything with a
        ``base``) share their base cluster's instrumentation."""
        return getattr(cluster, "base", cluster)

    def attach(self, cluster) -> None:
        """Instrument ``cluster`` to report here (idempotent).

        Subscribes to the network's packets and the fault log,
        and registers the periodic sampler when configured.  Called
        automatically by sessions and by ``Cluster.__init__`` when this
        telemetry is process-globally active.
        """
        cluster = self._resolve(cluster)
        if id(cluster) in self._attachments:
            return
        cluster.telemetry = self
        listener = None
        if self.config.record_packets:
            listener = _PacketListener(self.tracer)
            cluster.network.observers.append(listener)
        cluster.fault_log.add_listener(self._on_fault)
        sampler = None
        if self.config.sample_interval_s:
            sampler = LinkUtilizationSampler(
                cluster, self.tracer, self.config.sample_interval_s
            )
            cluster.sim.add_step_observer(sampler)
        self._attachments[id(cluster)] = (cluster, listener, sampler)

    def detach(self, cluster) -> None:
        """Undo :meth:`attach` for ``cluster`` (idempotent).

        Removes the packet observer from ``Network.observers``, the
        fault-log subscription and the sampler, and clears
        ``cluster.telemetry``; the network then runs exactly as if it
        had never been attached.  Recorded events are kept --
        detaching stops future recording, it does not discard history.
        """
        cluster = self._resolve(cluster)
        record = self._attachments.pop(id(cluster), None)
        if record is None:
            return
        _cluster, listener, sampler = record
        if listener is not None:
            cluster.network.observers.remove(listener)
        cluster.fault_log.remove_listener(self._on_fault)
        if sampler is not None:
            cluster.sim.remove_step_observer(sampler)
        if getattr(cluster, "telemetry", None) is self:
            cluster.telemetry = None

    def attached(self, cluster) -> bool:
        """Whether :meth:`attach` is currently in effect for ``cluster``."""
        return id(self._resolve(cluster)) in self._attachments

    def _on_fault(self, record) -> None:
        self.tracer.instant(
            record.time_s,
            "faults",
            record.kind,
            cat="fault",
            args=dict(record.detail),
        )

    def reserve_pid(self, label: str) -> int:
        """Allocate a trace process id for a labelled event source.

        Collective runs get one implicitly; long-lived sources (the
        multi-job service's fleet timeline) reserve theirs up front so
        their spans group under a stable named track in the trace.
        """
        pid = self._next_pid
        self._next_pid += 1
        self.run_labels[pid] = label
        return pid

    # -- recording a collective run ----------------------------------------

    def collective_open(self, algorithm: str, cluster, features=None) -> _Frame:
        """Open the recording frame of one collective run.

        Frames may overlap in virtual time (several jobs in flight on
        one simulator, or a blocking run while another is in flight), so
        each frame carries its own pid and closing one never
        force-closes another frame's spans.  ``features`` (a
        :class:`~repro.core.features.ProtocolFeatures`) stamps the run's
        active protocol feature set into the metrics registry and the
        exported trace metadata.
        """
        unsupported = _unsupported_for(cluster)
        self.attach(cluster)
        pid = self.reserve_pid(algorithm)
        if features is not None:
            self.run_features[pid] = dict(features.labels())
            record_features(self.metrics, algorithm, features)
        frame = _Frame(
            algorithm, cluster, pid, TrafficSnapshot(cluster), unsupported
        )
        rec = self.recorder
        if rec.enabled:
            previous = self.tracer.pid
            self.tracer.pid = pid
            rec.begin(frame.snapshot.start_s, "run", algorithm, cat="collective")
            self.tracer.pid = previous
        self._open_frames += 1
        return frame

    def collective_close(self, frame: _Frame, result=None) -> None:
        """Close a frame from :meth:`collective_open` (idempotent).

        ``result``, the finished
        :class:`~repro.core.collective.CollectiveResult`, yields the
        uniform metric set; a frame closed without one (its ``begin``
        raised) records no metrics.
        """
        if frame.closed:
            return
        frame.closed = True
        now = frame.cluster.sim.now
        rec = self.recorder
        if rec.enabled:
            previous = self.tracer.pid
            self.tracer.pid = frame.pid
            rec.end(now, "run")
            self.tracer.pid = previous
        self._open_frames -= 1
        if self._open_frames == 0:
            # No collective in flight: any still-open protocol span is a
            # leftover (slots serving duplicates, fault-interrupted
            # processes).  Balance the stream here -- but only once the
            # *last* overlapping frame closes, so one run's close never
            # truncates another run's live spans.
            self.tracer.close_open_spans(now)
        if result is not None:
            record_result(
                self.metrics,
                frame.algorithm,
                result,
                worker_stall_s=frame.snapshot.worker_stall_s(),
                unsupported=frame.unsupported,
            )

    # -- export conveniences ------------------------------------------------

    def chrome_trace(self):
        return chrome_trace(self)

    def metrics_report(self):
        return metrics_report(self)

    def summary(self) -> str:
        return summary(self)

    def write_trace(self, path: str) -> None:
        write_chrome_trace(self, path)

    def write_metrics(self, path: str) -> None:
        write_metrics(self, path)
