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

Every source records through its own
:class:`~repro.telemetry.spans.Recorder`, one per trace process: each
collective run's frame, the ``fabric`` (packets, faults and samples, on
pid 0), and any :meth:`Telemetry.process` a long-lived source reserves
(the observatory, a fabric service).

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
the engine -- whose components take the frame's recorder from
:attr:`Telemetry.recorder` -- and closes the frame when the run
finishes, whether the run was waited for or driven cooperatively.
Closing a frame force-closes that run's leftover spans and no others.

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
from .spans import NULL_RECORDER, NullRecorder, Recorder, SpanTracer

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

    __slots__ = ("recorder",)

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder

    def observe(self, time_s: float, kind: str, packet) -> None:
        self.recorder.instant(
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
        "algorithm", "cluster", "recorder", "snapshot", "closed", "unsupported",
    )

    def __init__(self, algorithm, cluster, recorder, snapshot, unsupported=()) -> None:
        self.algorithm = algorithm
        self.cluster = cluster
        self.recorder = recorder
        self.snapshot = snapshot
        self.closed = False
        self.unsupported = unsupported


class Telemetry:
    """The unified observability object for one or more runs."""

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config or TelemetryConfig()
        self.metrics = MetricsRegistry()
        self.tracer = SpanTracer(max_events=self.config.max_span_events)
        #: The ``fabric`` process (pid 0): packets, faults and link
        #: samples of every attached cluster.
        self.fabric = self.tracer.recorder(0)
        #: The recorder of the frame opened last: the engine ``begin()``
        #: that :class:`~repro.core.pending.PendingResult` calls right
        #: after :meth:`collective_open` hands it to the components it
        #: builds.  The shared null recorder before any frame and when
        #: span recording is off.
        self.recorder = NULL_RECORDER
        #: pid -> label, one per reserved process (collective runs are
        #: labelled with their algorithm).
        self.run_labels: Dict[int, str] = {}
        #: pid -> {feature name: enabled} for runs that declared their
        #: protocol feature set; the Chrome-trace exporter emits these
        #: as per-run metadata so a Perfetto trace is self-describing.
        self.run_features: Dict[int, Dict[str, bool]] = {}
        self._next_pid = 1
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
            listener = _PacketListener(self.fabric)
            cluster.network.observers.append(listener)
        cluster.fault_log.add_listener(self._on_fault)
        sampler = None
        if self.config.sample_interval_s:
            sampler = LinkUtilizationSampler(
                cluster, self.fabric, self.config.sample_interval_s
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
        self.fabric.instant(
            record.time_s,
            "faults",
            record.kind,
            cat="fault",
            args=dict(record.detail),
        )

    def process(self, label: str, features=None):
        """Reserve a trace process named ``label``; returns its recorder.

        Collective runs get one per frame; long-lived sources (the
        observatory, the multi-job service's fleet timeline) reserve
        theirs up front so their spans group under a stable named
        process in the trace.  ``features`` (a
        :class:`~repro.core.features.ProtocolFeatures`) is stamped into
        the process's trace metadata.  With span recording off the pid
        is still reserved and labelled, and the recorder is the shared
        null recorder.
        """
        pid = self._next_pid
        self._next_pid += 1
        self.run_labels[pid] = label
        if features is not None:
            self.run_features[pid] = dict(features.labels())
        if not self.config.record_spans:
            return NULL_RECORDER
        return self.tracer.recorder(pid)

    # -- recording a collective run ----------------------------------------

    def collective_open(self, algorithm: str, cluster, features=None) -> _Frame:
        """Open the recording frame of one collective run.

        Frames may overlap in virtual time (several jobs in flight on
        one simulator, or a blocking run while another is in flight), so
        each frame records through its own process's recorder, which
        also becomes :attr:`recorder` for the engine ``begin()`` that
        follows.  ``features`` (a
        :class:`~repro.core.features.ProtocolFeatures`) stamps the run's
        active protocol feature set into the metrics registry and the
        exported trace metadata.
        """
        unsupported = _unsupported_for(cluster)
        self.attach(cluster)
        rec = self.recorder = self.process(algorithm, features)
        if features is not None:
            record_features(self.metrics, algorithm, features)
        frame = _Frame(
            algorithm, cluster, rec, TrafficSnapshot(cluster), unsupported
        )
        if rec.enabled:
            rec.begin(frame.snapshot.start_s, "run", algorithm, cat="collective")
        return frame

    def collective_close(self, frame: _Frame, result=None) -> None:
        """Close a frame from :meth:`collective_open` (idempotent).

        ``result``, the finished
        :class:`~repro.core.collective.CollectiveResult`, yields the
        uniform metric set; a frame closed without one (its ``begin``
        raised) records no metrics.  Any span of this run still open
        (slots serving duplicates, fault-interrupted processes) is
        force-closed here, and the run's recorder records nothing more.
        """
        if frame.closed:
            return
        frame.closed = True
        now = frame.cluster.sim.now
        rec = frame.recorder
        if rec.enabled:
            rec.end(now, "run")
            rec.close(now)
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
