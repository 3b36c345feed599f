"""Packet tracing and link-utilization telemetry.

An optional observability layer over :class:`~repro.netsim.network.Network`:
attach a :class:`PacketTracer` and every transmission/delivery/drop is
recorded with its simulated timestamp.  From the trace one can compute
per-host utilization over any window, per-flow timelines, and queueing
delays -- the quantities one would pull from switch counters and NIC
telemetry on a physical testbed.

Tracing is opt-in because traces of large experiments are big; the
network itself keeps only aggregate counters.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .network import Network
from .packet import Packet

__all__ = ["TraceEvent", "PacketTracer", "attach_tracer", "FaultRecord", "FaultLog"]

#: Event kinds recorded by the tracer.
SENT = "sent"
DELIVERED = "delivered"
DROPPED = "dropped"


@dataclass(frozen=True)
class TraceEvent:
    """One observed packet event."""

    time_s: float
    kind: str  # sent / delivered / dropped
    src: str
    dst: str
    size_bytes: int
    flow: str
    pkt_id: int


class PacketTracer:
    """Records packet events and derives telemetry from them.

    ``listeners`` receive every event *live*, with the actual
    :class:`~repro.netsim.packet.Packet` object (including its payload,
    which :class:`TraceEvent` deliberately does not retain).  The
    conformance harness's invariant monitors plug in here; a listener is
    any object with an ``observe(time_s, kind, packet)`` method.

    ``max_events`` bounds memory on long sweeps: the newest
    ``max_events`` events are kept in a ring buffer and evictions are
    counted in :attr:`events_dropped` (``0`` keeps no events at all --
    useful when only live listeners matter).  The default (``None``)
    retains everything, as before.
    """

    def __init__(
        self, listeners: Iterable = (), max_events: Optional[int] = None
    ) -> None:
        if max_events is not None and max_events < 0:
            raise ValueError("max_events must be non-negative")
        self.max_events = max_events
        if max_events is None:
            self.events: List[TraceEvent] = []
            self._latencies: List[float] = []
        else:
            self.events = deque(maxlen=max_events)  # type: ignore[assignment]
            self._latencies = deque(maxlen=max_events)  # type: ignore[assignment]
        self.events_dropped = 0
        self.listeners: List = list(listeners)
        self._sent_at: Dict[int, float] = {}

    def add_listener(self, listener) -> None:
        """Attach a live observer (``observe(time_s, kind, packet)``)."""
        self.listeners.append(listener)

    def remove_listener(self, listener) -> None:
        """Detach a live observer; a no-op if it is not attached."""
        if listener in self.listeners:
            self.listeners.remove(listener)

    # -- recording ---------------------------------------------------------

    def record(self, time_s: float, kind: str, packet: Packet) -> None:
        if self.max_events == 0:
            # Nothing is retained -- no event, no latency -- so build
            # neither; every event still counts as evicted.
            self.events_dropped += 1
        else:
            self._retain(time_s, kind, packet)
        for listener in self.listeners:
            listener.observe(time_s, kind, packet)

    def _retain(self, time_s: float, kind: str, packet: Packet) -> None:
        events = self.events
        if self.max_events is not None and len(events) == self.max_events:
            self.events_dropped += 1  # ring is full: oldest event evicted
        events.append(
            TraceEvent(
                time_s=time_s,
                kind=kind,
                src=packet.src,
                dst=packet.dst,
                size_bytes=packet.size_bytes,
                flow=packet.flow,
                pkt_id=packet.pkt_id,
            )
        )
        if kind == SENT:
            self._sent_at[packet.pkt_id] = time_s
        elif kind == DELIVERED:
            sent = self._sent_at.pop(packet.pkt_id, None)
            if sent is not None:
                self._latencies.append(time_s - sent)
        else:  # dropped: the packet will never be delivered, drop its entry
            self._sent_at.pop(packet.pkt_id, None)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def flow_timeline(self, flow: str) -> List[TraceEvent]:
        """All events of one flow, in time order."""
        return sorted(
            (e for e in self.events if e.flow == flow), key=lambda e: e.time_s
        )

    def bytes_sent_by_host(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for event in self.of_kind(SENT):
            out[event.src] += event.size_bytes
        return dict(out)

    def egress_utilization(
        self, host: str, bandwidth_bps: float, window: Optional[Tuple[float, float]] = None
    ) -> float:
        """Fraction of ``host``'s egress capacity used over ``window``.

        Defaults to the full span of the trace.  Utilization is
        serialization time of the host's transmitted bytes divided by
        the window length.
        """
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        sent = [e for e in self.of_kind(SENT) if e.src == host]
        if not sent:
            return 0.0
        if window is None:
            lo = min(e.time_s for e in self.events)
            hi = max(e.time_s for e in self.events)
        else:
            lo, hi = window
        if hi <= lo:
            raise ValueError("window must have positive length")
        in_window = [e for e in sent if lo <= e.time_s <= hi]
        busy = sum(e.size_bytes for e in in_window) * 8.0 / bandwidth_bps
        return min(1.0, busy / (hi - lo))

    def delivery_latencies(self) -> List[float]:
        """Send-to-delivery latency of every delivered packet.

        Latencies are accumulated at delivery time (bounded by
        ``max_events`` when set), so they survive ring-buffer eviction
        of the underlying events.
        """
        return list(self._latencies)

    def drop_rate(self) -> float:
        sent = len(self.of_kind(SENT))
        if sent == 0:
            return 0.0
        return len(self.of_kind(DROPPED)) / sent


@dataclass(frozen=True)
class FaultRecord:
    """One injected-fault lifecycle event (crash, restart, recovery,
    degradation window edge, ...)."""

    time_s: float
    kind: str
    detail: Dict[str, float]


class FaultLog:
    """Timeline of injected faults and the recovery actions they caused.

    The cluster owns one; the fault injectors and the collective runner
    append to it, giving experiments a single place to correlate "what
    was injected" with "what the protocol did about it" -- the fault
    counterpart of :class:`PacketTracer`.

    Listeners (callables taking the new :class:`FaultRecord`) see every
    entry live; the telemetry layer uses this to fold fault entries
    into the unified event stream next to packets and spans.
    """

    def __init__(self) -> None:
        self.records: List[FaultRecord] = []
        self.listeners: List[Callable[[FaultRecord], None]] = []

    def add_listener(self, listener: Callable[[FaultRecord], None]) -> None:
        """Attach a live observer called with each new record."""
        self.listeners.append(listener)

    def remove_listener(self, listener: Callable[[FaultRecord], None]) -> None:
        """Detach a live observer; a no-op if it is not attached."""
        if listener in self.listeners:
            self.listeners.remove(listener)

    def record(self, time_s: float, kind: str, **detail: float) -> FaultRecord:
        entry = FaultRecord(time_s=time_s, kind=kind, detail=dict(detail))
        self.records.append(entry)
        for listener in self.listeners:
            listener(entry)
        return entry

    def __len__(self) -> int:
        return len(self.records)

    def of_kind(self, kind: str) -> List[FaultRecord]:
        return [r for r in self.records if r.kind == kind]

    def clear(self) -> None:
        self.records.clear()


def attach_tracer(
    network: Network, listeners: Iterable = (), max_events: Optional[int] = None
) -> PacketTracer:
    """Instrument ``network`` with a tracer (monkey-patches its hooks).

    ``listeners`` are forwarded to the tracer and see every event live
    with the full packet (see :class:`PacketTracer`); ``max_events``
    bounds the tracer's retained event ring.  Returns the tracer;
    detaching is not supported -- build a fresh network for untraced
    runs.
    """
    tracer = PacketTracer(listeners=listeners, max_events=max_events)
    original_transmit = network.transmit
    original_deliver = network._deliver

    def traced_transmit(packet, lossy=True, on_drop=None):
        tracer.record(network.sim.now, SENT, packet)

        def traced_drop(pkt):
            tracer.record(network.sim.now, DROPPED, pkt)
            if on_drop is not None:
                on_drop(pkt)

        original_transmit(packet, lossy=lossy, on_drop=traced_drop)

    def traced_deliver(dst, packet):
        tracer.record(network.sim.now, DELIVERED, packet)
        original_deliver(dst, packet)

    network.transmit = traced_transmit  # type: ignore[method-assign]
    network._deliver = traced_deliver  # type: ignore[method-assign]
    return tracer
