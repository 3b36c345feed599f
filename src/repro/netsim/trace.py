"""Packet and fault recorders.

:class:`PacketTracer` is a :class:`~repro.netsim.network.Network`
observer that keeps every packet event with its simulated timestamp --
the golden-trace recorder (:mod:`repro.conformance.golden`).  Live
watchers (invariant monitors, telemetry) subscribe to
``Network.observers`` directly and keep what they need.

:class:`FaultLog` is the cluster's timeline of injected faults and the
recovery actions they caused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from .network import DELIVERED, DROPPED, SENT, Network
from .packet import Packet

__all__ = ["TraceEvent", "PacketTracer", "attach_tracer", "FaultRecord", "FaultLog"]


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
    """A network observer that records every packet event in order."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def observe(self, time_s: float, kind: str, packet: Packet) -> None:
        self.events.append(
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


def attach_tracer(network: Network) -> PacketTracer:
    """Subscribe a fresh :class:`PacketTracer` to ``network`` and return it.

    Remove it from ``network.observers`` to stop recording.
    """
    tracer = PacketTracer()
    network.observers.append(tracer)
    return tracer
