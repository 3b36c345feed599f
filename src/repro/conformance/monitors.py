"""Pluggable invariant monitors for the simulated network.

A monitor watches a run *live* -- it plugs into
:meth:`repro.netsim.kernel.Simulator.add_step_observer` (the virtual
clock) and/or ``Network.observers`` (every sent/delivered/dropped
packet, payload included) -- and records
:class:`Violation` entries instead of raising, so one run can surface
every broken invariant at once.

The stock monitors encode the protocol-level guarantees the paper's
design relies on:

* :class:`ClockMonotonicityMonitor` -- simulated time never runs
  backwards and stays finite (kernel-level).
* :class:`PacketConservationMonitor` -- every transmission is accounted
  for: sent = delivered + dropped once the network has drained.
* :class:`AtMostOnceDeliveryMonitor` -- no transmission is delivered
  twice, and per (src, dst, port) channel deliveries preserve send
  order (the reliable-transport contract of §5).
* :class:`NoZeroBlockMonitor` -- the point of OmniReduce: no worker
  packet ever carries an all-zero block (§3).
* :class:`RetransmitBackoffMonitor` -- Algorithm 2 retransmissions of
  one outstanding packet are spaced by the configured timer, growing by
  the backoff factor and clamped at the maximum (§5, PR 1 extension).

Adding a monitor means subclassing :class:`InvariantMonitor`,
overriding ``observe`` (and/or ``on_step``), and listing it wherever the
conformance runner builds its monitor set; see ``docs/conformance.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.messages import WorkerPacket
from ..netsim.packet import Packet
from ..netsim.network import DELIVERED, DROPPED, SENT

__all__ = [
    "Violation",
    "InvariantMonitor",
    "ClockMonotonicityMonitor",
    "PacketConservationMonitor",
    "AtMostOnceDeliveryMonitor",
    "NoZeroBlockMonitor",
    "RetransmitBackoffMonitor",
    "default_monitors",
]


@dataclass(frozen=True)
class Violation:
    """One broken invariant, timestamped in simulated seconds."""

    monitor: str
    time_s: float
    message: str

    def __str__(self) -> str:
        return f"[{self.monitor} @ {self.time_s:.9f}s] {self.message}"


class InvariantMonitor:
    """Base class: a network observer that accumulates violations.

    Subclasses override :meth:`observe` (packet events) and/or
    :meth:`on_step` (kernel clock); :meth:`finish` runs end-of-run
    checks and returns the full violation list.
    """

    name = "invariant"

    #: Cap per monitor so a systematically broken run stays readable.
    MAX_VIOLATIONS = 32

    def __init__(self) -> None:
        self.violations: List[Violation] = []

    def violate(self, time_s: float, message: str) -> None:
        if len(self.violations) < self.MAX_VIOLATIONS:
            self.violations.append(Violation(self.name, time_s, message))

    # -- hooks -------------------------------------------------------------

    def observe(self, time_s: float, kind: str, packet: Packet) -> None:
        """Network observer protocol: one packet event."""

    def on_step(self, time_s: float) -> None:
        """Kernel step-observer protocol: the clock advanced to a step."""

    def attach(self, cluster) -> None:
        """Optional extra wiring (e.g. kernel observers) onto a cluster."""

    def finish(self) -> List[Violation]:
        """End-of-run checks; returns all recorded violations."""
        return self.violations


class ClockMonotonicityMonitor(InvariantMonitor):
    """Simulated time is finite, non-negative, and non-decreasing.

    Watches both the kernel's step clock (via
    :meth:`~repro.netsim.kernel.Simulator.add_step_observer`) and the
    timestamps the network reports, so a component lying about time is
    caught even if the kernel itself is healthy.
    """

    name = "clock-monotonicity"

    def __init__(self) -> None:
        super().__init__()
        self._last_step = -math.inf
        self._last_event = -math.inf
        self.steps_seen = 0

    def attach(self, cluster) -> None:
        cluster.sim.add_step_observer(self.on_step)

    def on_step(self, time_s: float) -> None:
        self.steps_seen += 1
        if not math.isfinite(time_s) or time_s < 0:
            self.violate(time_s, f"kernel stepped to non-finite/negative t={time_s}")
        elif time_s < self._last_step:
            self.violate(
                time_s,
                f"kernel clock ran backwards: {time_s} after {self._last_step}",
            )
        self._last_step = max(self._last_step, time_s)

    def observe(self, time_s: float, kind: str, packet: Packet) -> None:
        if time_s < self._last_event:
            self.violate(
                time_s,
                f"trace event ({kind} pkt {packet.pkt_id}) timestamped "
                f"{time_s} before previous event at {self._last_event}",
            )
        self._last_event = max(self._last_event, time_s)


class PacketConservationMonitor(InvariantMonitor):
    """sent = delivered + dropped, per packet and per flow.

    A transmission may legally be in flight *during* the run; call
    :meth:`finish` only after the network has drained (the runner runs
    the simulator to idle first).  Retransmissions of one packet object
    (same ``pkt_id``) count as separate transmissions.
    """

    name = "packet-conservation"

    def __init__(self) -> None:
        super().__init__()
        self._sent: Dict[int, int] = {}
        self._resolved: Dict[int, int] = {}  # delivered + dropped
        self._flow_counts: Dict[str, List[int]] = {}  # flow -> [sent, dlv, drop]
        self._last_time = 0.0

    def observe(self, time_s: float, kind: str, packet: Packet) -> None:
        self._last_time = max(self._last_time, time_s)
        flow = self._flow_counts.setdefault(packet.flow, [0, 0, 0])
        if kind == SENT:
            self._sent[packet.pkt_id] = self._sent.get(packet.pkt_id, 0) + 1
            flow[0] += 1
            return
        index = 1 if kind == DELIVERED else 2
        flow[index] += 1
        resolved = self._resolved.get(packet.pkt_id, 0) + 1
        self._resolved[packet.pkt_id] = resolved
        if resolved > self._sent.get(packet.pkt_id, 0):
            self.violate(
                time_s,
                f"packet {packet.pkt_id} ({packet.src}->{packet.dst}) "
                f"{kind} more times than it was sent",
            )

    def finish(self) -> List[Violation]:
        for flow, (sent, delivered, dropped) in sorted(self._flow_counts.items()):
            if sent != delivered + dropped:
                self.violate(
                    self._last_time,
                    f"flow {flow or '<unlabelled>'}: sent {sent} != "
                    f"delivered {delivered} + dropped {dropped} "
                    f"({sent - delivered - dropped} unaccounted)",
                )
        return self.violations


class AtMostOnceDeliveryMonitor(InvariantMonitor):
    """At-most-once, in-order delivery per (src, dst, port) channel.

    Every delivery must correspond to a prior transmission of the same
    packet, no transmission is delivered more than once, and deliveries
    on one channel form an order-preserving subsequence of its sends --
    the delivery contract both the RC transport and the simulated
    fabric promise, and the assumption Algorithm 2's versioned slots
    are built on.
    """

    name = "at-most-once-delivery"

    def __init__(self) -> None:
        super().__init__()
        self._sends: Dict[Tuple[str, str, str], List[int]] = {}
        self._cursor: Dict[Tuple[str, str, str], int] = {}
        self._sent_count: Dict[int, int] = {}
        self._delivered_count: Dict[int, int] = {}

    @staticmethod
    def _channel(packet: Packet) -> Tuple[str, str, str]:
        return (packet.src, packet.dst, packet.port)

    def observe(self, time_s: float, kind: str, packet: Packet) -> None:
        channel = self._channel(packet)
        if kind == SENT:
            self._sends.setdefault(channel, []).append(packet.pkt_id)
            self._sent_count[packet.pkt_id] = (
                self._sent_count.get(packet.pkt_id, 0) + 1
            )
            return
        if kind != DELIVERED:
            return
        sent = self._sent_count.get(packet.pkt_id, 0)
        if sent == 0:
            self.violate(
                time_s,
                f"packet {packet.pkt_id} delivered on {channel} "
                "without ever being sent",
            )
            return
        delivered = self._delivered_count.get(packet.pkt_id, 0) + 1
        self._delivered_count[packet.pkt_id] = delivered
        if delivered > sent:
            self.violate(
                time_s,
                f"packet {packet.pkt_id} delivered {delivered} times "
                f"but sent only {sent} times (duplicate delivery)",
            )
            return
        sends = self._sends.get(channel, [])
        cursor = self._cursor.get(channel, 0)
        try:
            position = sends.index(packet.pkt_id, cursor)
        except ValueError:
            self.violate(
                time_s,
                f"out-of-order delivery on {channel}: packet "
                f"{packet.pkt_id} arrived after a later transmission "
                "was already delivered",
            )
            return
        self._cursor[channel] = position + 1


class NoZeroBlockMonitor(InvariantMonitor):
    """No worker packet carries an all-zero data block (§3).

    Transmitting a zero block is not a correctness bug for the *result*
    -- adding zero is free -- which is exactly why it needs a monitor:
    nothing else would notice the protocol silently wasting the
    bandwidth its existence is justified by.  Attach only to runs whose
    configuration promises zero-block skipping (the
    ``zero_block_suppression`` feature); the SwitchML* ablation
    legitimately streams everything.
    """

    name = "no-zero-block"

    def __init__(self) -> None:
        super().__init__()
        self.blocks_seen = 0

    def observe(self, time_s: float, kind: str, packet: Packet) -> None:
        if kind != SENT or not isinstance(packet.payload, WorkerPacket):
            return
        for lane in packet.payload.lanes:
            if lane.data is None:
                continue
            self.blocks_seen += 1
            if not np.any(lane.data):
                self.violate(
                    time_s,
                    f"worker {packet.payload.worker_id} stream "
                    f"{packet.payload.stream} transmitted all-zero block "
                    f"{lane.block} (lane {lane.lane})",
                )


class RetransmitBackoffMonitor(InvariantMonitor):
    """Retransmissions follow the configured timer/backoff schedule.

    Repeated transmissions of one outstanding :class:`WorkerPacket` to
    the same destination port must be spaced by the current timer value:
    ``timeout_s`` after the original send, then growing by
    ``backoff_factor`` per expiry, clamped at ``timeout_max_s``.  Both
    premature retransmission (spamming the network faster than the
    timer allows) and an unbounded gap growth (backoff escaping its
    clamp) are violations.
    """

    name = "retransmit-backoff"

    #: Relative slack on expected gaps (the timer fires exactly in the
    #: simulator; the slack absorbs float arithmetic only).
    REL_TOL = 1e-6

    def __init__(
        self,
        timeout_s: float,
        backoff_factor: float = 1.0,
        timeout_max_s: Optional[float] = None,
    ) -> None:
        super().__init__()
        self.timeout_s = timeout_s
        self.backoff_factor = backoff_factor
        self.timeout_max_s = timeout_max_s
        # Keyed by payload object identity: a retransmission resends the
        # *same* WorkerPacket object, whereas a new round (which may
        # legally reuse the alternating version bit) builds a fresh one.
        # The payload is kept referenced so ids cannot be recycled.
        self._outstanding: Dict[int, Tuple[WorkerPacket, float, int]] = {}
        self.retransmissions_seen = 0

    def _expected_gap(self, retransmits_so_far: int) -> float:
        gap = self.timeout_s * (self.backoff_factor ** retransmits_so_far)
        if self.timeout_max_s is not None:
            gap = min(gap, self.timeout_max_s)
        return gap

    def observe(self, time_s: float, kind: str, packet: Packet) -> None:
        if kind != SENT or not isinstance(packet.payload, WorkerPacket):
            return
        payload = packet.payload
        key = id(payload)
        previous = self._outstanding.get(key)
        if previous is None:
            self._outstanding[key] = (payload, time_s, 0)
            return
        _, last_time, retx = previous
        self.retransmissions_seen += 1
        gap = time_s - last_time
        expected = self._expected_gap(retx)
        tolerance = expected * self.REL_TOL
        if gap < expected - tolerance:
            self.violate(
                time_s,
                f"worker {payload.worker_id} stream {payload.stream} "
                f"retransmitted after {gap:.3e}s; timer should have "
                f"waited {expected:.3e}s",
            )
        elif gap > expected + tolerance:
            bound = (
                self.timeout_max_s
                if self.timeout_max_s is not None
                else expected
            )
            if gap > bound + bound * self.REL_TOL:
                self.violate(
                    time_s,
                    f"worker {payload.worker_id} stream {payload.stream} "
                    f"retransmission gap {gap:.3e}s exceeds the backoff "
                    f"bound {bound:.3e}s",
                )
        self._outstanding[key] = (payload, time_s, retx + 1)


def default_monitors(
    algorithm: str = "",
    zero_block_suppression: bool = False,
    backoff: Optional[Tuple[float, float, Optional[float]]] = None,
) -> List[InvariantMonitor]:
    """The standard monitor set for one conformance run.

    Clock, conservation and delivery monitors always apply; the
    OmniReduce-specific monitors join when the run's configuration
    promises their invariants (``zero_block_suppression``; ``backoff`` as
    ``(timeout_s, backoff_factor, timeout_max_s)`` for lossy runs).
    """
    monitors: List[InvariantMonitor] = [
        ClockMonotonicityMonitor(),
        PacketConservationMonitor(),
        AtMostOnceDeliveryMonitor(),
    ]
    if zero_block_suppression and algorithm.startswith("omnireduce"):
        monitors.append(NoZeroBlockMonitor())
    if backoff is not None:
        monitors.append(RetransmitBackoffMonitor(*backoff))
    return monitors
