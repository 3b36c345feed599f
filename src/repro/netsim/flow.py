"""Flow-level fast path over the packet network.

The packet kernel is the reproduction's oracle: every transmission is a
scheduled event chain (tx CPU -> egress serialization -> wire latency ->
ingress serialization -> rx CPU -> deliver).  That exactness costs one
event-loop trip per stage per packet, which caps sweeps at ~90k events/s
and makes 512+-worker experiments cost hours.

This module provides the *flow mode* building blocks: the same
store-and-forward serialization model evaluated analytically, as plain
float arithmetic over the very same per-host pipeline-stage availability
times (``Host.tx_cpu_free_at`` and friends), instead of per-packet event
chains.

Two layers build on it:

* :class:`FlowTransport` wraps a packet transport and books whole
  messages per call.  The booking arithmetic is a literal transcription
  of :meth:`~repro.netsim.network.Network.transmit` /
  ``Network._ingress``, so a protocol engine running over a
  ``FlowTransport`` produces **bit-identical tensors, identical wire
  counters, and identical timestamps** -- it only executes fewer
  simulator events (one arrival per wire segment, one delivery per
  message, instead of per-segment ingress + delivery + receiver
  resumption).  Every baseline collective gains flow mode this way,
  unchanged.
* the analytic engines (:class:`~repro.core.flowreduce.FlowOmniReduce`,
  :class:`~repro.core.rackreduce.FlowRackHierarchical`) use the chain
  helpers and :class:`HostLedger` below to collapse whole protocol
  rounds into vectorized numpy over the same formulas (that is where
  the >=100x comes from).

Multi-tier topologies (:mod:`repro.netsim.topology`) are supported:
the packet kernel books the shared uplink/downlink/spine pipes
*synchronously* inside ``Network.transmit`` -- at send-call time, not
at a core-entry event -- so :class:`FlowTransport` reproduces the exact
same pipe bookings in the exact same global order by calling
``topology.traverse_core`` from its own (equally synchronous) send
path.  Both modes share one topology instance per run, so the floats
associate identically.

Flow mode refuses configurations whose semantics *require* per-packet
events -- lossy networks (drops are per packet), the datagram transport
(Algorithm 2's timers) -- by raising :class:`FlowUnsupported`; callers
fall back to packet mode.  The exact packet kernel stays the
conformance oracle: see ``repro.conformance`` for the packet-vs-flow
differential matrix and ``docs/performance.md`` for the equivalence
guarantees.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .loss import NoLoss
from .network import Host, Network
from .packet import Packet
from .transport import DatagramTransport, Transport

__all__ = [
    "FlowUnsupported",
    "FlowTransport",
    "FlowCluster",
    "flow_view",
    "require_flow_capable",
    "HostLedger",
    "cpu_chain",
    "serialize_chain",
]


class FlowUnsupported(RuntimeError):
    """The requested configuration needs per-packet simulation.

    Raised when flow mode is asked to model something whose semantics
    live at packet granularity: probabilistic loss, Algorithm 2's
    retransmission timers (the datagram transport), aggregator
    crash/restart orchestration, or deadline preemption.  Callers
    should run packet mode instead.
    """


def require_flow_capable(network: Network, transport: Transport) -> None:
    """Validate that ``network``/``transport`` admit flow-mode semantics."""
    if isinstance(transport, FlowTransport):
        return  # already validated at wrap time
    if isinstance(transport, DatagramTransport):
        raise FlowUnsupported(
            "flow mode cannot model the datagram transport: Algorithm 2's "
            "per-packet retransmission timers require packet events"
        )
    if not isinstance(network.loss, NoLoss):
        raise FlowUnsupported(
            f"flow mode requires a lossless network, got "
            f"{type(network.loss).__name__}: drops happen per packet"
        )


# ---------------------------------------------------------------------------
# Serialization-chain helpers (the flow-mode math, vectorized)
# ---------------------------------------------------------------------------


def cpu_chain(times: np.ndarray, cost: float, free0: float) -> np.ndarray:
    """Book ``len(times)`` jobs through a per-packet CPU stage.

    Returns the completion times ``f`` of the recurrence

        f[i] = max(times[i], f[i-1]) + cost,   f[-1] = free0

    which is exactly the ``tx_cpu``/``rx_cpu`` stage of
    :meth:`~repro.netsim.network.Network.transmit`: each job waits for
    the stage to free up, then occupies it for ``cost`` seconds.
    ``times`` must be the bookings in arrival order (the order the
    packet kernel would process them).
    """
    times = np.asarray(times, dtype=np.float64)
    n = times.size
    if n == 0:
        return times
    idx = np.arange(n, dtype=np.float64)
    base = np.maximum.accumulate(np.maximum(times, free0) - idx * cost)
    return base + (idx + 1.0) * cost


def serialize_chain(
    ready: np.ndarray, durations: np.ndarray, free0: float
) -> np.ndarray:
    """Book jobs through a store-and-forward serialization stage.

    Returns the completion times ``e`` of the recurrence

        e[i] = max(ready[i], e[i-1]) + durations[i],   e[-1] = free0

    -- the egress/ingress NIC stage: a message ready at ``ready[i]``
    starts serializing once the link frees up and occupies it for
    ``durations[i]`` seconds.  ``ready`` must be in booking order.

    Properties (the Hypothesis suite in ``tests/netsim`` checks these):

    * completion times are monotonically non-increasing in bandwidth
      (durations scale as ``1/bw``);
    * the *last* completion time depends on the durations only through
      their sum when the link never idles, and is invariant under
      permutation of equal ready times;
    * with a single job the result equals ``max(ready, free0) + dur``,
      the packet kernel's formula exactly.
    """
    ready = np.asarray(ready, dtype=np.float64)
    durations = np.asarray(durations, dtype=np.float64)
    n = ready.size
    if n == 0:
        return ready
    cum = np.cumsum(durations)
    prev = cum - durations
    base = np.maximum.accumulate(np.maximum(ready, free0) - prev)
    return base + cum


class HostLedger:
    """Per-host NIC pipeline state of one analytic flow-mode collective.

    The vectorized engines (:class:`~repro.core.flowreduce
    .FlowOmniReduce`, :class:`~repro.core.rackreduce
    .FlowRackHierarchical`) book a whole collective at submit time
    against arrays snapshotted from the hosts' stage availability
    (``Host.tx_cpu_free_at`` and friends), then :meth:`commit` writes the
    outcome back: the *reserve-at-begin* contract.  Concurrent flow
    collectives queue behind the booked run, and a traffic snapshot
    taken before the booking keeps per-run counter deltas exact.

    Rows follow the first occurrence of each name in ``names`` (a
    colocated aggregator shares its worker's row); ``index`` maps names
    to rows.
    """

    def __init__(self, network: Network, names: Sequence[str]) -> None:
        self.network = network
        self.index = {}
        self.names: List[str] = []
        for name in names:
            if name not in self.index:
                self.index[name] = len(self.names)
                self.names.append(name)
        hosts = self.hosts = [network.hosts[name] for name in self.names]
        self.tx_free = np.array([h.tx_cpu_free_at for h in hosts])
        self.eg_free = np.array([h.egress_free_at for h in hosts])
        self.in_free = np.array([h.ingress_free_at for h in hosts])
        self.rx_free = np.array([h.rx_cpu_free_at for h in hosts])
        self.tx_cost = np.array([h.tx_cpu_cost_s for h in hosts])
        self.rx_cost = np.array([h.rx_cpu_cost_s for h in hosts])
        self.bw = np.array([h.bandwidth_bps for h in hosts])
        self.sent_bytes = np.zeros(len(hosts), dtype=np.int64)
        self.sent_pkts = np.zeros(len(hosts), dtype=np.int64)
        self.recv_bytes = np.zeros(len(hosts), dtype=np.int64)
        self.recv_pkts = np.zeros(len(hosts), dtype=np.int64)

    def send_chain(self, h: int, at: float, sizes: np.ndarray) -> np.ndarray:
        """Book wire ``sizes`` through host ``h``'s tx CPU + egress at
        one send-call instant; returns egress-exit times."""
        ready = cpu_chain(np.full(sizes.size, at), self.tx_cost[h], self.tx_free[h])
        self.tx_free[h] = ready[-1]
        done = serialize_chain(ready, sizes * (8.0 / self.bw[h]), self.eg_free[h])
        self.eg_free[h] = done[-1]
        self.sent_bytes[h] += int(sizes.sum())
        self.sent_pkts[h] += sizes.size
        return done

    def recv_chain(
        self, h: int, arrivals: np.ndarray, sizes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Book arrivals through host ``h``'s ingress + rx CPU in the
        packet kernel's processing order (stable by arrival time; the
        caller pre-orders ties by send sequence).  Returns
        ``(deliver_times_in_input_order, processing_order)``."""
        order = np.argsort(arrivals, kind="stable")
        rx_done = serialize_chain(
            arrivals[order], sizes[order] * (8.0 / self.bw[h]), self.in_free[h]
        )
        self.in_free[h] = rx_done[-1]
        deliver = cpu_chain(rx_done, self.rx_cost[h], self.rx_free[h])
        self.rx_free[h] = deliver[-1]
        self.recv_bytes[h] += int(sizes.sum())
        self.recv_pkts[h] += sizes.size
        out = np.empty_like(deliver)
        out[order] = deliver
        return out, order

    def commit(self, flow_bytes: Dict[str, int]) -> None:
        """Write the booked stage times, per-host counters and per-flow
        wire bytes back to the hosts and ``network.stats``."""
        for i, host in enumerate(self.hosts):
            host.tx_cpu_free_at = float(self.tx_free[i])
            host.egress_free_at = float(self.eg_free[i])
            host.ingress_free_at = float(self.in_free[i])
            host.rx_cpu_free_at = float(self.rx_free[i])
        stats = self.network.stats
        for i, name in enumerate(self.names):
            stats.bytes_sent[name] += int(self.sent_bytes[i])
            stats.packets_sent[name] += int(self.sent_pkts[i])
            stats.bytes_received[name] += int(self.recv_bytes[i])
            stats.packets_received[name] += int(self.recv_pkts[i])
        for flow, nbytes in flow_bytes.items():
            stats.flow_bytes[flow] += int(nbytes)


# ---------------------------------------------------------------------------
# FlowTransport: whole-message analytical booking behind the Endpoint API
# ---------------------------------------------------------------------------


class FlowTransport(Transport):
    """Message-level transport over the packet network's timing model.

    Wraps an RDMA or TCP transport.  ``send`` (and the multi-segment
    ``send_message``) books the wrapped network's exact per-stage
    arithmetic -- same floats, same order -- but schedules only one
    arrival event per wire segment and a single delivery per message.
    Receivers therefore see one :class:`Packet` per message carrying the
    full payload; :class:`~repro.baselines.common.SegmentedChannel`
    detects the wrapper and forwards whole messages through it.

    Under the lossless configurations flow mode admits, the TCP
    transport never stalls or retransmits, so both wrapped transports
    reduce to plain reliable sends and the booking below is exact.
    """

    def __init__(self, inner: Transport) -> None:
        require_flow_capable(inner.network, inner)
        super().__init__(inner.network)
        self.inner = inner
        self.name = inner.name

    # -- delegation --------------------------------------------------------

    def wire_bytes(self, payload_bytes: int) -> int:
        return self.inner.wire_bytes(payload_bytes)

    def max_payload_bytes(self) -> int:
        return self.inner.max_payload_bytes()

    @property
    def total_retransmissions(self) -> int:
        return getattr(self.inner, "total_retransmissions", 0)

    def __getattr__(self, name: str) -> Any:
        # Fallback for inner-transport attributes (``mtu``, ``rto_s``...).
        return getattr(self.inner, name)

    # -- flow-mode sends ---------------------------------------------------

    def send(
        self,
        src: str,
        dst: str,
        dst_port: str,
        payload: Any,
        payload_bytes: int,
        flow: str,
    ) -> None:
        self._send_wire(
            src, dst, dst_port, payload, [self.wire_bytes(payload_bytes)], flow
        )

    def send_message(
        self,
        src: str,
        dst: str,
        dst_port: str,
        payload: Any,
        segment_payload_bytes: Sequence[int],
        flow: str,
    ) -> None:
        """Send one message pre-split into protocol segments.

        Each segment is billed and serialized exactly as an individual
        packet-mode send would be; the payload is delivered once, at the
        moment the *last* segment's delivery would have fired.
        """
        sizes = [self.wire_bytes(b) for b in segment_payload_bytes]
        self._send_wire(src, dst, dst_port, payload, sizes, flow)

    def _send_wire(
        self,
        src: str,
        dst: str,
        dst_port: str,
        payload: Any,
        wire_sizes: List[int],
        flow: str,
    ) -> None:
        # Literal transcription of Network.transmit, minus the loss
        # branch that require_flow_capable excluded.
        network = self.network
        sim = network.sim
        src_host = network.hosts[src]
        dst_host = network.hosts[dst]
        stats = network.stats
        topology = network.topology
        latency = network.latency_s
        now = sim.now
        tx_cost = src_host.tx_cpu_cost_s
        bw = src_host.bandwidth_bps
        last = len(wire_sizes) - 1
        for i, size in enumerate(wire_sizes):
            free = src_host.tx_cpu_free_at
            tx_ready = (now if now > free else free) + tx_cost
            src_host.tx_cpu_free_at = tx_ready
            free = src_host.egress_free_at
            tx_start = tx_ready if tx_ready > free else free
            # Same association order as Network.transmit, bit for bit.
            serialization = size * 8.0 / bw
            src_host.egress_free_at = tx_start + serialization
            stats.bytes_sent[src] += size
            stats.packets_sent[src] += 1
            if flow:
                stats.flow_bytes[flow] += size
            core_exit = tx_start + serialization
            if topology is not None:
                # The packet kernel books the shared topology pipes
                # synchronously at send-call time (Network.transmit);
                # doing the same here keeps the pipe state and float
                # association order identical between modes.
                core_exit = topology.traverse_core(core_exit, src, dst, size)
            wire_arrival = core_exit + latency
            if i == last:
                packet = Packet(src, dst, payload, size, dst_port, flow)
                sim.call_at(wire_arrival, self._arrive, dst_host, size, packet)
            else:
                sim.call_at(wire_arrival, self._arrive, dst_host, size, None)

    def _arrive(self, dst: Host, size: int, packet: Optional[Packet]) -> None:
        # Network._ingress booking; only the final segment delivers.
        sim = self.network.sim
        now = sim.now
        free = dst.ingress_free_at
        rx_start = now if now > free else free
        rx_done = rx_start + size * 8.0 / dst.bandwidth_bps
        dst.ingress_free_at = rx_done
        free = dst.rx_cpu_free_at
        deliver_at = (rx_done if rx_done > free else free) + dst.rx_cpu_cost_s
        dst.rx_cpu_free_at = deliver_at
        stats = self.network.stats
        stats.bytes_received[dst.name] += size
        stats.packets_received[dst.name] += 1
        if packet is not None:
            sim.call_at(deliver_at, self._deliver, dst, packet)

    def _deliver(self, dst: Host, packet: Packet) -> None:
        mailbox = dst._ports.get(packet.port)
        if mailbox is None:
            mailbox = dst.port(packet.port)
        mailbox.put(packet)


# ---------------------------------------------------------------------------
# FlowCluster: a cluster view whose transport is the flow fast path
# ---------------------------------------------------------------------------


class FlowCluster:
    """Proxy over a :class:`~repro.netsim.cluster.Cluster` that swaps the
    transport for a :class:`FlowTransport`.

    Every other attribute (``sim``, hosts, ``network``, ``stats``,
    ``faults``, ``telemetry``...) delegates to the wrapped cluster, so
    protocol engines built against the proxy share the wrapped cluster's
    simulator, hosts, and counters -- they only send through the flow
    fast path.  Engines that compose sub-engines (Parallax) pass the
    proxy down and compose in flow mode for free.
    """

    def __init__(self, cluster) -> None:
        self._flow_base = cluster
        self.transport = FlowTransport(cluster.transport)

    @property
    def flow_base(self):
        """The wrapped (packet-mode) cluster."""
        return self._flow_base

    @property
    def base(self):
        """The underlying real cluster (through fabric views), so
        telemetry instruments the shared instance, not this proxy."""
        return getattr(self._flow_base, "base", self._flow_base)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._flow_base, name)

    def __repr__(self) -> str:
        return f"FlowCluster({self._flow_base!r})"


def flow_view(cluster):
    """Return a flow-mode view of ``cluster`` (idempotent)."""
    if isinstance(cluster, FlowCluster):
        return cluster
    return FlowCluster(cluster)
