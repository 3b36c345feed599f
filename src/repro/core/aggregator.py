"""Aggregator-side protocol engines.

:class:`SlotAggregator` is the Algorithm 1 aggregator slot (lossless
transports) generalized with Block Fusion: a slot tracks, per fused
column ("lane"), the per-worker next non-zero block table; a lane's
current block is complete once ``current < min(next)`` over all workers,
and the slot multicasts one result packet when *all* lanes complete
(§3.2).

:class:`RecoverySlotAggregator` is the Algorithm 2 slot (lossy
transports): two-way versioned state, per-worker ``seen`` flags, a
modulo-N round counter, overwrite-on-first-packet accumulator reset, and
duplicate-request servicing by unicasting the stored round result.

Correctness of the duplicate handling relies on per-connection FIFO
delivery of the packets that *do* arrive, which both the simulated
network and the paper's transports (UDP on a single path, RDMA RC)
provide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..netsim.kernel import Simulator
from ..netsim.transport import Endpoint, Transport
from ..telemetry.spans import NULL_RECORDER
from ..tensors.blocks import INFINITY, NEG_INFINITY
from .messages import LaneEntry, ResultPacket, WorkerPacket, encode_immediate
from .partition import StreamRange

__all__ = ["SlotAggregator", "RecoverySlotAggregator", "SlotStats"]


@dataclass
class SlotStats:
    """Per-slot counters returned by an aggregator slot process."""

    stream: int
    rounds: int = 0
    packets_received: int = 0
    duplicates: int = 0
    finish_s: float = 0.0


def _combine(acc: Optional[np.ndarray], data: np.ndarray, reduction: str) -> np.ndarray:
    """Apply the commutative reduction operator."""
    if acc is None:
        return data.copy()
    if reduction == "sum":
        acc += data
    elif reduction == "max":
        np.maximum(acc, data, out=acc)
    else:  # min
        np.minimum(acc, data, out=acc)
    return acc


def _ordered_reduce(
    contributions: Dict[int, np.ndarray], reduction: str
) -> Optional[np.ndarray]:
    """Reduce buffered per-worker contributions in worker-id order (§7:
    numeric reproducibility -- float sums become order-independent of
    packet arrival)."""
    acc: Optional[np.ndarray] = None
    for worker_id in sorted(contributions):
        acc = _combine(acc, contributions[worker_id], reduction)
    return acc


class _SlotBase:
    """Shared wiring for both aggregator variants."""

    def __init__(
        self,
        sim: Simulator,
        transport: Transport,
        prefix: str,
        stream_range: StreamRange,
        width: int,
        num_workers: int,
        worker_hosts: Sequence[str],
        agg_host: str,
        block_size: int,
        reduction: str = "sum",
        deterministic: bool = False,
        port_suffix: str = "",
        recorder=NULL_RECORDER,
    ) -> None:
        self.sim = sim
        # Telemetry recorder: the shared null recorder unless a
        # Telemetry is attached; hot-path calls gate on ``enabled``.
        self.recorder = recorder
        self.block_size = block_size
        self.deterministic = deterministic
        self.range = stream_range
        self.stream = stream_range.stream
        self.num_workers = num_workers
        self.worker_hosts = list(worker_hosts)
        self.reduction = reduction
        self.width = min(width, max(1, stream_range.num_blocks))
        # ``port_suffix`` isolates respawned generations of a stream from
        # stale in-flight packets addressed to the crashed generation.
        self.endpoint: Endpoint = transport.endpoint(
            agg_host, f"{prefix}.a{self.stream}{port_suffix}"
        )
        self._worker_port = f"{prefix}.w{self.stream}{port_suffix}"
        self.flow = f"{prefix}.down"
        # Telemetry track (Chrome-trace thread) name for this slot.
        self._track = f"{agg_host}/slot{self.stream}{port_suffix}"
        self.stats = SlotStats(stream=self.stream)
        # Current block per lane: the initial row (first blocks of range).
        count = min(self.width, stream_range.num_blocks)
        lo, stride = stream_range.lo, stream_range.stride
        self.current: List[int] = [lo + c * stride for c in range(count)]
        self.num_lanes = count
        # The §5 immediate with a zero block count; per-packet encoding
        # just ORs in the count (always < 2**16 here).
        self._imm_base = encode_immediate("float32", self.reduction, self.stream, 0)

    def _multicast(self, result: ResultPacket) -> None:
        result.immediate = self._imm_base | len(result.lanes)
        payload_bytes = result.payload_bytes()
        for host in self.worker_hosts:
            self.endpoint.send(host, self._worker_port, result, payload_bytes, self.flow)

    def _unicast(self, result: ResultPacket, worker_id: int) -> None:
        self.endpoint.send(
            self.worker_hosts[worker_id],
            self._worker_port,
            result,
            result.payload_bytes(),
            self.flow,
        )


class SlotAggregator(_SlotBase):
    """Algorithm 1 aggregator slot (lossless transport)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Per-worker next table, the algorithm's ``next[N]`` (l.18),
        # stored column-major (one list per lane) as plain ints: the
        # per-packet update recomputes only the touched lanes' mins,
        # which beats a numpy (workers x lanes) reduction at these sizes.
        self._next_cols: List[List[int]] = [
            [NEG_INFINITY] * self.num_workers for _ in range(self.num_lanes)
        ]
        self._mins: List[int] = [NEG_INFINITY] * self.num_lanes
        self._acc: List[Optional[np.ndarray]] = [None] * self.num_lanes
        # Deterministic mode buffers contributions until the round ends.
        self._pending: List[Dict[int, np.ndarray]] = [
            {} for _ in range(self.num_lanes)
        ]

    def run(self):
        """Generator process: aggregate until every lane reaches infinity."""
        rec = self.recorder
        recording = rec.enabled  # constant for the life of the process
        track = self._track
        round_open = False
        if recording:
            rec.begin(self.sim.now, track, "slot", cat="aggregator",
                      args={"stream": self.stream, "lanes": self.num_lanes})
        next_cols = self._next_cols
        mins = self._mins
        current = self.current
        while not all(block == INFINITY for block in current):
            received = yield self.endpoint.recv()
            if recording and not round_open:
                # Slot occupancy: first contribution opens the round.
                rec.begin(self.sim.now, track, "round", cat="aggregator")
                round_open = True
            packet: WorkerPacket = received.payload
            self.stats.packets_received += 1
            worker_id = packet.worker_id
            for entry in packet.lanes:
                if entry.data is not None:
                    if self.deterministic:
                        self._pending[entry.lane][worker_id] = entry.data
                    else:
                        self._acc[entry.lane] = _combine(
                            self._acc[entry.lane], entry.data, self.reduction
                        )
                column = next_cols[entry.lane]
                column[worker_id] = entry.next_block
                mins[entry.lane] = min(column)

            complete = all(
                current[lane] == INFINITY or current[lane] < mins[lane]
                for lane in range(self.num_lanes)
            )
            if not complete:
                continue

            lanes: List[LaneEntry] = []
            for lane in range(self.num_lanes):
                if self.current[lane] == INFINITY:
                    continue
                # acc is None only when every worker's block here was
                # zero (the initial row): the result is then metadata-only
                # -- zero blocks do not travel downward either.
                if self.deterministic:
                    data = _ordered_reduce(self._pending[lane], self.reduction)
                    self._pending[lane].clear()
                else:
                    data = self._acc[lane]
                lanes.append(
                    LaneEntry(
                        lane=lane,
                        block=self.current[lane],
                        next_block=int(mins[lane]),
                        data=data,
                    )
                )
                self.current[lane] = int(mins[lane])
            # Reset the accumulator in place: the emitted arrays travel
            # inside the result packet, so the slot only drops its
            # references -- the per-round list/dict containers are reused
            # for the life of the slot.
            acc = self._acc
            for lane in range(self.num_lanes):
                acc[lane] = None
            self.stats.rounds += 1
            self._multicast(ResultPacket(stream=self.stream, version=0, lanes=lanes))
            if recording:
                rec.end(self.sim.now, track)  # round closes at multicast
                round_open = False

        self.stats.finish_s = self.sim.now
        if recording:
            if round_open:
                rec.end(self.sim.now, track)
            rec.end(self.sim.now, track)  # slot lifetime
        return self.stats


class RecoverySlotAggregator(_SlotBase):
    """Algorithm 2 aggregator slot (lossy transport)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        lanes, workers = self.num_lanes, self.num_workers
        self._acc = {0: [None] * lanes, 1: [None] * lanes}
        self._pending = {
            0: [dict() for _ in range(lanes)],
            1: [dict() for _ in range(lanes)],
        }
        # Plain-int state: these are touched once per received packet,
        # where list indexing beats numpy scalar indexing handily.
        self._min_next = {0: [INFINITY] * lanes, 1: [INFINITY] * lanes}
        self._seen = {0: [False] * workers, 1: [False] * workers}
        self._count = {0: 0, 1: 0}
        self._last_result: Dict[int, ResultPacket] = {}

    def run(self):
        """Generator process: count-driven rounds with duplicate service.

        The process never returns on its own: after the final round it
        keeps answering retransmitted requests (a worker may have lost
        the last result).  The collective runner stops the simulation
        when every worker finishes.  The slot's lifetime span is
        therefore closed by the telemetry layer at the run boundary.
        """
        rec = self.recorder
        recording = rec.enabled  # constant for the life of the process
        track = self._track
        round_open = False
        if recording:
            rec.begin(self.sim.now, track, "slot", cat="aggregator",
                      args={"stream": self.stream, "lanes": self.num_lanes})
        while True:
            received = yield self.endpoint.recv()
            packet: WorkerPacket = received.payload
            self.stats.packets_received += 1
            version = packet.version
            worker = packet.worker_id

            if self._seen[version][worker]:
                # Duplicate (retransmission).  If this version's round
                # already completed, the worker must have missed the
                # result: resend it unicast (Alg. 2 l.47-49).
                self.stats.duplicates += 1
                if self._count[version] == 0 and version in self._last_result:
                    if recording:
                        rec.instant(
                            self.sim.now, track, "duplicate-service",
                            cat="aggregator", args={"worker": worker},
                        )
                    self._unicast(self._last_result[version], worker)
                continue

            self._seen[version][worker] = True
            self._seen[version ^ 1][worker] = False
            self._count[version] += 1
            first_of_round = self._count[version] == 1
            if recording and not round_open:
                # Slot occupancy: first contribution opens the round.
                rec.begin(self.sim.now, track, "round", cat="aggregator")
                round_open = True
            if first_of_round:
                # Overwrite-on-first-packet reset (Alg. 2), reusing the
                # version's containers rather than reallocating them.
                min_next = self._min_next[version]
                for lane in range(self.num_lanes):
                    min_next[lane] = INFINITY
                acc = self._acc[version]
                for lane in range(self.num_lanes):
                    acc[lane] = None
                for pending in self._pending[version]:
                    pending.clear()

            min_next = self._min_next[version]
            for entry in packet.lanes:
                if entry.data is not None:
                    if self.deterministic:
                        self._pending[version][entry.lane][worker] = entry.data
                    else:
                        self._acc[version][entry.lane] = _combine(
                            self._acc[version][entry.lane], entry.data, self.reduction
                        )
                if entry.next_block < min_next[entry.lane]:
                    min_next[entry.lane] = entry.next_block

            if self._count[version] < self.num_workers:
                continue

            # Round complete (Alg. 2: count wrapped to zero).
            self._count[version] = 0
            lanes: List[LaneEntry] = []
            for lane in range(self.num_lanes):
                if self.current[lane] == INFINITY:
                    continue
                if self.deterministic:
                    data = _ordered_reduce(
                        self._pending[version][lane], self.reduction
                    )
                else:
                    data = self._acc[version][lane]  # None => metadata-only
                next_block = int(self._min_next[version][lane])
                lanes.append(
                    LaneEntry(
                        lane=lane,
                        block=self.current[lane],
                        next_block=next_block,
                        data=data,
                    )
                )
                self.current[lane] = next_block
            result = ResultPacket(stream=self.stream, version=version, lanes=lanes)
            self._last_result[version] = result
            self.stats.rounds += 1
            self._multicast(result)
            if recording:
                rec.end(self.sim.now, track)  # round closes at multicast
                round_open = False
            if all(block == INFINITY for block in self.current):
                self.stats.finish_s = self.sim.now
                # Stay alive to service duplicate final-round requests.
