"""Worker-side protocol engines.

:class:`StreamWorker` implements Algorithm 1 (lossless networks: the
RDMA and TCP paths) generalized with Block Fusion: each stream runs the
basic algorithm independently per fused column ("lane"), and a packet
carries the union of lanes that have data.

:class:`RecoveryStreamWorker` implements the worker side of Algorithm 2
(lossy networks: the DPDK path): every round it answers the aggregator
with either data or an empty acknowledgment, associates a retransmission
timer with every packet, and alternates the slot version bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..netsim.kernel import Simulator
from ..netsim.transport import Endpoint, Transport
from ..telemetry.spans import NULL_RECORDER
from ..tensors.blocks import BlockView, INFINITY
from .messages import VALUE_BYTES, LaneEntry, ResultPacket, WorkerPacket, encode_immediate
from .partition import FusionLayout
from .prefetch import CopyEngine, PrefetchSchedule

__all__ = ["StreamWorker", "RecoveryStreamWorker", "StreamWorkerStats"]


@dataclass
class StreamWorkerStats:
    """Per-stream counters returned by a worker stream process."""

    worker_id: int
    stream: int
    finish_s: float = 0.0
    packets_sent: int = 0
    blocks_sent: int = 0
    acks_sent: int = 0
    retransmissions: int = 0
    timeouts_fired: int = 0
    rounds: int = 0
    #: Seconds spent blocked waiting for aggregation results.
    stall_s: float = 0.0


class _StreamWorkerBase:
    """Shared wiring for both protocol variants."""

    def __init__(
        self,
        sim: Simulator,
        transport: Transport,
        prefix: str,
        worker_id: int,
        worker_host: str,
        agg_host: str,
        layout: FusionLayout,
        view: BlockView,
        prefetch: Optional[PrefetchSchedule] = None,
        down_engine: Optional[CopyEngine] = None,
        start_delay_s: float = 0.0,
        reduction: str = "sum",
        readiness=None,
        contrib_view: Optional[BlockView] = None,
        port_suffix: str = "",
        recorder=NULL_RECORDER,
    ) -> None:
        self.sim = sim
        # Telemetry recorder: the shared null recorder unless a
        # Telemetry is attached; hot-path calls gate on ``enabled``.
        self.recorder = recorder
        self.worker_id = worker_id
        self.layout = layout
        self.view = view
        # Pristine copy of this worker's contribution.  Normally the
        # result tensor aliases the input, which is safe because each
        # block is read before its result lands -- but stream
        # re-execution after an aggregator crash re-reads blocks whose
        # results may already be stored, so crash-capable runs pass a
        # separate contribution view.
        self.contrib = contrib_view if contrib_view is not None else view
        self.prefetch = prefetch
        self.down_engine = down_engine
        self.readiness = readiness
        # With neither a readiness schedule nor a prefetch plan, every
        # block is available immediately: the per-packet delay scan
        # always returns 0 and is skipped wholesale.
        self._gated = readiness is not None or prefetch is not None
        self.start_delay_s = start_delay_s
        self.agg_host = agg_host
        stream = layout.range.stream
        self.stream = stream
        # ``port_suffix`` isolates respawned generations of a stream from
        # stale in-flight packets addressed to the crashed generation.
        self.agg_port = f"{prefix}.a{stream}{port_suffix}"
        self.endpoint: Endpoint = transport.endpoint(
            worker_host, f"{prefix}.w{stream}{port_suffix}"
        )
        self.flow = f"{prefix}.up"
        # Telemetry track (Chrome-trace thread) names for this engine.
        self._track = f"{worker_host}/w{worker_id}.s{stream}{port_suffix}"
        self._timer_track = self._track + "/timer"
        self.finished = False
        self.reduction = reduction
        self.stats = StreamWorkerStats(worker_id=worker_id, stream=stream)
        # The §5 immediate with a zero block count; per-packet encoding
        # just ORs in the count (always < 2**16 here).
        self._imm_base = encode_immediate("float32", reduction, stream, 0)
        # Worker-local next non-zero pointer per lane (the algorithm's
        # ``next`` variable), initialized past the first row.
        self.my_next: List[int] = [
            layout.next_in_lane(lane, block)
            for lane, block in enumerate(layout.first_row())
        ]

    # -- data movement helpers -------------------------------------------

    def _block_available_at(self, block: int) -> float:
        """When the block can be transmitted: the gradient has been
        produced (readiness schedule, compute/comm overlap) *and* its
        bytes are host-resident (chunk prefetch)."""
        available = self.sim.now
        end_byte = (block + 1) * self.layout.view.block_size * VALUE_BYTES
        if self.readiness is not None:
            offset = min(end_byte, self.readiness.total_bytes) if hasattr(
                self.readiness, "total_bytes"
            ) else end_byte
            available = max(available, self.readiness.available_at(offset))
        if self.prefetch is not None:
            available = max(
                available,
                self.prefetch.available_at(min(end_byte, self.prefetch.total_bytes)),
            )
        return available

    def _store_result_lanes(self, packet: ResultPacket) -> None:
        """Write aggregated blocks into the local tensor; book the
        host->GPU copy on the downward engine."""
        nbytes = 0
        view = self.view
        flat = view.flat
        block_size = view.block_size
        flat_size = flat.size
        for entry in packet.lanes:
            data = entry.data
            if data is not None:
                # Inlined BlockView.set_block (protocol-produced blocks
                # are always in range and block-sized): store the
                # in-range prefix, zero-padding semantics for the tail.
                start = entry.block * block_size
                end = start + block_size
                if end <= flat_size:
                    flat[start:end] = data
                else:
                    flat[start:flat_size] = data[: flat_size - start]
                nbytes += data.size * VALUE_BYTES
        if nbytes and self.down_engine is not None:
            self.down_engine.reserve(nbytes, self.sim.now)

    def _initial_packet(self, version: int = 0) -> WorkerPacket:
        """First-row packet (§3.1): one lane entry per column.

        A lane carries data only when its first block is transmittable
        (non-zero, or unconditionally in dense/SwitchML* mode); otherwise
        the entry is metadata-only, delivering just the worker's initial
        ``next`` so the aggregator can build its look-ahead table without
        zero blocks ever crossing the wire.
        """
        entries = []
        layout = self.layout
        is_listed = layout.is_listed
        get_block = self.contrib.get_block
        my_next = self.my_next
        for lane, block in enumerate(layout.first_row()):
            data = get_block(block) if is_listed(lane, block) else None
            entries.append(LaneEntry(lane, block, my_next[lane], data))
        return WorkerPacket(
            worker_id=self.worker_id,
            stream=self.stream,
            version=version,
            lanes=entries,
        )

    def _send(self, packet: WorkerPacket) -> None:
        # Attach the §5 32-bit immediate (type, opcode, slot id, blocks).
        packet.immediate = self._imm_base | len(packet.lanes)
        self.endpoint.send(
            self.agg_host,
            self.agg_port,
            packet,
            packet.payload_bytes(),
            flow=self.flow,
        )
        self.stats.packets_sent += 1
        if packet.is_ack:
            self.stats.acks_sent += 1
        else:
            self.stats.blocks_sent += sum(
                1 for entry in packet.lanes if entry.data is not None
            )

    def _data_delay(self, packet: WorkerPacket) -> float:
        """Seconds to wait until every data block in ``packet`` has been
        prefetched into host memory."""
        if not self._gated:
            return 0.0
        avail = self.sim.now
        for entry in packet.lanes:
            if entry.data is not None:
                avail = max(avail, self._block_available_at(entry.block))
        return max(0.0, avail - self.sim.now)

    def pending_blocks(self) -> int:
        """Listed (non-zero) blocks this worker has not yet transmitted.

        ``my_next[lane]`` points at the next untransmitted listed block,
        so the pending count per lane is the tail of the lane's listed
        column from that position on.  Feeds the staleness report when a
        deadline cuts the collective short.
        """
        if self.finished:
            return 0
        total = 0
        for lane in range(self.layout.num_lanes):
            nxt = self.my_next[lane]
            if nxt >= INFINITY:
                continue
            column = self.layout.nonzero_in_lane(lane)
            total += len(column) - int(np.searchsorted(column, nxt, side="left"))
        return total


class StreamWorker(_StreamWorkerBase):
    """Algorithm 1 worker (lossless transport)."""

    def run(self):
        """Generator process: one stream of the basic protocol."""
        sim = self.sim
        rec = self.recorder
        recording = rec.enabled  # constant for the life of the process
        track = self._track
        if self.start_delay_s > 0:
            yield sim.timeout(self.start_delay_s)
        if self.layout.range.num_blocks == 0:
            self.finished = True
            self.stats.finish_s = sim.now
            return self.stats
        if recording:
            rec.begin(sim.now, track, "stream", cat="worker",
                      args={"worker": self.worker_id, "stream": self.stream})

        first = self._initial_packet()
        delay = self._data_delay(first)
        if delay > 0:
            if recording:
                rec.begin(sim.now, track, "await-data", cat="compute")
            yield sim.timeout(delay)
            if recording:
                rec.end(sim.now, track)
        self._send(first)

        lanes_done = [False] * self.layout.num_lanes
        my_next = self.my_next
        next_in_lane = self.layout.next_in_lane
        get_block = self.contrib.get_block
        # With look-ahead on, every visited block is data-bearing by
        # construction; with it ablated, zero positions are visited too
        # and answer metadata-only (suppression still holds the payload).
        walk_is_data = self.layout.walk_is_data
        is_listed = self.layout.is_listed
        recv = self.endpoint.recv
        stats = self.stats
        while not all(lanes_done):
            wait_from = sim.now
            if recording:
                rec.begin(wait_from, track, "await-result", cat="wait")
            received = yield recv()
            if recording:
                rec.end(sim.now, track)
            stats.stall_s += sim.now - wait_from
            result: ResultPacket = received.payload
            stats.rounds += 1
            self._store_result_lanes(result)

            response_lanes: List[LaneEntry] = []
            for entry in result.lanes:
                requested = entry.next_block
                if requested == INFINITY:
                    lanes_done[entry.lane] = True
                    continue
                if requested == my_next[entry.lane]:
                    next_after = next_in_lane(entry.lane, requested)
                    my_next[entry.lane] = next_after
                    data = (
                        get_block(requested)
                        if walk_is_data or is_listed(entry.lane, requested)
                        else None
                    )
                    response_lanes.append(
                        LaneEntry(entry.lane, requested, next_after, data)
                    )
            if response_lanes:
                packet = WorkerPacket(
                    worker_id=self.worker_id,
                    stream=self.stream,
                    version=0,
                    lanes=response_lanes,
                )
                delay = self._data_delay(packet)
                if delay > 0:
                    if recording:
                        rec.begin(sim.now, track, "await-data", cat="compute")
                    yield sim.timeout(delay)
                    if recording:
                        rec.end(sim.now, track)
                self._send(packet)

        self.finished = True
        self.stats.finish_s = sim.now
        if recording:
            rec.end(sim.now, track)
        return self.stats


class RecoveryStreamWorker(_StreamWorkerBase):
    """Algorithm 2 worker (lossy transport): acks, timers, versions.

    Extends the paper's fixed retransmission timer with optional
    exponential backoff: each expiry multiplies the timer by
    ``backoff_factor`` (clamped at ``timeout_max_s``), and a valid
    response resets it to ``timeout_s``.  The default factor of 1.0
    reproduces Algorithm 2's fixed timer exactly.
    """

    def __init__(
        self,
        *args,
        timeout_s: float = 1e-3,
        backoff_factor: float = 1.0,
        timeout_max_s: Optional[float] = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.timeout_s = timeout_s
        self.backoff_factor = backoff_factor
        self.timeout_max_s = timeout_max_s
        self._current_timeout_s = timeout_s
        self._outstanding: Optional[WorkerPacket] = None
        self._timer = None

    @property
    def backoff_timeout_s(self) -> float:
        """The timer value currently armed (observability hook)."""
        return self._current_timeout_s

    # -- timer management --------------------------------------------------

    def _arm_timer(self) -> None:
        sim = self.sim
        rec = self.recorder
        if rec.enabled:
            rec.begin(
                sim.now,
                self._timer_track,
                "retransmit-timer",
                cat="timer",
                args={"timeout_s": self._current_timeout_s},
            )
        self._timer = sim.call_at(sim.now + self._current_timeout_s, self._on_timeout)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self.sim.cancel(self._timer)
            self._timer = None
            rec = self.recorder
            if rec.enabled:
                rec.end(self.sim.now, self._timer_track)

    def _reset_backoff(self) -> None:
        self._current_timeout_s = self.timeout_s

    def _on_timeout(self) -> None:
        if self._outstanding is None:
            return
        rec = self.recorder
        if rec.enabled:
            # The armed timer's lifetime span ends by firing.
            rec.end(self.sim.now, self._timer_track)
            rec.instant(
                self.sim.now,
                self._timer_track,
                "timeout-fired",
                cat="timer",
                args={"timeout_s": self._current_timeout_s},
            )
        self.stats.timeouts_fired += 1
        self.stats.retransmissions += 1
        self._send(self._outstanding)
        if self.backoff_factor > 1.0:
            grown = self._current_timeout_s * self.backoff_factor
            if self.timeout_max_s is not None:
                grown = min(grown, self.timeout_max_s)
            self._current_timeout_s = grown
        self._arm_timer()

    def _transmit(self, packet: WorkerPacket) -> None:
        self._outstanding = packet
        self._send(packet)
        self._arm_timer()

    def run(self):
        """Generator process: one stream of the loss-tolerant protocol."""
        sim = self.sim
        rec = self.recorder
        recording = rec.enabled  # constant for the life of the process
        track = self._track
        timer_track = self._timer_track
        if self.start_delay_s > 0:
            yield sim.timeout(self.start_delay_s)
        if self.layout.range.num_blocks == 0:
            self.finished = True
            self.stats.finish_s = sim.now
            return self.stats
        if recording:
            rec.begin(sim.now, track, "stream", cat="worker",
                      args={"worker": self.worker_id, "stream": self.stream})

        # The finally block disarms the retransmission timer even when a
        # fault injector interrupts the process mid-protocol: a dead
        # worker's timer must not keep retransmitting into the void.
        try:
            version = 0
            first = self._initial_packet(version)
            delay = self._data_delay(first)
            if delay > 0:
                if recording:
                    rec.begin(sim.now, track, "await-data", cat="compute")
                yield sim.timeout(delay)
                if recording:
                    rec.end(sim.now, track)
            self._transmit(first)

            my_next = self.my_next
            next_in_lane = self.layout.next_in_lane
            get_block = self.contrib.get_block
            walk_is_data = self.layout.walk_is_data
            is_listed = self.layout.is_listed
            recv = self.endpoint.recv
            stats = self.stats
            while True:
                wait_from = sim.now
                if recording:
                    rec.begin(wait_from, track, "await-result", cat="wait")
                received = yield recv()
                if recording:
                    rec.end(sim.now, track)
                stats.stall_s += sim.now - wait_from
                result: ResultPacket = received.payload
                if result.version != version:
                    continue  # duplicate result for an already-processed round
                # Inlined _cancel_timer/_reset_backoff (per valid result).
                timer = self._timer
                if timer is not None:
                    sim.cancel(timer)
                    self._timer = None
                    if recording:
                        rec.end(sim.now, timer_track)
                self._outstanding = None
                self._current_timeout_s = self.timeout_s
                self.stats.rounds += 1
                self._store_result_lanes(result)

                # One pass: finished lanes (next == infinity) contribute
                # no response entry, so an empty response list means the
                # reduction is complete.
                response_lanes: List[LaneEntry] = []
                has_data = False
                for entry in result.lanes:
                    requested = entry.next_block
                    if requested == INFINITY:
                        continue
                    if requested == my_next[entry.lane]:
                        next_after = next_in_lane(entry.lane, requested)
                        my_next[entry.lane] = next_after
                        data = (
                            get_block(requested)
                            if walk_is_data or is_listed(entry.lane, requested)
                            else None
                        )
                        response_lanes.append(
                            LaneEntry(entry.lane, requested, next_after, data)
                        )
                        if data is not None:
                            has_data = True
                    else:
                        # Empty acknowledgment lane: echo my next (Alg. 2 l.19).
                        response_lanes.append(
                            LaneEntry(entry.lane, requested, my_next[entry.lane], None)
                        )
                if not response_lanes:
                    break  # every lane signalled infinity: reduction complete

                version ^= 1
                packet = WorkerPacket(
                    worker_id=self.worker_id,
                    stream=self.stream,
                    version=version,
                    lanes=response_lanes,
                    is_ack=not has_data,
                )
                delay = self._data_delay(packet)
                if delay > 0:
                    if recording:
                        rec.begin(sim.now, track, "await-data", cat="compute")
                    yield sim.timeout(delay)
                    if recording:
                        rec.end(sim.now, track)
                self._transmit(packet)
        finally:
            self._cancel_timer()
            self._outstanding = None

        self.finished = True
        self.stats.finish_s = sim.now
        if recording:
            rec.end(sim.now, track)
        return self.stats
