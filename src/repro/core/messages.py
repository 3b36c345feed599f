"""Protocol messages and wire-size accounting.

A protocol exchange consists of :class:`WorkerPacket` (worker ->
aggregator) and :class:`ResultPacket` (aggregator -> workers), each
carrying one :class:`LaneEntry` per Block Fusion column that has data.
Without fusion a packet simply carries a single lane.

The module also implements the 32-bit immediate-value metadata encoding
described in §5 (data type 2 bits, opcode 2 bits, slot id 12 bits, block
count 16 bits); the RDMA path attaches it to every message.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

# Bytes of one float32 element on the wire (the sparse encodings' unit).
from ..tensors.sparse import VALUE_BYTES

__all__ = [
    "LaneEntry",
    "WorkerPacket",
    "ResultPacket",
    "encode_immediate",
    "decode_immediate",
    "DATA_TYPES",
    "OPCODES",
]

#: Bytes for a block index / next-offset field on the wire.
OFFSET_BYTES = 4
#: Fixed per-packet metadata (block num field etc.).
PACKET_FIXED_BYTES = 4

#: 2-bit data type codes (§5).
DATA_TYPES = {"float32": 0, "float16": 1, "int32": 2, "int8": 3}
#: 2-bit AllReduce opcodes (§5); §7 generalizes to AllGather/Broadcast.
OPCODES = {"sum": 0, "max": 1, "min": 2, "gather": 3}


def encode_immediate(data_type: str, opcode: str, slot_id: int, num_blocks: int) -> int:
    """Pack metadata into a 32-bit RDMA immediate value (§5)."""
    if data_type not in DATA_TYPES:
        raise ValueError(f"unknown data type {data_type!r}")
    if opcode not in OPCODES:
        raise ValueError(f"unknown opcode {opcode!r}")
    if not 0 <= slot_id < (1 << 12):
        raise ValueError(f"slot id {slot_id} does not fit in 12 bits")
    if not 0 <= num_blocks < (1 << 16):
        raise ValueError(f"block count {num_blocks} does not fit in 16 bits")
    return (
        (DATA_TYPES[data_type] << 30)
        | (OPCODES[opcode] << 28)
        | (slot_id << 16)
        | num_blocks
    )


def decode_immediate(imm: int) -> Tuple[str, str, int, int]:
    """Inverse of :func:`encode_immediate`."""
    if not 0 <= imm < (1 << 32):
        raise ValueError(f"immediate {imm} is not a 32-bit value")
    data_type_code = (imm >> 30) & 0x3
    opcode_code = (imm >> 28) & 0x3
    slot_id = (imm >> 16) & 0xFFF
    num_blocks = imm & 0xFFFF
    data_type = next(k for k, v in DATA_TYPES.items() if v == data_type_code)
    opcode = next(k for k, v in OPCODES.items() if v == opcode_code)
    return data_type, opcode, slot_id, num_blocks


def _lanes_payload_bytes(lanes: List["LaneEntry"], value_bytes: int) -> int:
    """Wire bytes of a lane list: offsets per lane plus any data."""
    size = PACKET_FIXED_BYTES + 2 * OFFSET_BYTES * len(lanes)
    for lane in lanes:
        data = lane.data
        if data is not None:
            size += data.size * value_bytes
    return size


class LaneEntry:
    """One fused block inside a packet.

    ``block`` is the global block index being transmitted (or, in a
    result packet, the block the data aggregates).  ``next_block`` is the
    sender's next non-zero block in this lane / the aggregator's next
    request.  ``data`` is ``None`` in pure-metadata entries (acks, and
    result lanes that finished).

    A ``__slots__`` class rather than a dataclass: the protocol creates
    one per fused column per packet, making this one of the hottest
    allocations in the simulator.
    """

    __slots__ = ("lane", "block", "next_block", "data")

    def __init__(
        self,
        lane: int,
        block: int,
        next_block: int,
        data: Optional[np.ndarray] = None,
    ) -> None:
        self.lane = lane
        self.block = block
        self.next_block = next_block
        self.data = data

    def __repr__(self) -> str:
        return (
            f"LaneEntry(lane={self.lane}, block={self.block}, "
            f"next_block={self.next_block}, data={self.data!r})"
        )

    def payload_bytes(self, value_bytes: int = VALUE_BYTES) -> int:
        size = 2 * OFFSET_BYTES  # block index + next offset
        if self.data is not None:
            size += self.data.size * value_bytes
        return size


class WorkerPacket:
    """Worker -> aggregator: fused non-zero blocks plus look-ahead metadata.

    ``immediate`` carries the §5 32-bit metadata word the RDMA path
    attaches to every message (type, opcode, slot id, block count).
    """

    __slots__ = ("worker_id", "stream", "version", "lanes", "is_ack", "immediate")

    def __init__(
        self,
        worker_id: int,
        stream: int,
        version: int,
        lanes: Optional[List[LaneEntry]] = None,
        is_ack: bool = False,
        immediate: Optional[int] = None,
    ) -> None:
        self.worker_id = worker_id
        self.stream = stream
        self.version = version
        self.lanes = [] if lanes is None else lanes
        self.is_ack = is_ack
        self.immediate = immediate

    def __repr__(self) -> str:
        return (
            f"WorkerPacket(worker_id={self.worker_id}, stream={self.stream}, "
            f"version={self.version}, lanes={self.lanes!r}, "
            f"is_ack={self.is_ack}, immediate={self.immediate})"
        )

    def payload_bytes(self, value_bytes: int = VALUE_BYTES) -> int:
        return _lanes_payload_bytes(self.lanes, value_bytes)

    @property
    def has_data(self) -> bool:
        return any(lane.data is not None for lane in self.lanes)


class ResultPacket:
    """Aggregator -> workers: aggregated blocks plus next-block requests."""

    __slots__ = ("stream", "version", "lanes", "immediate")

    def __init__(
        self,
        stream: int,
        version: int,
        lanes: Optional[List[LaneEntry]] = None,
        immediate: Optional[int] = None,
    ) -> None:
        self.stream = stream
        self.version = version
        self.lanes = [] if lanes is None else lanes
        self.immediate = immediate

    def __repr__(self) -> str:
        return (
            f"ResultPacket(stream={self.stream}, version={self.version}, "
            f"lanes={self.lanes!r}, immediate={self.immediate})"
        )

    def payload_bytes(self, value_bytes: int = VALUE_BYTES) -> int:
        return _lanes_payload_bytes(self.lanes, value_bytes)
