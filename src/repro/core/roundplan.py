"""The lossless OmniReduce round schedule, derived once as a value.

Given the workers' non-zero block masks, Algorithm 1 is deterministic:
which blocks the aggregator requests in which round, which workers
answer, and every payload byte follow from the masks alone.  Only the
*arrival order* of a round's responses depends on link timing.
:func:`plan_rounds` computes the schedule as numpy arrays, the way
:func:`~repro.core.rackreduce._plan` does for the rack hierarchy:

* the **request schedule** of a stream lane is its first-row block
  followed by the sorted union of the workers' listed blocks in that
  lane (provable by induction over Algorithm 1's ``next`` pointers);
  with look-ahead ablated, every lane position in turn;
* the **responders** of a round are the workers whose bitmap lists one
  of the requested blocks (with look-ahead ablated: every worker while
  the stream still has a valid lane);
* **payload bytes** follow the wire format of :mod:`~repro.core.messages`.

:class:`~repro.core.flowreduce.FlowOmniReduce` books link time from the
plan, and ``tests/core/test_roundplan.py`` checks the packet engine's
wire counters against it.  The packet engine itself stays the
executable form of Algorithms 1-2: under loss it cannot be planned.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .features import ProtocolFeatures
from .messages import OFFSET_BYTES, PACKET_FIXED_BYTES, VALUE_BYTES
from .partition import StreamRange

__all__ = ["RoundPlan", "StreamRounds", "plan_rounds"]

#: Metadata bytes of one lane entry: block index plus next offset.
_ENTRY_BYTES = 2 * OFFSET_BYTES


class StreamRounds:
    """One stream's schedule.  Arrays are indexed ``[lane, round]``,
    ``[worker, round]`` or ``[round]``; ``listed`` is
    ``[worker, lane, round]``."""

    __slots__ = (
        "shard",
        "lo",
        "stride",
        "rounds",
        "req",  # lane position requested per round (-1: lane finished)
        "valid",  # req >= 0
        "listed",  # worker contributes the lane's block in the round
        "counts",  # listed lanes per (worker, round)
        "data_lanes",  # lanes with at least one contributor, per round
        "active",  # valid lanes per round
        "round0_payload",  # first-row packet per worker
        "mc_payload",  # result multicast per round
        "resp_payload",  # response per (worker, round); round 0 unused
        "resp_mask",  # worker answers the round's request
        "deep",  # deepest listed block per (worker, round), -1 if none
    )


class RoundPlan:
    """The whole collective's schedule: one :class:`StreamRounds` per
    planned stream, the blocks zero-block suppression kept off the wire,
    and the round count (the longest stream's)."""

    __slots__ = ("streams", "zero_suppressed", "rounds")


def plan_rounds(
    nz: np.ndarray,
    streams: Sequence[StreamRange],
    width: int,
    features: ProtocolFeatures,
    block_size: int,
) -> RoundPlan:
    """Derive the lossless schedule from ``nz[worker, block]`` (the
    transmittable-block masks), the stream plan and the fusion width."""
    num_workers = nz.shape[0]
    lookahead = features.lookahead
    data_bytes = block_size * VALUE_BYTES
    planned: List[StreamRounds] = []
    zero_suppressed = 0
    for rng in streams:
        lo, stride, nb = rng.lo, rng.stride, rng.num_blocks
        lanes = min(width, nb)
        mask = nz[:, lo + stride * np.arange(nb)]  # (workers, nb)
        zero_suppressed += num_workers * nb - int(mask.sum())
        any_b = mask.any(axis=0)
        seqs = []
        for lane in range(lanes):
            pos = np.arange(lane, nb, lanes)
            if lookahead:
                keep = any_b[pos]
                keep[0] = True  # the first row is always requested
                pos = pos[keep]
            seqs.append(pos)
        rounds = max(len(seq) for seq in seqs)
        req = np.full((lanes, rounds), -1, dtype=np.int64)
        for lane, seq in enumerate(seqs):
            req[lane, : len(seq)] = seq
        valid = req >= 0
        listed = (
            mask[:, np.where(valid, req, 0).ravel()].reshape(
                num_workers, lanes, rounds
            )
            & valid[None, :, :]
        )
        counts = listed.sum(axis=1)
        active = valid.sum(axis=0)

        st = StreamRounds()
        st.shard, st.lo, st.stride, st.rounds = rng.shard, lo, stride, rounds
        st.req, st.valid, st.listed, st.counts = req, valid, listed, counts
        st.data_lanes = listed.any(axis=0).sum(axis=0)
        st.active = active
        st.round0_payload = (
            PACKET_FIXED_BYTES + _ENTRY_BYTES * lanes + counts[:, 0] * data_bytes
        )
        st.mc_payload = (
            PACKET_FIXED_BYTES + _ENTRY_BYTES * active + st.data_lanes * data_bytes
        )
        if lookahead:
            # Responders carry one entry per *listed* lane: workers whose
            # next pointer is further along stay silent.
            st.resp_payload = PACKET_FIXED_BYTES + counts * (_ENTRY_BYTES + data_bytes)
            st.resp_mask = counts > 0
        else:
            # Every worker answers every round it still has valid lanes
            # in, echoing metadata for zero positions.
            st.resp_payload = (
                PACKET_FIXED_BYTES + _ENTRY_BYTES * active[None, :] + counts * data_bytes
            )
            st.resp_mask = np.broadcast_to(active[None, :] > 0, counts.shape)
        deep_pos = np.where(listed, req[None, :, :], -1).max(axis=1)
        st.deep = np.where(deep_pos >= 0, lo + stride * deep_pos, -1)
        planned.append(st)

    plan = RoundPlan()
    plan.streams = planned
    plan.zero_suppressed = zero_suppressed
    plan.rounds = max((st.rounds for st in planned), default=0)
    return plan
