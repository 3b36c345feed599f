"""Flow-level OmniReduce engine: whole protocol rounds, vectorized.

:class:`FlowOmniReduce` is a drop-in :class:`~repro.core.collective
.OmniReduce` sibling that computes the same protocol analytically
instead of spawning per-(worker, stream) simulator processes.  The
per-packet state machines of :mod:`~repro.core.worker` and
:mod:`~repro.core.aggregator` are deterministic given the non-zero
block masks, so the whole execution -- which worker sends which blocks
in which round, every payload byte, every serialization delay -- can be
precomputed as numpy array programs over the exact same formulas:

* the **round schedule** -- requested blocks, responders and payload
  bytes per stream and round -- is :func:`~repro.core.roundplan
  .plan_rounds`, the one derivation of the lossless schedule;
* a round completes at the delivery of its *last* responder packet;
* every NIC stage is the packet kernel's ``max(ready, free) + cost``
  recurrence, evaluated with :func:`~repro.netsim.flow.cpu_chain` /
  :func:`~repro.netsim.flow.serialize_chain` over a
  :class:`~repro.netsim.flow.HostLedger` (per-host availability arrays,
  written back at submit time: the one reserve-at-begin write-back,
  shared with :class:`~repro.core.rackreduce.FlowRackHierarchical`)
  instead of one simulator event per packet.

Equivalence contract (checked by the packet-vs-flow differential in
``repro.conformance`` and documented in ``docs/performance.md``):

* **result tensors**: bit-identical.  Contributor sets per (stream,
  lane, round) are exact; the reduction replays the aggregator's
  sequential two-operand ``_combine`` folds in the same order
  (worker-id order in deterministic mode; slot arrival order
  otherwise).
* **wire counters**: exact.  ``bytes_sent``/``packets_sent``/
  upward/downward flow bytes are closed-form functions of the masks
  and are charged through ``transport.wire_bytes``.
* **completion times**: within a small documented tolerance
  (``TIME_RTOL``).  Rounds of different streams are booked in
  completion-time order, not interleaved per packet, so cross-stream
  NIC contention can be booked slightly out of order; the error is
  bounded by single-packet serialization times and does not accumulate
  (the chains conserve total occupancy).

Configurations whose semantics require packet granularity (loss,
Algorithm 2 recovery, aggregator crashes, deadlines, readiness
schedules) raise :class:`~repro.netsim.flow.FlowUnsupported`, as do
multi-tier topologies -- this engine books NIC stages per stream, so it
cannot replay shared topology-pipe bookings in global send order.  On
tiered fabrics, run the protocol engine over a
:class:`~repro.netsim.flow.FlowTransport` (message-level events, exact
pipe order) or fall back to packet mode.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..netsim.flow import FlowUnsupported, HostLedger, require_flow_capable, serialize_chain
from ..telemetry.collect import TrafficSnapshot
from ..tensors.blocks import num_blocks as _num_blocks
from .collective import CollectiveResult, OmniReduce
from .messages import VALUE_BYTES
from .pending import PendingCollective
from .roundplan import plan_rounds

__all__ = ["FlowOmniReduce", "TIME_RTOL"]

#: Documented relative tolerance on ``time_s`` (and other time-derived
#: details) between packet and flow mode for this engine.  Wire counters
#: and tensors carry no tolerance -- they are exact.
TIME_RTOL = 0.02

#: Debug hook: when set to a list, every processed round appends
#: ``(stream_index, round_index, fold_order_tuple)``.  The differential
#: tests use it to compare flow-mode fold orders against the packet
#: kernel's actual slot arrival orders.
ORDER_TRACE: Optional[list] = None


def _wire_map(wire_bytes: Callable[[int], int]) -> Callable[[np.ndarray], np.ndarray]:
    """Memoised, vectorised ``transport.wire_bytes`` over payload arrays.

    A run's payloads take few distinct values, each bounded by one
    packet, so the memo is a table indexed by payload size (0: not yet
    asked; no packet is 0 bytes on the wire) and each distinct value
    costs one transport call per run."""
    table = np.zeros(0, dtype=np.int64)

    def wire(payload: np.ndarray) -> np.ndarray:
        nonlocal table
        top = int(payload.max())
        if top >= table.size:
            table = np.pad(table, (0, top + 1 - table.size))
        for p in np.unique(payload[table[payload] == 0]).tolist():
            table[p] = wire_bytes(p)
        return table[payload]

    return wire


class FlowOmniReduce(OmniReduce):
    """OmniReduce evaluated in flow mode (analytical round timeline).

    Same constructor, public API, and result shape as
    :class:`OmniReduce`; only ``_begin_impl`` differs.  The cluster may
    be a raw :class:`~repro.netsim.cluster.Cluster` or a
    :class:`~repro.netsim.flow.FlowCluster` view (unwrapped here -- the
    engine books NIC time itself and uses the transport only for wire
    accounting).
    """

    def _begin_impl(
        self,
        tensors: List[np.ndarray],
        worker_start_delays: Optional[Sequence[float]] = None,
        gradient_readiness: Optional[Sequence] = None,
    ) -> PendingCollective:
        cluster = getattr(self.cluster, "flow_base", self.cluster)
        spec = cluster.spec
        config = self.config
        features = config.features
        sim = cluster.sim
        transport = getattr(cluster.transport, "inner", cluster.transport)
        network = cluster.network

        # -- flow-mode capability gates -----------------------------------
        require_flow_capable(network, transport)
        if network.topology is not None:
            raise FlowUnsupported(
                "the vectorized OmniReduce engine books NIC stages per "
                "stream and cannot replay shared topology-pipe bookings "
                "in global send order; run the protocol engine over a "
                "FlowTransport (or packet mode) on tiered fabrics"
            )
        if gradient_readiness is not None:
            raise FlowUnsupported(
                "flow mode does not model per-block gradient readiness "
                "schedules; use packet mode for compute/comm overlap studies"
            )
        if self._use_recovery():
            raise FlowUnsupported(
                "flow mode cannot run Algorithm 2 (per-packet retransmission "
                "timers); set recovery=False or use packet mode"
            )
        faults = getattr(cluster, "faults", None)
        if faults is not None and getattr(faults, "aggregator_crashes", ()):
            raise FlowUnsupported(
                "aggregator crash/restart orchestration interrupts protocol "
                "processes mid-round; use packet mode"
            )
        if config.deadline_s is not None:
            raise FlowUnsupported(
                "deadline preemption cuts streams mid-round; use packet mode"
            )

        # -- setup (shared with the packet engine) ------------------------
        block_size = config.block_size
        num_workers = spec.workers
        total = int(np.asarray(tensors[0]).size)
        prefix, start, bitmap_delay, start_delays, prefetches, width, ranges = (
            self._plan_run(cluster, total, worker_start_delays)
        )

        # One flat (workers x elements) contribution buffer, zero-padded
        # to a whole number of blocks; the result outputs are row views
        # into it.  The flat layout lets the fold gather any (worker,
        # block) set in a single fancy index, and the zero padding makes
        # tail-block gathers match the packet engine's explicit
        # tail-zeroing for free.
        total_blocks = _num_blocks(total, block_size)
        padded = total_blocks * block_size
        flat = np.zeros((num_workers, padded), dtype=np.float32)
        for worker_id, tensor in enumerate(tensors):
            flat[worker_id, :total] = tensor.reshape(-1)
        outputs = [flat[worker_id, :total] for worker_id in range(num_workers)]
        tensor_bytes = total * VALUE_BYTES

        gdr = spec.gdr
        pcie_bps = spec.pcie_gbps * 1e9
        snapshot = TrafficSnapshot(cluster)

        # Non-zero masks drive everything: worker w transmits block b iff
        # its mask lists b (always, in dense/SwitchML* mode).  Computed
        # from the pristine contribution tensors, exactly like
        # BlockView's construction-time bitmap.
        if features.zero_block_suppression:
            nz = flat.reshape(num_workers, total_blocks, block_size).any(axis=2)
        else:
            nz = np.ones((num_workers, total_blocks), dtype=bool)
        plan = plan_rounds(nz, ranges, width, features, block_size)
        wire = _wire_map(transport.wire_bytes)

        # -- per-host NIC pipeline state ----------------------------------
        worker_hosts = list(cluster.worker_hosts)
        agg_hosts = list(cluster.aggregator_hosts)
        if len(set(worker_hosts)) != num_workers:
            # The ledger then holds one row per worker first, so worker
            # state is the leading slice of every host array; the
            # bookings below bank on that to use views instead of
            # scattered fancy indexing.
            raise FlowUnsupported(
                "flow mode requires one distinct host per worker"
            )
        ledger = HostLedger(network, worker_hosts + agg_hosts)
        tx_free, eg_free, in_free, rx_free = (
            ledger.tx_free, ledger.eg_free, ledger.in_free, ledger.rx_free
        )
        tx_cost, rx_cost, bw = ledger.tx_cost, ledger.rx_cost, ledger.bw
        sent_bytes, sent_pkts = ledger.sent_bytes, ledger.sent_pkts
        latency = network.latency_s
        up_bytes = 0
        down_bytes = 0

        # Downward host->GPU copy engines (CopyEngine.reserve, vectorized).
        down_free = np.zeros(num_workers)
        data_bytes = block_size * VALUE_BYTES

        # Vectorized PrefetchSchedule.available_at over worker subsets:
        # same chunk arithmetic as prefetch.py, as arrays.
        if not gdr:
            pf_start = np.array([p.start_s for p in prefetches])
            pf_finish = np.array([p.finish_s for p in prefetches])
            pf_chunk = prefetches[0].chunk_bytes
            pf_chunk_t = pf_chunk * 8.0 / pcie_bps
            pf_last = max(_num_blocks(tensor_bytes, pf_chunk) - 1, 0)

        def avail_for(workers_sel: np.ndarray, max_blocks: np.ndarray) -> np.ndarray:
            """available_at of each worker's deepest listed block end."""
            end = np.minimum((max_blocks + 1) * data_bytes, tensor_bytes)
            chunk = (end - 1) // pf_chunk
            return np.where(
                chunk >= pf_last,
                pf_finish[workers_sel],
                pf_start[workers_sel] + (chunk + 1) * pf_chunk_t,
            )

        streams = plan.streams
        num_streams = len(streams)
        shard_hosts = np.array(
            [ledger.index[agg_hosts[st.shard]] for st in streams], dtype=np.int64
        )
        mc_wire = [wire(st.mc_payload) for st in streams]
        resp_wire = [wire(st.resp_payload) for st in streams]
        # Arrival order of each stream's pending round: the only
        # per-stream state the booking mutates.
        order: List[Optional[np.ndarray]] = [None] * num_streams

        # The reduced tensor: zeros except aggregated blocks.  Blocks no
        # worker lists are all-zero at every worker, and metadata-only
        # first-row results are never written, so all outputs converge to
        # this single array (written back in finalize).
        result = np.zeros(total, dtype=np.float32)
        deterministic = config.deterministic
        reduction = config.reduction

        wait_from = np.zeros((num_streams, num_workers))
        stall = np.zeros((num_streams, num_workers))
        finish_time = start

        by_block = flat.reshape(num_workers, total_blocks, block_size)

        def fold_deterministic_exact() -> None:
            """Slot-exact fold in worker-id order, all blocks at once."""
            acc_g = np.zeros((total_blocks, block_size), dtype=np.float32)
            seen_g = np.zeros(total_blocks, dtype=bool)
            for worker_id in range(num_workers):
                rows = np.nonzero(nz[worker_id])[0]
                if not rows.size:
                    continue
                vals = by_block[worker_id, rows]
                fresh = ~seen_g[rows]
                if fresh.any():
                    acc_g[rows[fresh]] = vals[fresh]
                if not fresh.all():
                    old = rows[~fresh]
                    prev = vals[~fresh]
                    if reduction == "sum":
                        acc_g[old] += prev
                    elif reduction == "max":
                        acc_g[old] = np.maximum(acc_g[old], prev)
                    else:
                        acc_g[old] = np.minimum(acc_g[old], prev)
                seen_g[rows] = True
            res_pad = np.zeros(padded, dtype=np.float32)
            res_pad.reshape(total_blocks, block_size)[seen_g] = acc_g[seen_g]
            result[:] = res_pad[:total]

        if deterministic:
            # In deterministic mode the slot re-folds every round in
            # worker-id order, so arrival timing cannot change any value;
            # and each block is aggregated in exactly one round of one
            # stream.  The whole reduction therefore collapses to a
            # single pass over workers -- the round loop below only
            # needs lane counts.
            #
            # Fast path for sum: a non-contributor's block is all +0.0
            # (blocks holding only -0.0 would still be listed, and the
            # int32 view scan below rules -0.0 out entirely: it is the
            # sole float32 mapping to INT32_MIN), and adding +0.0 is a
            # bitwise no-op, so folding every worker's full row matches
            # the contributors-only fold bit for bit.
            int_min = np.int32(np.iinfo(np.int32).min)
            if reduction == "sum" and flat.view(np.int32).min() != int_min:
                acc_full = np.zeros(padded, dtype=np.float32)
                for worker_id in range(num_workers):
                    acc_full += flat[worker_id]
                if np.isnan(acc_full).any():
                    # NaN payload propagation depends on fold operand
                    # order; replay the exact contributors-only fold.
                    fold_deterministic_exact()
                else:
                    seen_blocks = nz.any(axis=0)
                    acc_full.reshape(total_blocks, block_size)[
                        ~seen_blocks
                    ] = 0.0
                    result[:] = acc_full[:total]
            else:
                fold_deterministic_exact()

        identity_rank = np.arange(num_workers)

        def fold_round(arrival, contrib, blocks) -> None:
            """Replay the slot's sequential ``_combine`` folds for one
            round, bitwise-identically: each lane folds its contributors
            in ``arrival`` order with sequential two-operand combines.
            Vectorized as *passes*: pass ``k`` applies every lane's
            ``k``-th contributor at once (lanes are independent, so
            per-lane sequencing is preserved exactly)."""
            w_idx, l_idx = np.nonzero(contrib)
            if not len(w_idx):
                return
            # (rows, block_size) element indices into the padded buffer.
            idx = blocks[:, None] * block_size + np.arange(block_size)[None, :]
            rows_total = len(blocks)
            rank = np.empty(num_workers, dtype=np.int64)
            rank[np.asarray(arrival)] = identity_rank[: len(arrival)]
            perm = np.lexsort((rank[w_idx], l_idx))
            w_sorted = w_idx[perm]
            l_sorted = l_idx[perm]
            counts = np.bincount(l_idx, minlength=rows_total)
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            pos = np.arange(len(l_sorted)) - starts[l_sorted]
            acc = np.empty((rows_total, block_size), dtype=np.float32)
            for k in range(int(counts.max())):
                sel = pos == k
                rows = l_sorted[sel]
                gidx = w_sorted[sel][:, None] * np.int64(padded) + idx[rows]
                vals = flat.reshape(-1)[gidx]
                if k == 0:
                    acc[rows] = vals
                elif reduction == "sum":
                    acc[rows] += vals
                elif reduction == "max":
                    acc[rows] = np.maximum(acc[rows], vals)
                else:
                    acc[rows] = np.minimum(acc[rows], vals)
            seen = counts > 0
            # Lanes need not request blocks in ascending order, so the
            # tail block (padding past ``total``) may sit in any row.
            if (int(blocks.max()) + 1) * block_size > total:
                keep = idx[seen] < total
                result[idx[seen][keep]] = acc[seen][keep]
            else:
                result[idx[seen]] = acc[seen]

        # -- round 0: every (stream, worker) sends its first-row packet ---
        # Send time: start delay, bitmap charge, then the prefetch gate of
        # the deepest listed first-row block.  Bookings replay the packet
        # kernel's global event order: (send time, stream, worker).
        base_t = start + bitmap_delay + np.asarray(start_delays)
        t0 = np.empty((num_streams, num_workers))
        wire0 = np.empty((num_streams, num_workers), dtype=np.int64)
        for s, st in enumerate(streams):
            wire0[s] = wire(st.round0_payload)
            t_s = base_t.copy()
            if not gdr:
                sel = np.nonzero(st.counts[:, 0] > 0)[0]
                if len(sel):
                    t_s[sel] = np.maximum(t_s[sel], avail_for(sel, st.deep[sel, 0]))
            t0[s] = t_s
            wait_from[s] = t_s

        # Global transmit order: (send time, stream, worker) -- the packet
        # kernel's same-time tie-break is process spawn order.
        s_ids = np.repeat(np.arange(num_streams), num_workers)
        w_ids = np.tile(np.arange(num_workers), num_streams)
        gorder = np.lexsort((w_ids, s_ids, t0.ravel()))
        gseq = np.empty(num_streams * num_workers, dtype=np.int64)
        gseq[gorder] = np.arange(num_streams * num_workers)

        # Worker NIC-pipeline state as views over the leading host rows
        # (guaranteed above): slice arithmetic instead of fancy scatter.
        tx_free_w = tx_free[:num_workers]
        eg_free_w = eg_free[:num_workers]
        in_free_w = in_free[:num_workers]
        rx_free_w = rx_free[:num_workers]
        tx_cost_w = tx_cost[:num_workers]
        rx_cost_w = rx_cost[:num_workers]
        inv_bw_w = 8.0 / bw[:num_workers]
        sent_bytes_w = sent_bytes[:num_workers]
        sent_pkts_w = sent_pkts[:num_workers]
        recv_bytes_w = ledger.recv_bytes[:num_workers]
        recv_pkts_w = ledger.recv_pkts[:num_workers]

        # Each worker books its round-0 sends through its tx CPU and
        # egress NIC in (send time, stream) order: cpu_chain followed by
        # serialize_chain, batched across all workers at once (the 2D
        # accumulate operates row-wise, so each row is exactly the
        # scalar chain helpers' recurrence).
        ordw = np.argsort(t0.T, axis=1, kind="stable")  # (workers, streams)
        ready = np.take_along_axis(t0.T, ordw, axis=1)
        steps = np.arange(num_streams, dtype=np.float64)
        txc = tx_cost_w[:, None]
        base = np.maximum.accumulate(
            np.maximum(ready, tx_free_w[:, None]) - steps * txc, axis=1
        )
        tx_ready = base + (steps + 1.0) * txc
        dur = np.take_along_axis(wire0.T, ordw, axis=1) * inv_bw_w[:, None]
        cum = np.cumsum(dur, axis=1)
        base = np.maximum.accumulate(
            np.maximum(tx_ready, eg_free_w[:, None]) - (cum - dur), axis=1
        )
        done = base + cum
        tx_free_w[:] = tx_ready[:, -1]
        eg_free_w[:] = done[:, -1]
        arrivals0 = np.empty((num_workers, num_streams))
        np.put_along_axis(arrivals0, ordw, done + latency, axis=1)
        arrivals0 = arrivals0.T
        sent_w0 = wire0.sum(axis=0)
        sent_bytes_w += sent_w0
        sent_pkts_w += num_streams
        up_bytes += int(wire0.sum())

        heap: list = []
        tie = itertools.count()
        flat_arr = arrivals0.ravel()
        flat_wire = wire0.ravel()
        shard_of = shard_hosts[s_ids]
        for h in np.unique(shard_hosts).tolist():
            members = np.nonzero(shard_of == h)[0]
            members = members[np.argsort(gseq[members])]  # send sequence
            deliver, proc = ledger.recv_chain(h, flat_arr[members], flat_wire[members])
            proc_members = members[proc]
            # Per stream: arrival order and completion time (chains are
            # nondecreasing, so the last occurrence is the max).
            by_stream = np.argsort(s_ids[proc_members], kind="stable")
            seq_streams = s_ids[proc_members][by_stream]
            seq_workers = w_ids[proc_members][by_stream]
            seq_deliver = deliver[proc][by_stream]
            bounds = np.searchsorted(
                seq_streams, np.arange(num_streams + 1), side="left"
            )
            for s in np.unique(seq_streams):
                a, b = bounds[s], bounds[s + 1]
                order[s] = seq_workers[a:b]
                heapq.heappush(
                    heap, (float(seq_deliver[b - 1]), next(tie), int(s), 0)
                )

        # -- round loop: pop stream rounds in completion-time order -------
        # The schedule is the plan's; each iteration is link-time booking.
        mc_steps = np.arange(1, num_workers + 1)
        inv_pcie = 8.0 / pcie_bps
        while heap:
            now_t, _, s, j = heapq.heappop(heap)
            st = streams[s]
            if ORDER_TRACE is not None:
                ORDER_TRACE.append((s, j, tuple(int(w) for w in order[s])))
            if not deterministic:
                valid_j = st.valid[:, j]
                blocks = st.lo + st.stride * st.req[valid_j, j]
                fold_round(order[s], st.listed[:, valid_j, j], blocks)

            # Multicast j: booked on the shard host at the completion
            # time, one send per worker in worker order.
            h = shard_hosts[s]
            size = int(mc_wire[s][j])
            tx_ready = max(now_t, tx_free[h]) + mc_steps * tx_cost[h]
            dur = np.full(num_workers, size * 8.0 / bw[h])
            done = serialize_chain(tx_ready, dur, eg_free[h])
            tx_free[h] = tx_ready[-1]
            eg_free[h] = done[-1]
            arr = done + latency
            sent_bytes[h] += num_workers * size
            sent_pkts[h] += num_workers
            down_bytes += num_workers * size

            # Worker-side delivery (distinct hosts: vectorized).
            rx_done = np.maximum(arr, in_free_w) + size * inv_bw_w
            in_free_w[:] = rx_done
            deliver = np.maximum(rx_done, rx_free_w) + rx_cost_w
            rx_free_w[:] = deliver
            recv_bytes_w += size
            recv_pkts_w += 1
            stall[s] += deliver - wait_from[s]
            wait_from[s] = deliver
            data_lanes = int(st.data_lanes[j])
            if data_lanes and not gdr:
                nbytes = data_lanes * data_bytes
                down_free[:] = np.maximum(deliver, down_free) + nbytes * inv_pcie

            if j + 1 >= st.rounds:
                finish_time = max(finish_time, float(deliver.max()))
                continue

            # Responses for round j+1: workers listing a requested block
            # (with look-ahead ablated: every worker with a valid lane).
            resp = np.nonzero(st.resp_mask[:, j + 1])[0]
            if len(resp) == num_workers:
                # Every worker responds (the common chatty case): book
                # on the worker-state views with no fancy indexing.
                send_at = deliver
                if not gdr:
                    send_at = np.maximum(
                        send_at, avail_for(resp, st.deep[:, j + 1])
                    )
                wait_from[s] = send_at
                sizes = resp_wire[s][:, j + 1]
                tx_ready = np.maximum(send_at, tx_free_w) + tx_cost_w
                tx_free_w[:] = tx_ready
                done = np.maximum(tx_ready, eg_free_w) + sizes * inv_bw_w
                eg_free_w[:] = done
                sent_bytes_w += sizes
                sent_pkts_w += 1
            else:
                send_at = deliver[resp]
                if not gdr:
                    send_at = np.maximum(
                        send_at, avail_for(resp, st.deep[resp, j + 1])
                    )
                wait_from[s, resp] = send_at
                sizes = resp_wire[s][resp, j + 1]
                tx_ready = np.maximum(send_at, tx_free_w[resp]) + tx_cost_w[resp]
                tx_free_w[resp] = tx_ready
                done = (
                    np.maximum(tx_ready, eg_free_w[resp])
                    + sizes * inv_bw_w[resp]
                )
                eg_free_w[resp] = done
                sent_bytes_w[resp] += sizes  # responder hosts are distinct
                sent_pkts_w[resp] += 1
            up_bytes += int(sizes.sum())
            deliver_n, proc = ledger.recv_chain(h, done + latency, sizes)
            order[s] = resp[proc]
            heapq.heappush(heap, (float(deliver_n[proc[-1]]), next(tie), s, j + 1))

        # NIC stages, stats, and copy engines reflect the whole run as of
        # submit time; the traffic snapshot above keeps per-run deltas
        # exact.
        ledger.commit({f"{prefix}.up": up_bytes, f"{prefix}.down": down_bytes})

        worker_wait_max = float(stall.max()) if stall.size else 0.0
        end_time = finish_time

        def waits():
            yield sim.timeout(max(0.0, end_time - sim.now))

        def finalize() -> CollectiveResult:
            for out in outputs:
                out[:] = result
            finish = sim.now
            if not gdr and num_workers:
                finish = max(finish, float(down_free.max()))
            details: Dict[str, float] = {}
            if features.zero_block_suppression:
                details["zero_blocks_suppressed"] = float(plan.zero_suppressed)
            details["worker_recv_wait_max_s"] = worker_wait_max
            return CollectiveResult(
                outputs=outputs,
                time_s=finish - start,
                bytes_sent=snapshot.bytes_sent(),
                packets_sent=snapshot.packets_sent(),
                upward_bytes=snapshot.flow_bytes(f"{prefix}.up"),
                downward_bytes=snapshot.flow_bytes(f"{prefix}.down"),
                rounds=plan.rounds,
                retransmissions=0,
                duplicates=0,
                timeouts_fired=0,
                recovery_events=0,
                complete=True,
                fault_events=[],
                staleness=None,
                details=self._run_details(
                    details, bitmap_delay, width, num_streams, recovery=False
                ),
            )

        return PendingCollective(sim, waits, finalize, name=prefix)
