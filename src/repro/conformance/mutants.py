"""Deliberately broken collectives (test-only mutants).

A conformance harness that has never caught a bug proves nothing.  The
mutants wrap a real registry collective and break exactly one promise
each, so tests (and the ``conformance`` bench experiment) can assert
the harness detects them and shrinks the failure to a seed-replay:

* ``broken-result`` -- corrupts one element of one worker's output:
  caught by the dense oracle *and* the worker-agreement check.
* ``zero-block-spam`` -- silently disables zero-block skipping while
  still claiming to be OmniReduce: results stay numerically perfect
  (adding zero is free), so only the :class:`NoZeroBlockMonitor`
  catches it.  This is the invariant the paper's bandwidth savings
  rest on.

Two mutants break *flow mode only* -- packet mode stays exact, so
single-mode conformance cannot see them; only the packet-vs-flow
differential (:mod:`repro.conformance.differential`) catches each:

* ``flow-serialization-skew`` -- the flow transport serializes every
  wire segment as if it carried one extra block (the classic
  off-by-one-block in the analytical serialization delay).  Wire
  *counters* stay exact; completion *times* drift, which the
  differential's time-tolerance check flags.
* ``flow-zero-bill`` -- flow mode correctly suppresses zero blocks in
  the data plane but still bills them on the wire, inflating
  ``bytes_sent``/``packets_sent``.  Tensors and times stay perfect;
  the differential's *exact* counter equality catches it.

Mutants are never registered in :data:`repro.baselines.registry.ALGORITHMS`;
they are reachable only through :class:`~repro.conformance.runner.ConformanceCase`'s
``mutant`` field.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Type

import numpy as np

from ..baselines.api import Collective, OmniReduceOptions, Options, Session
from ..core.collective import CollectiveResult
from ..netsim.cluster import Cluster
from ..netsim.flow import FlowTransport, flow_view
from ..netsim.packet import Packet

__all__ = [
    "BrokenResultCollective",
    "ZeroBlockSpamCollective",
    "FlowSerializationSkewCollective",
    "FlowZeroBillCollective",
    "MUTANTS",
]


def _is_flow(options: Optional[Options]) -> bool:
    return getattr(options, "sim_mode", "packet") == "flow"


class _WrappedSession(Session):
    """Delegates to the real session, passing every AllReduce result
    through :meth:`_alter`; the blocking calls inherit
    ``submit(...).wait()``."""

    def __init__(self, inner: Session) -> None:
        super().__init__(inner.cluster, inner.options)
        self._inner = inner

    def _alter(self, result: CollectiveResult) -> CollectiveResult:
        raise NotImplementedError

    def submit(self, tensors: Sequence[np.ndarray], **kwargs):
        return self._inner.submit(tensors, **kwargs).map(self._alter)

    def submit_allgather(self, tensors: Sequence[np.ndarray]):
        return self._inner.submit_allgather(tensors)

    def submit_broadcast(self, tensor: np.ndarray, root: int = 0):
        return self._inner.submit_broadcast(tensor, root=root)


class _CorruptingSession(_WrappedSession):
    """Delegates to the real session, then corrupts the result."""

    @staticmethod
    def _alter(result: CollectiveResult) -> CollectiveResult:
        if result.outputs and result.outputs[0].size:
            # Flip one element on one worker: breaks the oracle check on
            # worker 0 and the agreement check between workers.
            result.outputs[0] = result.outputs[0].copy()
            result.outputs[0][0] += 1.0
        return result


class BrokenResultCollective(Collective):
    """Wraps any collective; its sessions corrupt one output element."""

    def __init__(self, inner: Collective) -> None:
        self.inner = inner
        self.name = f"{inner.name}+broken-result"
        self.options_cls: Type[Options] = inner.options_cls
        self.summary = "test-only mutant: corrupts one output element"

    def prepare(self, cluster: Cluster, options: Optional[Options] = None) -> Session:
        return _CorruptingSession(self.inner.prepare(cluster, options))


class ZeroBlockSpamCollective(Collective):
    """OmniReduce with zero-block skipping secretly disabled.

    Numerically indistinguishable from the real thing -- only the
    no-zero-block invariant monitor can tell the difference.
    """

    def __init__(self, inner: Collective) -> None:
        if not inner.name.startswith("omnireduce"):
            raise ValueError(
                "zero-block-spam only makes sense wrapping omnireduce, "
                f"got {inner.name!r}"
            )
        self.inner = inner
        self.name = f"{inner.name}+zero-block-spam"
        self.options_cls = inner.options_cls
        self.summary = "test-only mutant: transmits zero blocks"

    def prepare(self, cluster: Cluster, options: Optional[Options] = None) -> Session:
        from ..core.config import OmniReduceConfig

        if options is None:
            options = OmniReduceOptions()
        if isinstance(options, OmniReduceOptions):
            config = options.config or OmniReduceConfig()
            options = OmniReduceOptions(
                config=config.with_(
                    features=config.features.with_(zero_block_suppression=False)
                )
            )
        return self.inner.prepare(cluster, options)


class _SkewedFlowTransport(FlowTransport):
    """FlowTransport with the serialization delay off by one block.

    Reproduces :meth:`FlowTransport._send_wire` with one injected bug:
    every segment's *serialization time* is computed as if the segment
    carried ``SKEW_BYTES`` extra bytes.  Billing (``bytes_sent``,
    ``packets_sent``, flow bytes) stays correct -- only the timeline is
    wrong, which is exactly the failure mode the differential's
    completion-time check exists to catch.
    """

    SKEW_BYTES = 256  # one default-sized block of float32s

    def _send_wire(self, src, dst, dst_port, payload, wire_sizes, flow):
        network = self.network
        sim = network.sim
        src_host = network.hosts[src]
        dst_host = network.hosts[dst]
        stats = network.stats
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
            serialization = (size + self.SKEW_BYTES) * 8.0 / bw  # the bug
            src_host.egress_free_at = tx_start + serialization
            stats.bytes_sent[src] += size
            stats.packets_sent[src] += 1
            if flow:
                stats.flow_bytes[flow] += size
            wire_arrival = tx_start + serialization + latency
            packet = (
                Packet(src, dst, payload, size, dst_port, flow)
                if i == last
                else None
            )
            sim.call_at(wire_arrival, self._arrive, dst_host, size, packet)


class FlowSerializationSkewCollective(Collective):
    """Wraps any FlowTransport-based collective; flow-mode runs get the
    off-by-one-block serialization delay.  Packet mode is untouched."""

    def __init__(self, inner: Collective) -> None:
        self.inner = inner
        self.name = f"{inner.name}+flow-serialization-skew"
        self.options_cls: Type[Options] = inner.options_cls
        self.summary = (
            "test-only mutant: flow serialization delay off by one block"
        )

    def prepare(self, cluster: Cluster, options: Optional[Options] = None) -> Session:
        if _is_flow(options):
            view = flow_view(cluster)
            view.transport = _SkewedFlowTransport(view.transport.inner)
            cluster = view  # flow_view() downstream is idempotent
        return self.inner.prepare(cluster, options)


class _ZeroBillSession(_WrappedSession):
    """Delegates to the real session, then bills the suppressed blocks."""

    #: Wire bytes charged per phantom zero block (any nonzero amount
    #: breaks the differential's exact counter equality).
    BILL_BYTES = 256

    def _alter(self, result: CollectiveResult) -> CollectiveResult:
        suppressed = int(result.details.get("zero_blocks_suppressed", 0))
        result.bytes_sent += suppressed * self.BILL_BYTES
        result.packets_sent += suppressed
        result.upward_bytes += suppressed * self.BILL_BYTES
        return result


class FlowZeroBillCollective(Collective):
    """OmniReduce whose flow mode bills suppressed zero blocks on the wire.

    The data plane still skips them (tensors and times stay perfect);
    only the packet-vs-flow counter diff can tell.
    """

    def __init__(self, inner: Collective) -> None:
        if not inner.name.startswith("omnireduce"):
            raise ValueError(
                "flow-zero-bill only makes sense wrapping omnireduce "
                f"(it bills the suppressed-block count), got {inner.name!r}"
            )
        self.inner = inner
        self.name = f"{inner.name}+flow-zero-bill"
        self.options_cls = inner.options_cls
        self.summary = "test-only mutant: bills suppressed zero blocks"

    def prepare(self, cluster: Cluster, options: Optional[Options] = None) -> Session:
        session = self.inner.prepare(cluster, options)
        if _is_flow(options):
            return _ZeroBillSession(session)
        return session


class TopologySkewCollective(Collective):
    """Flow mode misprices every rack uplink at half its capacity.

    Packet mode books the true topology, so results and counters stay
    perfect on both sides -- but the flow timeline stretches wherever
    cross-rack traffic queues on an uplink.  Only the differential's
    completion-time check over a *tiered* case can see it; the mutant
    refuses flat cases, where it would be a silent no-op.
    """

    #: Capacity factor applied to each uplink pipe in flow mode.
    SKEW = 0.5

    def __init__(self, inner: Collective) -> None:
        self.inner = inner
        self.name = f"{inner.name}+topology-skew"
        self.options_cls: Type[Options] = inner.options_cls
        self.summary = "test-only mutant: flow mode halves uplink capacity"

    def prepare(self, cluster: Cluster, options: Optional[Options] = None) -> Session:
        if _is_flow(options):
            base = getattr(cluster, "flow_base", cluster)
            topology = base.network.topology
            if topology is None:
                raise ValueError(
                    "topology-skew misprices rack uplinks; run it on a "
                    "case with a tiered topology"
                )
            for pipe in topology._uplinks.values():
                pipe.rate_bps *= self.SKEW
        return self.inner.prepare(cluster, options)


#: mutant name -> wrapper class applied to the case's base collective.
MUTANTS: Dict[str, Type[Collective]] = {
    "broken-result": BrokenResultCollective,
    "zero-block-spam": ZeroBlockSpamCollective,
    "flow-serialization-skew": FlowSerializationSkewCollective,
    "flow-zero-bill": FlowZeroBillCollective,
    "topology-skew": TopologySkewCollective,
}
