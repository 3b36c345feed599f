"""Deliberately broken collectives (test-only mutants).

A conformance harness that has never caught a bug proves nothing.  Each
mutant wraps a real registry collective and breaks exactly one promise
with a small delta on the production path -- an options change, a
cluster or flow-view change, or a result change -- never a copy of it.
Each entry of :data:`MUTANTS` names the case it targets and the one
check that must kill it there; ``docs/conformance.md`` ("Mutants")
states every mutant as WHEN/THEN scenarios, and the kill matrix in
``tests/conformance/test_mutants.py`` proves each of them.

Each bug's size is one module constant below; its neutral value (in the
entry's ``neutral``) switches the bug off.  A mutant raises
:class:`MutantRefused` on a case its hook cannot reach rather than
passing silently.

Mutants are never registered in :data:`repro.baselines.registry.ALGORITHMS`;
they are reachable only through :class:`~repro.conformance.runner.ConformanceCase`'s
``mutant`` field.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from ..baselines.api import Collective, OmniReduceOptions, Options, Session
from ..core.collective import CollectiveResult
from ..core.config import OmniReduceConfig
from ..core.features import ProtocolFeatures
from ..netsim.cluster import Cluster
from ..netsim.flow import flow_view
from .runner import ConformanceCase

__all__ = ["Mutant", "MutantRefused", "MUTANTS"]

#: Added to worker 0's first output element (neutral: 0.0).
CORRUPTION = 1.0
#: The same, but only in runs with ``fusion`` off (neutral: 0.0).
FUSION_OFF_CORRUPTION = 1.0
#: Whether OmniReduce's zero-block suppression is secretly off
#: (neutral: False).
SPAM_ZERO_BLOCKS = True
#: Extra bytes the flow transport serializes per wire segment -- one
#: default-sized block of float32s (neutral: 0).
SKEW_BYTES = 256
#: Wire bytes flow mode bills per suppressed zero block (neutral: 0).
BILL_BYTES = 256
#: Capacity factor flow mode applies to every rack uplink (neutral: 1.0).
UPLINK_SKEW = 0.5


class MutantRefused(ValueError):
    """The mutant's bug cannot take effect on this case."""


ResultHook = Callable[[Session, Sequence[np.ndarray], CollectiveResult], CollectiveResult]


@dataclass(frozen=True)
class Mutant:
    """One test-only bug, as up to three hooks on a real collective.

    ``MUTANTS[name](inner)`` wraps ``inner``.  ``options`` maps the
    run's options, ``cluster`` the cluster it runs on, and ``result``
    sees ``(session, tensors, result)`` after each AllReduce.  A
    ``flow_only`` mutant applies its hooks to flow-mode runs alone.

    ``target`` is the case the mutant must die on, by ``kill``:
    ``"oracle"``, a monitor name, ``"differential:time"`` or
    ``"differential:counters"``.  ``size`` names the module constant
    sizing the bug and ``neutral`` the value that switches it off.
    """

    target: ConformanceCase
    kill: str
    size: str
    neutral: object
    summary: str
    flow_only: bool = False
    options: Optional[Callable[[Options], Options]] = None
    cluster: Optional[Callable[[Cluster], Cluster]] = None
    result: Optional[ResultHook] = None

    def __call__(self, inner: Collective) -> Collective:
        return _Mutated(inner, self)


class _Mutated(Collective):
    """``inner`` with a mutant's hooks applied to every session."""

    def __init__(self, inner: Collective, mutant: Mutant) -> None:
        self.inner = inner
        self.mutant = mutant
        self.name = f"{inner.name}+{mutant.target.mutant}"
        self.options_cls = inner.options_cls
        self.summary = f"test-only mutant: {mutant.summary}"

    def prepare(self, cluster: Cluster, options: Optional[Options] = None) -> Session:
        mutant = self.mutant
        if options is None:
            options = self.inner.default_options()
        if mutant.flow_only and options.sim_mode != "flow":
            return self.inner.prepare(cluster, options)
        if mutant.options is not None:
            options = mutant.options(options)
        if mutant.cluster is not None:
            cluster = mutant.cluster(cluster)
        session = self.inner.prepare(cluster, options)
        if mutant.result is not None:
            # Every blocking and non-blocking AllReduce goes through submit.
            submit, hook = session.submit, mutant.result
            session.submit = lambda tensors, **kwargs: submit(tensors, **kwargs).map(
                lambda result: hook(session, tensors, result)
            )
        return session


def _corrupt(result: CollectiveResult, amount: float) -> CollectiveResult:
    # One element on one worker: breaks the oracle check on worker 0
    # and the agreement check between workers.
    result.outputs[0] = result.outputs[0].copy()
    result.outputs[0][0] += amount
    return result


def _broken_result(session, tensors, result):
    return _corrupt(result, CORRUPTION)


def _fusion_off_corrupts(session, tensors, result):
    if session.features is None:
        raise MutantRefused(
            "fusion-off-corrupts needs a run with a protocol feature set"
        )
    if session.features.enabled("fusion"):
        return result
    return _corrupt(result, FUSION_OFF_CORRUPTION)


def _spam_options(options: Options) -> Options:
    if not isinstance(options, OmniReduceOptions):
        raise MutantRefused(
            "zero-block-spam switches off OmniReduce's zero-block "
            f"suppression; got {type(options).__name__}"
        )
    features = options.features or (options.config or OmniReduceConfig()).features
    suppress = features.zero_block_suppression and not SPAM_ZERO_BLOCKS
    return replace(options, features=features.with_(zero_block_suppression=suppress))


def _spam_needs_zero_block(session, tensors, result):
    size = session.engine.config.block_size
    if all(
        np.logical_or.reduceat(np.ravel(t) != 0, np.arange(0, np.size(t), size)).all()
        for t in tensors
    ):
        raise MutantRefused("zero-block-spam: no worker holds a zero block")
    return result


class _SkewedSends:
    """The run's network as the flow transport sees it: each send is
    booked by :meth:`~repro.netsim.network.Network.book_send`, then
    holds the egress link ``SKEW_BYTES`` longer and arrives that much
    later.  Billing stays exact; only the timeline drifts."""

    def __init__(self, network) -> None:
        self.network = network
        self.sends = 0

    def __getattr__(self, name: str):
        return getattr(self.network, name)

    def book_send(self, src, dst: str, size: int, flow: str) -> float:
        self.sends += 1
        arrival = self.network.book_send(src, dst, size, flow)
        skew = SKEW_BYTES * 8.0 / src.bandwidth_bps
        src.egress_free_at += skew
        return arrival + skew


def _skew_transport(cluster: Cluster):
    view = flow_view(cluster)  # the engines' own flow_view() returns it
    view.transport.network = _SkewedSends(view.transport.network)
    return view


def _skew_needs_sends(session, tensors, result):
    if not session.cluster.transport.network.sends:
        raise MutantRefused(
            "flow-serialization-skew: this flow engine books analytically "
            "and never sends through the flow transport"
        )
    return result


def _bill_zero_blocks(session, tensors, result):
    suppressed = int(result.details.get("zero_blocks_suppressed", 0))
    if not suppressed:
        raise MutantRefused("flow-zero-bill: the run suppressed no zero block")
    result.bytes_sent += suppressed * BILL_BYTES
    result.packets_sent += suppressed if BILL_BYTES else 0
    result.upward_bytes += suppressed * BILL_BYTES
    return result


def _skew_uplinks(cluster: Cluster) -> Cluster:
    topology = cluster.network.topology
    if topology is None:
        raise MutantRefused(
            "topology-skew misprices rack uplinks; run it on a case with "
            "a tiered topology"
        )
    for pipe in topology._uplinks.values():
        pipe.rate_bps *= UPLINK_SKEW
    return cluster


_MUTANTS = (
    Mutant(
        ConformanceCase(mutant="broken-result"),
        kill="oracle",
        size="CORRUPTION",
        neutral=0.0,
        summary="corrupts one output element",
        result=_broken_result,
    ),
    Mutant(
        ConformanceCase(
            mutant="fusion-off-corrupts",
            features=ProtocolFeatures().disable("fusion"),
        ),
        kill="oracle",
        size="FUSION_OFF_CORRUPTION",
        neutral=0.0,
        summary="corrupts one output element when fusion is off",
        result=_fusion_off_corrupts,
    ),
    Mutant(
        ConformanceCase(mutant="zero-block-spam"),
        kill="no-zero-block",
        size="SPAM_ZERO_BLOCKS",
        neutral=False,
        summary="transmits zero blocks",
        options=_spam_options,
        result=_spam_needs_zero_block,
    ),
    Mutant(
        ConformanceCase(algorithm="ring", mutant="flow-serialization-skew"),
        kill="differential:time",
        size="SKEW_BYTES",
        neutral=0,
        summary="flow serialization delay off by one block",
        flow_only=True,
        cluster=_skew_transport,
        result=_skew_needs_sends,
    ),
    Mutant(
        ConformanceCase(mutant="flow-zero-bill"),
        kill="differential:counters",
        size="BILL_BYTES",
        neutral=0,
        summary="flow mode bills suppressed zero blocks",
        flow_only=True,
        result=_bill_zero_blocks,
    ),
    Mutant(
        ConformanceCase(
            algorithm="rackhier", topology="fat-tree-2x", mutant="topology-skew"
        ),
        kill="differential:time",
        size="UPLINK_SKEW",
        neutral=1.0,
        summary="flow mode halves rack uplink capacity",
        flow_only=True,
        cluster=_skew_uplinks,
    ),
)

#: mutant name -> :class:`Mutant`, called on the case's base collective.
MUTANTS: Dict[str, Mutant] = {m.target.mutant: m for m in _MUTANTS}
