"""The unified Collective API.

Every AllReduce implementation in the repository -- OmniReduce and all
baselines -- is exposed through one calling convention:

    collective = ALGORITHMS["sparcml"]
    session = collective.prepare(cluster, SparCMLOptions(mode="dsar"))
    result = session.allreduce(tensors)

A :class:`Collective` is a named algorithm plus its typed
:class:`Options` dataclass (mirroring :class:`OmniReduceConfig`);
``prepare`` binds it to a cluster and returns a :class:`Session` with
``allreduce``/``allgather``/``broadcast`` methods, all returning the
uniform :class:`~repro.core.collective.CollectiveResult`.  Algorithms
without a native AllGather/Broadcast fall back to the dense ring
AllGather and binomial-tree Broadcast baselines, so every session
supports all three collectives.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Type

import numpy as np

from ..core.collective import CollectiveResult, OmniReduce
from ..core.config import OmniReduceConfig
from ..core.features import ProtocolFeatures
from ..core.flowreduce import FlowOmniReduce
from ..core.pending import PendingCollective, PendingResult
from ..core.rackreduce import (
    DEFAULT_RACK_SIZE,
    DEFAULT_SEGMENT_BYTES,
    FlowRackHierarchical,
    RackHierarchicalOmniReduce,
)
from ..netsim.cluster import Cluster
from ..netsim.flow import flow_view, is_flow_view
from .agsparse import AGsparseAllReduce
from .collectives import begin_ring_allgather, begin_tree_broadcast
from .halving_doubling import HalvingDoublingAllReduce
from .parallax import ParallaxAllReduce
from .ps import ParameterServerAllReduce
from .ring import SEGMENT_ELEMENTS, RingAllReduce
from .sparcml import SparCML
from .switchml import SwitchMLAllReduce

__all__ = [
    "Options",
    "Session",
    "PendingResult",
    "Collective",
    "OmniReduceOptions",
    "RingOptions",
    "AGsparseOptions",
    "SparCMLOptions",
    "PSOptions",
    "ParallaxOptions",
    "SwitchMLOptions",
    "RackHierarchicalOptions",
]


# ---------------------------------------------------------------------------
# Options
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Options:
    """Base class for per-algorithm option bundles.

    Immutable and typo-safe: unknown fields fail at construction instead
    of being silently swallowed by a ``**opts`` dict.

    ``telemetry`` (a :class:`repro.telemetry.Telemetry`) is shared by
    every algorithm: when set, the session attaches it to the cluster
    and records each collective into its metrics registry and span
    stream.  ``None`` (the default) falls back to the cluster's own
    telemetry, if any -- and otherwise costs nothing.

    ``sim_mode`` selects the simulation granularity and is likewise
    shared by every algorithm: ``"packet"`` (the default) runs the exact
    per-packet event kernel; ``"flow"`` runs the analytical flow-level
    fast path (same tensors bit-identically, same wire counters exactly,
    completion times within the tolerance documented in
    ``docs/performance.md``).  Configurations whose semantics need
    per-packet events (loss, the datagram transport, Algorithm 2
    recovery...) raise :class:`~repro.netsim.flow.FlowUnsupported`.

    ``features`` (a :class:`~repro.core.features.ProtocolFeatures`)
    selects the active protocol mechanisms for algorithms that consult
    the feature catalog (OmniReduce and the rack-hierarchical variant;
    see :mod:`repro.core.features`).  ``None`` keeps each algorithm's
    defaults.  The active set is stamped into the session's telemetry
    either way.

    :meth:`from_kwargs` is *the* coercion entry point: everything that
    accepts loosely-typed options (``prepare``, bench helpers) funnels
    through it.
    """

    telemetry: Optional[object] = None
    sim_mode: str = "packet"
    features: Optional[ProtocolFeatures] = None

    @classmethod
    def from_kwargs(cls, options=None, /, **kwargs) -> "Options":
        """Coerce ``options`` / keyword fields into this options class.

        The single documented way to build options from loose input:

        * ``from_kwargs()`` -- the defaults,
        * ``from_kwargs(opts)`` -- validated pass-through (``opts`` must
          already be an instance of this class; anything else raises
          ``TypeError``),
        * ``from_kwargs(field=value, ...)`` -- typed construction, with
          unknown fields failing loudly.

        Classes that carry an :class:`OmniReduceConfig` (``config``:
        OmniReduce and SwitchML*) also take raw config fields
        (``block_size=64``, ...) as an alternative to ``config=``.
        """
        if options is not None:
            if kwargs:
                raise TypeError(
                    "pass either an options instance or keyword fields, not both"
                )
            if isinstance(options, cls):
                return options
            raise TypeError(
                f"expected {cls.__name__} options, got {type(options).__name__}"
            )
        names = {f.name for f in dataclasses.fields(cls)}
        raw = {k: v for k, v in kwargs.items() if k not in names}
        if raw and "config" in names:
            if kwargs.get("config") is not None:
                raise TypeError(
                    f"pass either config= or raw config fields, not both "
                    f"(extra: {sorted(raw)})"
                )
            kwargs = {k: v for k, v in kwargs.items() if k in names}
            kwargs["config"] = OmniReduceConfig(**raw)
        return cls(**kwargs)


@dataclass(frozen=True)
class OmniReduceOptions(Options):
    """Options for the OmniReduce collective: its full config object."""

    config: Optional[OmniReduceConfig] = None


@dataclass(frozen=True)
class RingOptions(Options):
    segment_elements: int = SEGMENT_ELEMENTS


@dataclass(frozen=True)
class AGsparseOptions(Options):
    backend: str = "nccl"
    include_conversion: bool = True
    index_encoding: str = "coo"


@dataclass(frozen=True)
class SparCMLOptions(Options):
    mode: str = "auto"
    include_conversion: bool = True


@dataclass(frozen=True)
class PSOptions(Options):
    sparse: bool = False
    include_conversion: bool = True


@dataclass(frozen=True)
class ParallaxOptions(Options):
    include_conversion: bool = True


@dataclass(frozen=True)
class SwitchMLOptions(Options):
    config: Optional[OmniReduceConfig] = None


@dataclass(frozen=True)
class RackHierarchicalOptions(Options):
    """Options for the rack-hierarchical sparse AllReduce.

    ``rack_size`` groups workers by index into racks whose first worker
    acts as the rack leader; align it with the physical racks of the
    cluster's topology (:func:`repro.netsim.topology.rack_map_for`).
    """

    rack_size: int = DEFAULT_RACK_SIZE
    block_size: int = 64
    segment_bytes: int = DEFAULT_SEGMENT_BYTES


def _sim_cluster(cluster: Cluster, options: Options) -> Cluster:
    """Apply ``options.sim_mode`` to ``cluster``.

    ``"packet"`` returns the cluster unchanged; ``"flow"`` returns a
    :class:`~repro.netsim.flow.FlowCluster` view over it.  The view's
    transport refuses a lossy network and the datagram transport right
    here, at ``prepare`` time; the flow engines' own refusals (a tiered
    topology for flat OmniReduce, gradient readiness, Algorithm 2
    recovery, aggregator crashes, deadlines) raise
    :class:`~repro.netsim.flow.FlowUnsupported` at the first collective.
    """
    mode = getattr(options, "sim_mode", "packet")
    if mode == "packet":
        return cluster
    if mode == "flow":
        return flow_view(cluster)
    raise ValueError(
        f"unknown sim_mode {mode!r}; expected 'packet' or 'flow'"
    )


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------


class Session:
    """One algorithm bound to one cluster, ready to run collectives.

    Sessions are cheap to build and reusable: a training loop prepares
    once and calls ``allreduce`` per iteration.  Algorithms without a
    native AllGather/Broadcast inherit the dense ring AllGather and
    binomial-tree Broadcast fallbacks.

    Each collective has a non-blocking form --
    ``submit``/``submit_allgather``/``submit_broadcast`` spawn the
    protocol processes and return a
    :class:`~repro.core.pending.PendingResult`, so several operations
    (or several jobs) can interleave on one simulator -- and a blocking
    form, ``allreduce``/``allgather``/``broadcast``, which is that
    handle's ``wait()``.  An AllReduce begins ``engine``, the object
    the registry's factory built; subclasses override the
    ``_submit_allgather``/``_submit_broadcast`` hooks for native ones.

    Sessions are context managers: ``close()`` (idempotent, also called
    by ``__exit__``) detaches the session's telemetry from the cluster
    and rejects further collectives.

    Every collective is recorded through the session's telemetry
    (``options.telemetry``, falling back to ``cluster.telemetry``) when
    one is present: the handle opens one frame per operation.
    """

    def __init__(
        self,
        cluster: Cluster,
        options: Options,
        algorithm: str = "",
        features: Optional[ProtocolFeatures] = None,
        engine=None,
    ) -> None:
        self.cluster = cluster
        self.options = options
        self.engine = engine
        self.algorithm = algorithm or type(self).__name__
        #: The protocol feature set stamped into telemetry recordings:
        #: the engine's resolved set when the collective consults the
        #: catalog, else whatever the options requested.
        self.features = (
            features
            if features is not None
            else getattr(options, "features", None)
        )
        self.closed = False
        self.telemetry = getattr(options, "telemetry", None) or getattr(
            cluster, "telemetry", None
        )
        self._owns_attachment = False
        if self.telemetry is not None:
            self._owns_attachment = not self.telemetry.attached(cluster)
            self.telemetry.attach(cluster)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut the session down (idempotent).

        Detaches the session's telemetry from the cluster -- the
        recorded history survives, future traffic is no longer observed
        -- and marks the session closed; subsequent collectives raise
        ``RuntimeError``.  A telemetry that was already attached before
        the session was built (a fleet-level recorder shared by many
        jobs, the cluster's own) is left attached: the session only
        undoes the attachment it created.
        """
        if self.closed:
            return
        self.closed = True
        if self.telemetry is not None and self._owns_attachment:
            self.telemetry.detach(self.cluster)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError(
                f"session for {self.algorithm!r} is closed; prepare a new one"
            )

    # -- blocking surface ----------------------------------------------------

    def allreduce(
        self, tensors: Sequence[np.ndarray], **kwargs
    ) -> CollectiveResult:
        return self.submit(tensors, **kwargs).wait()

    def allgather(self, tensors: Sequence[np.ndarray]) -> CollectiveResult:
        return self.submit_allgather(tensors).wait()

    def broadcast(self, tensor: np.ndarray, root: int = 0) -> CollectiveResult:
        return self.submit_broadcast(tensor, root=root).wait()

    # -- non-blocking surface ------------------------------------------------

    def _submitted(self, begin) -> PendingResult:
        self._check_open()
        return PendingResult(
            self.telemetry, self.algorithm, self.cluster, begin, self.features
        )

    def submit(self, tensors: Sequence[np.ndarray], **kwargs) -> PendingResult:
        """Begin an AllReduce without driving the clock.

        ``allreduce(t)`` is ``submit(t).wait()``; using the returned
        handle's ``event`` instead runs the operation cooperatively
        alongside others on the same simulator.
        """
        return self._submitted(lambda: self._submit(tensors, **kwargs))

    def submit_allgather(self, tensors: Sequence[np.ndarray]) -> PendingResult:
        """Begin an AllGather without driving the clock."""
        return self._submitted(lambda: self._submit_allgather(tensors))

    def submit_broadcast(self, tensor: np.ndarray, root: int = 0) -> PendingResult:
        """Begin a Broadcast without driving the clock."""
        return self._submitted(lambda: self._submit_broadcast(tensor, root))

    # -- algorithm hooks -----------------------------------------------------

    def _submit(
        self, tensors: Sequence[np.ndarray], **kwargs
    ) -> PendingCollective:
        return self.engine.begin(tensors, **kwargs)

    def _submit_allgather(self, tensors: Sequence[np.ndarray]) -> PendingCollective:
        return begin_ring_allgather(self.cluster, tensors)

    def _submit_broadcast(self, tensor: np.ndarray, root: int) -> PendingCollective:
        return begin_tree_broadcast(self.cluster, tensor, root=root)


class OmniReduceSession(Session):
    """OmniReduce session: all three collectives are native (§7)."""

    def _submit_allgather(self, tensors: Sequence[np.ndarray]) -> PendingCollective:
        return self.engine.begin_allgather(tensors)

    def _submit_broadcast(self, tensor: np.ndarray, root: int) -> PendingCollective:
        return self.engine.begin_broadcast(tensor, root=root)


# ---------------------------------------------------------------------------
# Collectives
# ---------------------------------------------------------------------------


class Collective:
    """A named algorithm: ``prepare(cluster, options)`` yields a Session."""

    name: str = ""
    options_cls: Type[Options] = Options
    summary: str = ""
    #: Option fields this registry name pins (``sparcml-ssar`` is
    #: ``sparcml`` with ``mode="ssar"``): applied over whatever options
    #: the caller hands in, so a variant name always runs its variant.
    preset: Dict[str, object] = {}

    def prepare(self, cluster: Cluster, options: Optional[Options] = None) -> Session:
        raise NotImplementedError

    def default_options(self) -> Options:
        return self._coerce(None)

    def _coerce(self, options: Optional[Options]) -> Options:
        """``options`` as this collective's typed options, with the
        registry entry's ``preset`` fields pinned on top."""
        try:
            opts = self.options_cls.from_kwargs(options)
        except TypeError as exc:
            raise TypeError(f"{self.name!r}: {exc}") from None
        return dataclasses.replace(opts, **self.preset) if self.preset else opts

    def __repr__(self) -> str:
        return f"<Collective {self.name!r} ({self.options_cls.__name__})>"


class _FactoryCollective(Collective):
    """Collective whose engine is built by ``factory(cluster, options)``.

    ``prepare`` hands the factory the cluster as ``options.sim_mode``
    selects it (a flow-mode view in flow mode), so the factory alone
    picks the engine class; ``session`` is the session class wrapping
    that engine.
    """

    def __init__(
        self, name, options_cls, factory, summary="", preset=None,
        session=Session,
    ) -> None:
        self.name = name
        self.options_cls = options_cls
        self._factory = factory
        self.summary = summary
        self.preset = preset or {}
        self._session_cls = session

    def prepare(self, cluster: Cluster, options: Optional[Options] = None) -> Session:
        opts = self._coerce(options)
        cluster = _sim_cluster(cluster, opts)
        engine = self._factory(cluster, opts)
        return self._session_cls(
            cluster,
            opts,
            algorithm=self.name,
            features=getattr(engine, "features", None),
            engine=engine,
        )


def _engine_config(opts: Options) -> Optional[OmniReduceConfig]:
    """``opts.config`` with ``opts.features`` (when given) folded in."""
    if opts.features is None:
        return opts.config
    return (opts.config or OmniReduceConfig()).with_(features=opts.features)


def _omnireduce(c: Cluster, o: OmniReduceOptions) -> OmniReduce:
    engine_cls = FlowOmniReduce if is_flow_view(c) else OmniReduce
    return engine_cls(c, _engine_config(o))


def _rackhier(c: Cluster, o: RackHierarchicalOptions) -> RackHierarchicalOmniReduce:
    # The flow engine replays the packet oracle analytically, including
    # shared topology pipes (which the flat OmniReduce flow engine refuses).
    engine_cls = FlowRackHierarchical if is_flow_view(c) else RackHierarchicalOmniReduce
    return engine_cls(
        c,
        rack_size=o.rack_size,
        block_size=o.block_size,
        segment_bytes=o.segment_bytes,
        features=o.features,
    )


def _agsparse(c: Cluster, o: AGsparseOptions) -> AGsparseAllReduce:
    return AGsparseAllReduce(
        c,
        backend=o.backend,
        include_conversion=o.include_conversion,
        index_encoding=o.index_encoding,
    )


def _sparcml(c: Cluster, o: SparCMLOptions) -> SparCML:
    return SparCML(
        c,
        mode=o.mode,
        include_conversion=o.include_conversion,
    )


def _ps(c: Cluster, o: PSOptions) -> ParameterServerAllReduce:
    return ParameterServerAllReduce(
        c,
        sparse=o.sparse,
        include_conversion=o.include_conversion,
    )


def _factories() -> Dict[str, Collective]:
    """The registry's algorithm table (name -> Collective).

    Variant names (``agsparse-gloo``, ``sparcml-ssar``, ``sparcml-dsar``,
    ``ps-sparse``) share their family's Options class and factory and
    differ only in the ``preset`` they pin.
    """
    return {
        "omnireduce": _FactoryCollective(
            "omnireduce",
            OmniReduceOptions,
            _omnireduce,
            "sparse streaming aggregation (this paper)",
            session=OmniReduceSession,
        ),
        "rackhier": _FactoryCollective(
            "rackhier",
            RackHierarchicalOptions,
            _rackhier,
            "rack-hierarchical sparse aggregation over tiered fabrics",
        ),
        "ring": _FactoryCollective(
            "ring",
            RingOptions,
            lambda c, o: RingAllReduce(c, segment_elements=o.segment_elements),
            "NCCL/Gloo dense ring AllReduce",
        ),
        "halving-doubling": _FactoryCollective(
            "halving-doubling",
            Options,
            lambda c, o: HalvingDoublingAllReduce(c),
            "MPI/NCCL latency-optimal recursive halving-doubling",
        ),
        "agsparse": _FactoryCollective(
            "agsparse",
            AGsparseOptions,
            _agsparse,
            "AllGather-based sparse AllReduce (NCCL flavour)",
        ),
        "agsparse-gloo": _FactoryCollective(
            "agsparse-gloo",
            AGsparseOptions,
            _agsparse,
            "AGsparse over the Gloo backend",
            preset={"backend": "gloo"},
        ),
        "sparcml": _FactoryCollective(
            "sparcml",
            SparCMLOptions,
            _sparcml,
            "SparCML sparse AllReduce (auto mode)",
        ),
        "sparcml-ssar": _FactoryCollective(
            "sparcml-ssar",
            SparCMLOptions,
            _sparcml,
            "SparCML static split AllGather",
            preset={"mode": "ssar"},
        ),
        "sparcml-dsar": _FactoryCollective(
            "sparcml-dsar",
            SparCMLOptions,
            _sparcml,
            "SparCML dynamic split AllGather",
            preset={"mode": "dsar"},
        ),
        "ps": _FactoryCollective(
            "ps",
            PSOptions,
            _ps,
            "BytePS-style dense push-pull parameter server",
        ),
        "ps-sparse": _FactoryCollective(
            "ps-sparse",
            PSOptions,
            _ps,
            "sparse push-pull parameter server",
            preset={"sparse": True},
        ),
        "parallax": _FactoryCollective(
            "parallax",
            ParallaxOptions,
            lambda c, o: ParallaxAllReduce(c, include_conversion=o.include_conversion),
            "oracle choice between sparse PS and dense ring",
        ),
        "switchml": _FactoryCollective(
            "switchml",
            SwitchMLOptions,
            lambda c, o: SwitchMLAllReduce(c, config=_engine_config(o)),
            "SwitchML*-style dense streaming aggregation",
        ),
    }
