"""The composable protocol-feature layer.

OmniReduce's performance story is a *stack* of mechanisms: look-ahead
next-block computation, zero-block suppression, fine-grained slot
parallelism, block fusion, exponential retransmit backoff and chunk
prefetch.  Historically
those mechanisms were hard-wired across the packet worker/aggregator,
:class:`~repro.core.flowreduce.FlowOmniReduce`, and the
rack-hierarchical engines, with only ``fusion`` and ``backoff_factor``
exposed as knobs.  :class:`ProtocolFeatures` gathers every ablatable
mechanism into one typed, validated, frozen config that all four
engines consult, so the ablation harness (:mod:`repro.ablation`) can
disable any one mechanism uniformly and measure what it earns.

Every feature is **performance-only**: disabling it may change timing
and wire volume but must never change the reduced tensors.  The
conformance property suite (``tests/conformance/test_feature_conformance.py``)
pins that invariant against the dense float64 oracle for every
single-feature-off configuration.

The default :class:`ProtocolFeatures` reproduces today's behaviour
bit-identically -- the golden-trace regression and the packet-vs-flow
differential matrix both gate on it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

__all__ = ["ProtocolFeatures", "FeatureSpec", "FEATURES", "DEFAULT_FEATURES"]


@dataclass(frozen=True)
class FeatureSpec:
    """Catalog entry for one ablatable mechanism."""

    #: Field name on :class:`ProtocolFeatures`.
    name: str
    #: One-line description (shown in the ablation report and docs).
    description: str
    #: Value that disables the mechanism (features are "off" when their
    #: field equals this; booleans use ``False``, ``backoff_factor``
    #: uses ``1.0``).
    off_value: object
    #: Sim modes in which disabling the feature is observable.
    modes: Tuple[str, ...] = ("packet", "flow")


#: The feature catalog, in protocol order.  ``repro.ablation`` iterates
#: this to build its one-run-per-disabled-feature matrix; add a new
#: entry here (plus the engine hook and a conformance row) to make a
#: new mechanism ablatable -- see docs/ablation.md.
FEATURES: Dict[str, FeatureSpec] = {
    spec.name: spec
    for spec in (
        FeatureSpec(
            "lookahead",
            "look-ahead next-nonzero-block pointers; off = workers walk "
            "every block position of a lane (zero positions ride along "
            "as metadata-only updates)",
            off_value=False,
        ),
        FeatureSpec(
            "zero_block_suppression",
            "never transmit an all-zero block; off = every block is "
            "listed and shipped with payload",
            off_value=False,
        ),
        FeatureSpec(
            "slot_parallelism",
            "many parallel aggregator slots per shard keep the pipe "
            "full; off = one stream per shard",
            off_value=False,
        ),
        FeatureSpec(
            "fusion",
            "fuse adjacent blocks up to the transport payload budget; "
            "off = one block per packet",
            off_value=False,
        ),
        FeatureSpec(
            "retransmit_backoff",
            "exponential growth of the retransmission timeout "
            "(backoff_factor > 1); off = constant timeout",
            off_value=False,
            modes=("packet",),
        ),
        FeatureSpec(
            "chunk_prefetch",
            "overlap host-to-NIC staging with transmission in 4 MiB "
            "chunks; off = wait for the whole tensor before sending",
            off_value=False,
        ),
    )
}


@dataclass(frozen=True)
class ProtocolFeatures:
    """Which protocol mechanisms are active.

    The default value enables everything (with neutral backoff), which
    is exactly the pre-refactor hard-wired behaviour.  Instances are
    immutable; derive variants with :meth:`with_` or :meth:`disable`.
    """

    #: Workers answer ``next``-block queries with the next *nonzero*
    #: block of the lane; off = the next lane position regardless.
    lookahead: bool = True
    #: Skip all-zero blocks on the wire (bitmap-guided); off is the
    #: SwitchML* dense stream.
    zero_block_suppression: bool = True
    #: Use the configured ``streams_per_shard`` pipeline depth; off =
    #: a single stream per shard.
    slot_parallelism: bool = True
    #: Block fusion up to the transport payload budget.
    fusion: bool = True
    #: Retransmission timeout growth factor (>= 1.0; 1.0 = constant
    #: timeout, i.e. the backoff mechanism disabled).
    backoff_factor: float = 1.0
    #: Chunked host-to-NIC prefetch overlap (non-GDR transports).
    chunk_prefetch: bool = True

    def __post_init__(self) -> None:
        for name in (
            "lookahead", "zero_block_suppression", "slot_parallelism",
            "fusion", "chunk_prefetch",
        ):
            if not isinstance(getattr(self, name), bool):
                raise TypeError(f"{name} must be a bool")
        factor = self.backoff_factor
        if not isinstance(factor, (int, float)) or isinstance(factor, bool):
            raise TypeError("backoff_factor must be a number")
        object.__setattr__(self, "backoff_factor", float(factor))
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1 (1 = no backoff)")

    # -- derivation --------------------------------------------------------

    def with_(self, **changes: object) -> "ProtocolFeatures":
        """A copy with ``changes`` applied (validated like the ctor)."""
        return dataclasses.replace(self, **changes)

    def disable(self, name: str) -> "ProtocolFeatures":
        """A copy with catalog feature ``name`` turned off."""
        spec = FEATURES.get(name)
        if spec is None:
            raise KeyError(
                f"unknown protocol feature {name!r}; known: {sorted(FEATURES)}"
            )
        if spec.name == "retransmit_backoff":
            return self.with_(backoff_factor=1.0)
        return self.with_(**{spec.name: spec.off_value})

    # -- introspection -----------------------------------------------------

    def enabled(self, name: str) -> bool:
        """Whether catalog feature ``name`` is currently on."""
        spec = FEATURES.get(name)
        if spec is None:
            raise KeyError(
                f"unknown protocol feature {name!r}; known: {sorted(FEATURES)}"
            )
        if spec.name == "retransmit_backoff":
            return self.backoff_factor > 1.0
        return bool(getattr(self, spec.name))

    def labels(self) -> Iterator[Tuple[str, bool]]:
        """(feature name, enabled) per catalog entry, in protocol order.

        This is the stamp telemetry attaches to metrics and traces so
        ablation runs stay distinguishable in exported artifacts.
        """
        for name in FEATURES:
            yield name, self.enabled(name)

    def describe(self) -> str:
        """Compact human-readable stamp, e.g. ``"-lookahead +fusion ..."``."""
        return " ".join(
            ("+" if on else "-") + name for name, on in self.labels()
        )


#: The everything-on default (shared frozen instance).
DEFAULT_FEATURES = ProtocolFeatures()
