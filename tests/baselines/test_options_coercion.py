"""The single options-coercion entry point.

``Options.from_kwargs`` is the one documented way to coerce loose input
into typed options; ``Collective.prepare`` funnels everything through
it and then pins the registry entry's preset on top.
"""

import numpy as np
import pytest

from repro.baselines.api import (
    AGsparseOptions,
    OmniReduceOptions,
    Options,
    PSOptions,
    RingOptions,
    SparCMLOptions,
    SwitchMLOptions,
)
from repro.baselines.registry import get
from repro.core.config import OmniReduceConfig
from repro.core.features import ProtocolFeatures
from repro.netsim import Cluster, ClusterSpec
from repro.telemetry import Telemetry


def _cluster():
    return Cluster(ClusterSpec(workers=2, aggregators=2))


class TestFromKwargs:
    def test_defaults(self):
        assert RingOptions.from_kwargs() == RingOptions()

    def test_instance_passthrough(self):
        opts = RingOptions(segment_elements=512)
        assert RingOptions.from_kwargs(opts) is opts

    def test_keyword_construction(self):
        assert RingOptions.from_kwargs(segment_elements=128).segment_elements == 128

    def test_wrong_class_rejected(self):
        with pytest.raises(TypeError, match="expected RingOptions"):
            RingOptions.from_kwargs(PSOptions())

    def test_instance_plus_kwargs_rejected(self):
        with pytest.raises(TypeError, match="not both"):
            RingOptions.from_kwargs(RingOptions(), segment_elements=64)

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError):
            RingOptions.from_kwargs(bogus=1)

    def test_subclass_instance_accepted_by_base(self):
        opts = RingOptions()
        assert Options.from_kwargs(opts) is opts


class TestOmniReduceSpellings:
    def test_raw_config_fields(self):
        opts = OmniReduceOptions.from_kwargs(block_size=64)
        assert opts.config.block_size == 64

    def test_config_keyword(self):
        config = OmniReduceConfig(block_size=32)
        assert OmniReduceOptions.from_kwargs(config=config).config is config

    def test_config_plus_raw_fields_rejected(self):
        with pytest.raises(TypeError, match="not both"):
            OmniReduceOptions.from_kwargs(
                config=OmniReduceConfig(), block_size=64
            )

    def test_bare_config_is_an_ordinary_type_error(self):
        config = OmniReduceConfig(block_size=128)
        with pytest.raises(TypeError, match="expected OmniReduceOptions"):
            OmniReduceOptions.from_kwargs(config)
        with pytest.raises(TypeError, match="'omnireduce'"):
            get("omnireduce").prepare(_cluster(), config)


class TestPrepareCoercion:
    def test_prepare_coerce_rejects_wrong_options_class(self):
        with pytest.raises(TypeError, match="'ring'"):
            get("ring").prepare(_cluster(), PSOptions())

    @pytest.mark.parametrize(
        "name, family_options, pinned",
        [
            ("sparcml-ssar", SparCMLOptions(), {"mode": "ssar"}),
            ("sparcml-dsar", SparCMLOptions(), {"mode": "dsar"}),
            ("agsparse-gloo", AGsparseOptions(), {"backend": "gloo"}),
            ("ps-sparse", PSOptions(), {"sparse": True}),
        ],
    )
    def test_preset_names_run_their_pinned_variant(
        self, name, family_options, pinned
    ):
        """A variant name is its family's Options class plus a preset:
        handing it the family defaults (or nothing) still runs the
        variant, and the engine is built from the pinned value."""
        collective = get(name)
        assert type(collective.default_options()) is type(family_options)
        tensors = [np.arange(64, dtype=np.float32)] * 2
        for options in (None, family_options):
            session = collective.prepare(_cluster(), options)
            for field, value in pinned.items():
                assert getattr(session.options, field) == value
                assert getattr(session.engine, field) == value
            result = session.allreduce(tensors)
            np.testing.assert_allclose(result.output, tensors[0] * 2)

    def test_preset_overrides_a_conflicting_request(self):
        session = get("sparcml-ssar").prepare(
            _cluster(), SparCMLOptions(mode="dsar")
        )
        assert session.engine.mode == "ssar"


class TestSwitchMLFeatures:
    """``SwitchMLOptions(features=F)`` must reach the engine, and the
    telemetry stamp must be the set the engine ran -- not the request."""

    def test_options_features_reach_the_engine_and_the_stamp(self):
        tensors = [np.arange(4096, dtype=np.float32)] * 2
        fused = get("switchml").prepare(_cluster()).allreduce(tensors)
        assert fused.details["fusion_width"] > 1

        telemetry = Telemetry()
        options = SwitchMLOptions(
            features=ProtocolFeatures(fusion=False), telemetry=telemetry
        )
        with get("switchml").prepare(_cluster(), options) as session:
            unfused = session.allreduce(tensors)
        assert unfused.details["fusion_width"] == 1
        np.testing.assert_array_equal(unfused.output, fused.output)

        ran = session.engine.features
        assert ran == ProtocolFeatures(fusion=False, zero_block_suppression=False)
        assert session.features == ran
        assert list(telemetry.run_features.values()) == [dict(ran.labels())]
