"""ProtocolFeatures: catalog, validation, derivation, introspection."""

import dataclasses

import pytest

from repro.core.features import DEFAULT_FEATURES, FEATURES, ProtocolFeatures


class TestDefaults:
    def test_everything_on_by_default(self):
        features = ProtocolFeatures()
        assert features.lookahead
        assert features.zero_block_suppression
        assert features.slot_parallelism
        assert features.fusion
        assert features.chunk_prefetch
        assert features.backoff_factor == 1.0

    def test_default_shared_instance(self):
        assert DEFAULT_FEATURES == ProtocolFeatures()

    def test_backoff_off_by_default(self):
        """backoff_factor=1.0 means the backoff mechanism is disabled."""
        assert not DEFAULT_FEATURES.enabled("retransmit_backoff")
        assert "-retransmit_backoff" in DEFAULT_FEATURES.describe()


class TestValidation:
    @pytest.mark.parametrize(
        "name",
        [
            "lookahead", "zero_block_suppression", "slot_parallelism",
            "fusion", "chunk_prefetch",
        ],
    )
    def test_boolean_fields_reject_non_bools(self, name):
        with pytest.raises(TypeError):
            ProtocolFeatures(**{name: 1})

    def test_backoff_rejects_bool(self):
        with pytest.raises(TypeError):
            ProtocolFeatures(backoff_factor=True)

    def test_backoff_rejects_below_one(self):
        with pytest.raises(ValueError):
            ProtocolFeatures(backoff_factor=0.5)

    def test_backoff_coerced_to_float(self):
        assert ProtocolFeatures(backoff_factor=2).backoff_factor == 2.0

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_FEATURES.fusion = False


class TestDerivation:
    def test_with_returns_validated_copy(self):
        derived = DEFAULT_FEATURES.with_(fusion=False)
        assert not derived.fusion
        assert DEFAULT_FEATURES.fusion  # original untouched
        with pytest.raises(ValueError):
            DEFAULT_FEATURES.with_(backoff_factor=0.0)

    @pytest.mark.parametrize("name", sorted(FEATURES))
    def test_disable_turns_each_catalog_feature_off(self, name):
        baseline = DEFAULT_FEATURES.with_(backoff_factor=2.0)
        assert baseline.enabled(name)
        assert not baseline.disable(name).enabled(name)

    def test_disable_backoff_resets_factor(self):
        features = ProtocolFeatures(backoff_factor=4.0)
        assert features.disable("retransmit_backoff").backoff_factor == 1.0

    def test_disable_unknown_feature(self):
        with pytest.raises(KeyError, match="unknown protocol feature"):
            DEFAULT_FEATURES.disable("warp-drive")

    def test_enabled_unknown_feature(self):
        with pytest.raises(KeyError):
            DEFAULT_FEATURES.enabled("warp-drive")


class TestCatalog:
    def test_catalog_names_match_keys(self):
        for name, spec in FEATURES.items():
            assert spec.name == name
            assert spec.description

    def test_catalog_covers_every_ablatable_mechanism(self):
        assert set(FEATURES) == {
            "lookahead", "zero_block_suppression", "slot_parallelism",
            "fusion", "retransmit_backoff", "chunk_prefetch",
        }
        assert len(FEATURES) == 6

    def test_labels_follow_catalog_order(self):
        assert [name for name, _ in DEFAULT_FEATURES.labels()] == list(FEATURES)

    def test_describe_stamps_every_feature(self):
        stamp = DEFAULT_FEATURES.with_(fusion=False).describe()
        assert "-fusion" in stamp
        assert "+lookahead" in stamp
        assert len(stamp.split()) == len(FEATURES)
