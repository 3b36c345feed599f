"""Tests for OmniReduceConfig validation."""

import pytest

from repro.core import OmniReduceConfig, ProtocolFeatures


def test_defaults_match_paper():
    config = OmniReduceConfig()
    assert config.block_size == 256
    assert config.features.fusion is True
    assert config.features.zero_block_suppression is True
    assert config.reduction == "sum"


def test_invalid_block_size():
    with pytest.raises(ValueError):
        OmniReduceConfig(block_size=0)


def test_invalid_streams():
    with pytest.raises(ValueError):
        OmniReduceConfig(streams_per_shard=0)
    with pytest.raises(ValueError):
        OmniReduceConfig(streams_per_shard=5000)  # > 12-bit slot id


def test_invalid_message_bytes():
    with pytest.raises(ValueError):
        OmniReduceConfig(message_bytes=4)


def test_invalid_timeout():
    with pytest.raises(ValueError):
        OmniReduceConfig(timeout_s=0.0)


def test_invalid_reduction():
    with pytest.raises(ValueError):
        OmniReduceConfig(reduction="mean")


def test_invalid_features_type():
    with pytest.raises(TypeError):
        OmniReduceConfig(features={"fusion": False})


def test_with_replaces_fields():
    config = OmniReduceConfig()
    other = config.with_(
        block_size=64, features=ProtocolFeatures(fusion=False)
    )
    assert other.block_size == 64
    assert not other.features.fusion
    assert config.block_size == 256
    assert config.features.fusion


@pytest.mark.parametrize("knob", ["skip_zero_blocks", "fusion", "backoff_factor"])
def test_removed_knobs_are_plain_type_errors(knob):
    """The mechanisms live in ``features`` only; the old config-level
    spellings are unknown fields, not shims."""
    with pytest.raises(TypeError):
        OmniReduceConfig(**{knob: False})
    with pytest.raises(TypeError):
        OmniReduceConfig().with_(**{knob: False})
    assert not hasattr(OmniReduceConfig(), knob)


def test_effective_streams_gated_by_slot_parallelism():
    config = OmniReduceConfig(
        streams_per_shard=32,
        features=ProtocolFeatures(slot_parallelism=False),
    )
    assert config.effective_streams_per_shard == 1
    assert OmniReduceConfig().effective_streams_per_shard == 32
