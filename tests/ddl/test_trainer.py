"""Tests for the end-to-end training-iteration simulator."""

import numpy as np
import pytest

from repro.compression import BlockTopK
from repro.ddl import WORKLOADS, TrainingSimulator
from repro.netsim import ClusterSpec


SPEC_10G = ClusterSpec(workers=4, aggregators=4, bandwidth_gbps=10, transport="rdma")
SMALL = 1 << 16


def sim(name, **kwargs):
    defaults = dict(scale_elements=SMALL, samples=1)
    defaults.update(kwargs)
    return TrainingSimulator(WORKLOADS[name], **defaults)


def test_report_fields():
    report = sim("deeplight").measure("omnireduce", SPEC_10G)
    assert report.workload == "deeplight"
    assert report.comm_time_s > 0
    assert report.iteration_time_s > report.compute_time_s
    assert 0 < report.scaling_factor <= 1.0
    assert report.throughput > 0


def test_omnireduce_beats_ring_on_sparse_workload():
    simulator = sim("deeplight")
    omni = simulator.measure("omnireduce", SPEC_10G)
    ring = simulator.measure("ring", SPEC_10G)
    assert omni.speedup_over(ring) > 2.0


def test_omnireduce_does_not_hurt_dense_workload():
    """Figure 10: ResNet152 speedup ~1.0, never a slowdown."""
    simulator = sim("resnet152")
    omni = simulator.measure("omnireduce", SPEC_10G)
    ring = simulator.measure("ring", SPEC_10G)
    assert omni.speedup_over(ring) >= 0.95


def test_scaling_factor_improves_with_omnireduce():
    simulator = sim("lstm")
    omni = simulator.measure("omnireduce", SPEC_10G)
    ring = simulator.measure("ring", SPEC_10G)
    assert omni.scaling_factor > ring.scaling_factor


def test_compression_reduces_comm_time():
    simulator = sim("bert")
    plain = simulator.measure("omnireduce", SPEC_10G)
    compressed = simulator.measure(
        "omnireduce", SPEC_10G, compressor=BlockTopK(0.01, block_size=256)
    )
    assert compressed.comm_time_s < plain.comm_time_s / 5


def test_higher_bandwidth_reduces_comm():
    simulator = sim("lstm")
    slow = simulator.measure("omnireduce", SPEC_10G)
    fast = simulator.measure(
        "omnireduce", SPEC_10G.with_(bandwidth_gbps=100, gdr=True)
    )
    assert fast.comm_time_s < slow.comm_time_s


def test_multi_gpu_measurement():
    simulator = sim("deeplight")
    report = simulator.measure_multi_gpu(
        SPEC_10G.with_(workers=3, aggregators=3, bandwidth_gbps=100),
        gpus_per_server=4,
    )
    assert report.algorithm == "omnireduce-hierarchical"
    assert report.comm_time_s > 0
    assert report.details["gpus_per_server"] == 4.0


def test_multi_gpu_speedup_smaller_than_single_gpu():
    """§6.3: intra-server union densifies gradients, shrinking the win."""
    simulator = sim("deeplight", samples=1)
    spec = SPEC_10G.with_(bandwidth_gbps=100, transport="rdma")
    single_omni = simulator.measure("omnireduce", spec)
    single_ring = simulator.measure("ring", spec)
    multi_omni = simulator.measure_multi_gpu(spec, gpus_per_server=8)
    multi_ring = simulator.measure_multi_gpu(spec, gpus_per_server=8, algorithm="ring")
    single_speedup = single_omni.speedup_over(single_ring)
    multi_speedup = multi_omni.speedup_over(multi_ring)
    assert multi_speedup < single_speedup


def test_multi_gpu_rejects_unknown_algorithm():
    with pytest.raises(ValueError, match="unknown algorithm"):
        sim("bert").measure_multi_gpu(SPEC_10G, algorithm="no-such-algorithm")


def test_multi_gpu_takes_any_registry_algorithm():
    """The inner collective comes from the registry, options and all."""
    simulator = sim("deeplight")
    spec = SPEC_10G.with_(workers=3, aggregators=3)
    report = simulator.measure_multi_gpu(
        spec, gpus_per_server=2, algorithm="sparcml", mode="ssar"
    )
    assert report.algorithm == "sparcml-hierarchical"
    assert report.comm_time_s > 0


def test_validation():
    with pytest.raises(ValueError):
        TrainingSimulator(WORKLOADS["bert"], scale_elements=0)
    with pytest.raises(ValueError):
        TrainingSimulator(WORKLOADS["bert"], samples=0)
