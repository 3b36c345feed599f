"""HierarchicalAllReduce records through the uniform telemetry path.

The two-layer wrapper is not a registry algorithm, but it must emit
the same uniform metric set under its own ``hierarchical`` label --
with the inner collective's run folded in (the wrapper drives the inner
engine's ``begin``, which records nothing under its own name).
"""

import numpy as np
import pytest

from repro.core.hierarchical import HierarchicalAllReduce
from repro.netsim import Cluster, ClusterSpec
from repro.telemetry import UNIFORM_METRICS, Telemetry

pytestmark = pytest.mark.telemetry


def _per_gpu_tensors(servers, gpus, elements=512, seed=0):
    rng = np.random.default_rng(seed)
    return [
        [rng.standard_normal(elements).astype(np.float32) for _ in range(gpus)]
        for _ in range(servers)
    ]


def test_hierarchical_emits_uniform_metric_set_once():
    tele = Telemetry()
    cluster = Cluster(ClusterSpec(workers=2, aggregators=2))
    cluster.telemetry = tele
    engine = HierarchicalAllReduce(cluster, gpus_per_server=2)
    result = engine.allreduce(_per_gpu_tensors(2, 2))

    # One run, labeled by the wrapper -- never by the inner collective.
    assert list(tele.run_labels.values()) == ["hierarchical"]
    for metric_name in UNIFORM_METRICS:
        metric = tele.metrics.get(metric_name)
        assert metric is not None, f"missing metric {metric_name}"
        labelsets = [
            ls
            for ls in metric.labelsets()
            if ls.get("algorithm") == "hierarchical"
        ]
        assert labelsets, f"no hierarchical {metric_name} sample"

    # The recorded completion time is the wrapper's (inter-server
    # collective plus both intra-server NVLink phases).
    recorded = tele.metrics.get("time_s").value(algorithm="hierarchical")
    assert recorded == pytest.approx(result.time_s)
    assert result.details["intra_reduce_s"] > 0


def test_hierarchical_without_telemetry_is_unchanged():
    cluster = Cluster(ClusterSpec(workers=2, aggregators=2))
    assert cluster.telemetry is None
    engine = HierarchicalAllReduce(cluster, gpus_per_server=2)
    per_gpu = _per_gpu_tensors(2, 2)
    result = engine.allreduce(per_gpu)
    expected = np.sum(
        np.stack([np.sum(np.stack(gpus), axis=0) for gpus in per_gpu]), axis=0
    )
    for out in result.outputs:
        np.testing.assert_allclose(out, expected, rtol=1e-5, atol=1e-6)
