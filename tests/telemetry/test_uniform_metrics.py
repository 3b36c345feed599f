"""Every registry algorithm emits the full uniform metric set."""

import numpy as np
import pytest

from repro.baselines import ALGORITHMS
from repro.netsim import Cluster, ClusterSpec
from repro.telemetry import UNIFORM_METRICS, Telemetry
from repro.tensors import block_sparse_tensors

pytestmark = pytest.mark.telemetry


def _cluster():
    return Cluster(
        ClusterSpec(workers=4, aggregators=4, bandwidth_gbps=10, transport="tcp")
    )


def _tensors():
    return block_sparse_tensors(
        4, 32 * 16, 16, 0.5, rng=np.random.default_rng(0)
    )


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_algorithm_emits_uniform_metric_set(name):
    tele = Telemetry()
    collective = ALGORITHMS[name]
    options_cls = type(collective.default_options())
    session = collective.prepare(_cluster(), options_cls(telemetry=tele))
    session.allreduce(_tensors())

    assert tele.metrics.algorithms() == [name]
    for metric_name in UNIFORM_METRICS:
        metric = tele.metrics.get(metric_name)
        assert metric is not None, f"{name} missing metric {metric_name}"
        labelsets = [
            ls for ls in metric.labelsets() if ls.get("algorithm") == name
        ]
        assert labelsets, f"{name} emitted no {metric_name} sample"


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_algorithm_records_exactly_one_run(name):
    """A session wrapping an engine records one frame: ``begin`` never
    records, only the session's handle does."""
    tele = Telemetry()
    collective = ALGORITHMS[name]
    options_cls = type(collective.default_options())
    session = collective.prepare(_cluster(), options_cls(telemetry=tele))
    session.allreduce(_tensors())
    assert list(tele.run_labels.values()) == [name]


def test_iterations_accumulate_under_one_algorithm_label():
    tele = Telemetry()
    collective = ALGORITHMS["ring"]
    session = collective.prepare(
        _cluster(), type(collective.default_options())(telemetry=tele)
    )
    first = session.allreduce(_tensors())
    second = session.allreduce(_tensors())
    assert tele.metrics.get("bytes_on_wire").value(algorithm="ring") == (
        first.bytes_sent + second.bytes_sent
    )
    assert list(tele.run_labels.values()) == ["ring", "ring"]
