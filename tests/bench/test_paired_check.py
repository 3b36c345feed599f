"""The paired packet-vs-flow check behind ``figure-6-flow``/``-scale``.

``paired_check`` times the flow run, runs the packet reference on the
same workload, and refuses to report a speedup unless the flow result
reproduced the packet run exactly and cleared the floor.  A 16-worker,
1,024-element OmniReduce keeps both runs well under a second.
"""

import dataclasses

import pytest

from repro.bench import flowmode
from repro.bench.flowmode import element_sparse_tensors, paired_check
from repro.netsim import ClusterSpec

pytestmark = pytest.mark.flowmode

SPEC = ClusterSpec(workers=16, aggregators=2)


@pytest.fixture(scope="module")
def tensors():
    return element_sparse_tensors(16, 1024, 0.9)


def test_floor_zero_reports_a_positive_speedup(tensors):
    paired = paired_check(lambda flow: flowmode._run(SPEC, tensors, flow), 0.0)
    assert paired.speedup > 0
    assert paired.flow.packets_sent > 0
    # The reference row's rate-based speedup is its wall-over-wall one.
    assert paired.speedup_for(
        paired.flow.packets_sent, paired.flow_wall_s
    ) == pytest.approx(paired.speedup)


def test_a_miscounted_flow_run_raises(tensors):
    def run(flow):
        result = flowmode._run(SPEC, tensors, flow)
        if flow:
            result = dataclasses.replace(
                result, packets_sent=result.packets_sent + 1
            )
        return result

    with pytest.raises(RuntimeError, match="packets_sent"):
        paired_check(run, 0.0)


def test_an_unreachable_floor_raises(tensors):
    with pytest.raises(RuntimeError, match="below the floor"):
        paired_check(
            lambda flow: flowmode._run(SPEC, tensors, flow), float("inf")
        )
