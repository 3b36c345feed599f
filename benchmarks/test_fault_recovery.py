"""Fault-injection sweep: recovery cost vs the App. D zero-fault baseline."""

import numpy as np
import pytest

from repro.bench import fault_recovery
from repro.conformance.oracle import tolerance_for

pytestmark = pytest.mark.faults


def test_fault_recovery(run_once, record):
    result = record(run_once(fault_recovery))

    baseline = result.row_where(scenario="baseline")
    # Appendix D reference: with zero faults injected every recovery
    # counter stays at zero and the collective completes to within the
    # float32 summation-order bound of a 4-worker reduction.
    assert baseline["retransmissions"] == 0
    assert baseline["timeouts"] == 0
    assert baseline["recovery_events"] == 0
    assert baseline["complete"] is True
    assert baseline["max_abs_err"] <= tolerance_for(np.float32, 4)

    # The Gilbert-Elliott sweep completes at every intensity and the
    # heavier rate populates the retransmission/timeout counters.
    heavy = result.row_where(scenario="ge-loss-1.00%")
    assert heavy["complete"] is True
    assert heavy["retransmissions"] > 0
    assert heavy["timeouts"] > 0
    assert heavy["time_ms"] >= baseline["time_ms"]

    crash = result.row_where(scenario="crash-failover")
    assert crash["complete"] is True
    assert crash["recovery_events"] >= 1
    assert crash["time_ms"] > baseline["time_ms"]

    straggler = result.row_where(scenario="straggler")
    assert straggler["complete"] is True
    assert straggler["time_ms"] > baseline["time_ms"]

    partial = result.row_where(scenario="deadline-partial")
    assert partial["complete"] is False
