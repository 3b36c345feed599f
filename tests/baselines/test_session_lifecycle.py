"""Session lifecycle: context manager, idempotent close, telemetry scope."""

import numpy as np
import pytest

from repro import FaultPlan, prepare
from repro.baselines.api import OmniReduceOptions
from repro.baselines.registry import get
from repro.netsim import BernoulliLoss, Cluster, ClusterSpec
from repro.netsim.kernel import events_total
from repro.telemetry import Telemetry, TelemetryConfig


def _cluster():
    return Cluster(ClusterSpec(workers=2, aggregators=2))


def _tensors(workers=2, elements=256):
    rng = np.random.default_rng(0)
    return [rng.standard_normal(elements).astype(np.float32) for _ in range(workers)]


def _prepare(cluster, telemetry=None):
    collective = get("ring")
    options = collective.options_cls.from_kwargs(telemetry=telemetry)
    return collective.prepare(cluster, options)


def test_context_manager_closes():
    with _prepare(_cluster()) as session:
        session.allreduce(_tensors())
    assert session.closed
    with pytest.raises(RuntimeError, match="closed"):
        session.allreduce(_tensors())


def test_close_is_idempotent():
    session = _prepare(_cluster())
    session.close()
    session.close()
    assert session.closed


def test_closed_session_rejects_every_surface():
    session = _prepare(_cluster())
    session.close()
    for call in (
        lambda: session.allreduce(_tensors()),
        lambda: session.allgather(_tensors()),
        lambda: session.broadcast(_tensors()[0]),
        lambda: session.submit(_tensors()),
        lambda: session.submit_allgather(_tensors()),
        lambda: session.submit_broadcast(_tensors()[0]),
    ):
        with pytest.raises(RuntimeError, match="closed"):
            call()


def test_close_detaches_owned_telemetry():
    cluster = _cluster()
    telemetry = Telemetry(TelemetryConfig(record_packets=False))
    session = _prepare(cluster, telemetry=telemetry)
    assert telemetry.attached(cluster)
    session.close()
    assert not telemetry.attached(cluster)


def test_close_keeps_preexisting_attachment():
    """A fleet-level telemetry attached before the session outlives it."""
    cluster = _cluster()
    telemetry = Telemetry(TelemetryConfig(record_packets=False))
    telemetry.attach(cluster)
    session = _prepare(cluster, telemetry=telemetry)
    session.close()
    assert telemetry.attached(cluster)
    telemetry.detach(cluster)
    assert not telemetry.attached(cluster)


def test_close_keeps_recorded_history():
    cluster = _cluster()
    telemetry = Telemetry(TelemetryConfig(record_packets=False))
    session = _prepare(cluster, telemetry=telemetry)
    session.allreduce(_tensors())
    recorded = len(telemetry.tracer.events)
    session.close()
    assert recorded > 0
    assert len(telemetry.tracer.events) == recorded


def test_detach_is_deterministic_and_idempotent():
    cluster = _cluster()
    telemetry = Telemetry()
    telemetry.attach(cluster)
    telemetry.attach(cluster)  # second attach is a no-op
    telemetry.detach(cluster)
    assert not telemetry.attached(cluster)
    telemetry.detach(cluster)  # second detach is a no-op
    assert cluster.telemetry is None


def test_exception_exit_still_closes():
    session = _prepare(_cluster())
    with pytest.raises(ValueError, match="boom"):
        with session:
            raise ValueError("boom")
    assert session.closed


def _after_first_session(telemetry):
    """A lossy cluster after one closed session, and the kernel events
    of a plain run that follows it."""
    cluster = Cluster(
        ClusterSpec(workers=4, aggregators=4, transport="dpdk"),
        faults=FaultPlan(loss=BernoulliLoss(0.02, np.random.default_rng(5))),
    )
    tensors = _tensors(workers=4, elements=2048)
    with prepare("omnireduce", cluster, OmniReduceOptions(telemetry=telemetry)) as s:
        s.allreduce(tensors)
    before = events_total()
    with prepare("omnireduce", cluster, OmniReduceOptions()) as s:
        s.allreduce(tensors)
    return cluster, events_total() - before


def test_closed_telemetry_session_leaves_packet_path_untouched():
    """Once its session closes, telemetry costs the network no events:
    a later run drops packets exactly as if no session ever traced it."""
    cluster, traced_first = _after_first_session(Telemetry())
    _, plain_first = _after_first_session(None)
    assert traced_first == plain_first
    assert cluster.network.observers == []
