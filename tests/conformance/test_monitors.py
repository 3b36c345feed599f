"""Invariant monitors, driven with synthetic event streams.

Monitors are checked in isolation here -- each gets a hand-built packet
sequence that either honours or breaks its invariant -- so that a
monitor bug cannot hide behind a healthy protocol (the sweeps in
test_runner.py only ever show monitors passing traffic).
"""

import numpy as np

from repro.conformance import (
    AtMostOnceDeliveryMonitor,
    ClockMonotonicityMonitor,
    NoZeroBlockMonitor,
    PacketConservationMonitor,
    RetransmitBackoffMonitor,
    default_monitors,
)
from repro.core.messages import LaneEntry, WorkerPacket
from repro.netsim.packet import Packet


def _packet(payload=None, src="worker-0", dst="agg-0", port="p", flow="f"):
    return Packet(src=src, dst=dst, payload=payload, size_bytes=64, port=port, flow=flow)


def _worker_packet(data):
    return WorkerPacket(
        worker_id=0,
        stream=0,
        version=0,
        lanes=[LaneEntry(lane=0, block=0, next_block=1, data=data)],
    )


# -- clock -----------------------------------------------------------------


def test_clock_monitor_accepts_monotone_steps():
    m = ClockMonotonicityMonitor()
    for t in (0.0, 0.0, 1e-6, 2e-6):
        m.on_step(t)
    assert m.finish() == []


def test_clock_monitor_flags_backwards_and_nonfinite_time():
    m = ClockMonotonicityMonitor()
    m.on_step(1e-3)
    m.on_step(0.5e-3)
    m.on_step(float("nan"))
    messages = [v.message for v in m.finish()]
    assert any("backwards" in msg for msg in messages)
    assert any("non-finite" in msg for msg in messages)


def test_clock_monitor_flags_backwards_trace_events():
    m = ClockMonotonicityMonitor()
    p = _packet()
    m.observe(2e-6, "sent", p)
    m.observe(1e-6, "delivered", p)
    assert len(m.finish()) == 1


# -- conservation ----------------------------------------------------------


def test_conservation_balanced_flow_passes():
    m = PacketConservationMonitor()
    a, b = _packet(), _packet()
    m.observe(0.0, "sent", a)
    m.observe(0.0, "sent", b)
    m.observe(1e-6, "delivered", a)
    m.observe(1e-6, "dropped", b)
    assert m.finish() == []


def test_conservation_flags_lost_packet():
    m = PacketConservationMonitor()
    m.observe(0.0, "sent", _packet())
    violations = m.finish()
    assert len(violations) == 1 and "unaccounted" in violations[0].message


def test_conservation_flags_delivery_without_send():
    m = PacketConservationMonitor()
    p = _packet()
    m.observe(0.0, "sent", p)
    m.observe(1e-6, "delivered", p)
    m.observe(2e-6, "delivered", p)
    assert any("more times than it was sent" in v.message for v in m.violations)


# -- at-most-once ----------------------------------------------------------


def test_at_most_once_in_order_passes():
    m = AtMostOnceDeliveryMonitor()
    a, b = _packet(), _packet()
    for p in (a, b):
        m.observe(0.0, "sent", p)
    for p in (a, b):
        m.observe(1e-6, "delivered", p)
    assert m.finish() == []


def test_at_most_once_flags_duplicate_delivery():
    m = AtMostOnceDeliveryMonitor()
    p = _packet()
    m.observe(0.0, "sent", p)
    m.observe(1e-6, "delivered", p)
    m.observe(2e-6, "delivered", p)
    assert any("duplicate delivery" in v.message for v in m.finish())


def test_at_most_once_flags_reordering_on_channel():
    m = AtMostOnceDeliveryMonitor()
    a, b = _packet(), _packet()
    m.observe(0.0, "sent", a)
    m.observe(0.0, "sent", b)
    m.observe(1e-6, "delivered", b)
    m.observe(2e-6, "delivered", a)
    assert any("out-of-order" in v.message for v in m.finish())


def test_at_most_once_allows_reordering_across_channels():
    m = AtMostOnceDeliveryMonitor()
    a = _packet(port="p1")
    b = _packet(port="p2")
    m.observe(0.0, "sent", a)
    m.observe(0.0, "sent", b)
    m.observe(1e-6, "delivered", b)
    m.observe(2e-6, "delivered", a)
    assert m.finish() == []


# -- zero blocks -----------------------------------------------------------


def test_zero_block_monitor_passes_nonzero_and_metadata_lanes():
    m = NoZeroBlockMonitor()
    m.observe(0.0, "sent", _packet(_worker_packet(np.ones(4, dtype=np.float32))))
    m.observe(0.0, "sent", _packet(_worker_packet(None)))  # pure metadata
    m.observe(0.0, "sent", _packet(payload="not a worker packet"))
    assert m.finish() == []
    assert m.blocks_seen == 1


def test_zero_block_monitor_flags_all_zero_block():
    m = NoZeroBlockMonitor()
    m.observe(0.0, "sent", _packet(_worker_packet(np.zeros(4, dtype=np.float32))))
    violations = m.finish()
    assert len(violations) == 1
    assert "all-zero block" in violations[0].message


def test_zero_block_monitor_ignores_deliveries():
    m = NoZeroBlockMonitor()
    m.observe(0.0, "delivered", _packet(_worker_packet(np.zeros(4, dtype=np.float32))))
    assert m.finish() == []


# -- retransmit backoff ----------------------------------------------------


def test_backoff_accepts_exact_schedule():
    m = RetransmitBackoffMonitor(timeout_s=1e-3, backoff_factor=2.0, timeout_max_s=4e-3)
    p = _packet(_worker_packet(np.ones(2, dtype=np.float32)))
    t = 0.0
    m.observe(t, "sent", p)
    for gap in (1e-3, 2e-3, 4e-3, 4e-3):  # doubling, clamped at the max
        t += gap
        m.observe(t, "sent", p)
    assert m.finish() == []
    assert m.retransmissions_seen == 4


def test_backoff_flags_premature_retransmission():
    m = RetransmitBackoffMonitor(timeout_s=1e-3, backoff_factor=2.0)
    p = _packet(_worker_packet(np.ones(2, dtype=np.float32)))
    m.observe(0.0, "sent", p)
    m.observe(0.4e-3, "sent", p)
    assert any("should have waited" in v.message for v in m.finish())


def test_backoff_flags_escaped_clamp():
    m = RetransmitBackoffMonitor(timeout_s=1e-3, backoff_factor=2.0, timeout_max_s=2e-3)
    p = _packet(_worker_packet(np.ones(2, dtype=np.float32)))
    m.observe(0.0, "sent", p)
    m.observe(1e-3, "sent", p)  # first retx: ok
    m.observe(1e-3 + 3e-3, "sent", p)  # gap 3ms > clamp 2ms
    assert any("exceeds the backoff bound" in v.message for v in m.finish())


def test_backoff_distinguishes_fresh_payloads_from_retransmits():
    # A new round reuses the alternating version bit but builds a fresh
    # WorkerPacket; only resending the same object is a retransmission.
    m = RetransmitBackoffMonitor(timeout_s=1e-3)
    first = _packet(_worker_packet(np.ones(2, dtype=np.float32)))
    fresh = _packet(_worker_packet(np.ones(2, dtype=np.float32)))
    m.observe(0.0, "sent", first)
    m.observe(1e-7, "sent", fresh)  # immediately after: fine, different packet
    assert m.finish() == []
    assert m.retransmissions_seen == 0


# -- violation cap and default set ----------------------------------------


def test_violations_are_capped():
    m = NoZeroBlockMonitor()
    zero = _packet(_worker_packet(np.zeros(2, dtype=np.float32)))
    for _ in range(m.MAX_VIOLATIONS + 10):
        m.observe(0.0, "sent", zero)
    assert len(m.finish()) == m.MAX_VIOLATIONS


def test_default_monitors_composition():
    base = default_monitors(algorithm="ring")
    assert len(base) == 3
    omni = default_monitors(algorithm="omnireduce", zero_block_suppression=True)
    assert any(isinstance(m, NoZeroBlockMonitor) for m in omni)
    lossy = default_monitors(
        algorithm="omnireduce", zero_block_suppression=True, backoff=(1e-3, 2.0, 4e-3)
    )
    assert any(isinstance(m, RetransmitBackoffMonitor) for m in lossy)
