"""Property-based tests of the shared-pipe topology math.

The oversubscribed-fabric claim rests on :class:`_SharedPipe` being a
faithful store-and-forward stage and on its vectorized
``traverse_chain`` collapsing the exact scalar recurrence the packet
kernel books (``traverse``).  Hypothesis pins:

* ``traverse`` under arbitrary interleaved arrivals equals the
  sequential recurrence ``free = max(now, free) + size*8/rate``;
* ``traverse_chain`` equals a scalar ``traverse`` loop up to float
  reassociation noise, including the carried ``free_at`` state when
  chains from different messages interleave on one pipe;
* multi-stage fat-tree paths compose: booking a message's segments
  through ``traverse_core_chain`` (uplink, ECMP spine, downlink, each a
  vectorized chain) matches booking every segment through the scalar
  ``traverse_core``, across many interleaved cross-rack messages;
* completion times are monotonically non-increasing in pipe capacity,
  up to the collapse's derived rounding bound (``MONOTONE_ULPS``).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.netsim.topology import (
    FatTreeTopology,
    LeafSpineTopology,
    _SharedPipe,
    rack_map_for,
)

pytestmark = [pytest.mark.topology, pytest.mark.flowmode]

bookings = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.integers(min_value=1, max_value=10**6),
    ),
    min_size=1,
    max_size=50,
)


@given(items=bookings, rate=st.floats(min_value=1e9, max_value=1e11))
@settings(max_examples=80, deadline=None)
def test_property_traverse_matches_sequential_recurrence(items, rate):
    """Interleaved arrivals (arbitrary ``now`` order) fold exactly."""
    pipe = _SharedPipe(rate)
    free = 0.0
    for now, size in items:
        got = pipe.traverse(now, size)
        free = max(now, free) + size * 8.0 / rate
        assert got == free
        assert pipe.free_at == free


@given(
    items=bookings,
    rate=st.floats(min_value=1e9, max_value=1e11),
    splits=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=80, deadline=None)
def test_property_traverse_chain_matches_scalar_loop(items, rate, splits):
    """One pipe, several consecutive chains (messages): the vectorized
    collapse tracks the scalar recurrence within reassociation noise.
    The recurrence holds for *arbitrary* (even unsorted) ready times,
    so the interleaving is left unordered on purpose."""
    times = np.array([t for t, _ in items])
    sizes = np.array([s for _, s in items], dtype=np.float64)

    scalar = _SharedPipe(rate)
    expected = np.array([scalar.traverse(t, s) for t, s in items])

    chained = _SharedPipe(rate)
    bounds = np.linspace(0, len(items), splits + 1, dtype=int)
    got = np.concatenate(
        [
            chained.traverse_chain(times[lo:hi], sizes[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
            if hi > lo
        ]
    )
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-18)
    assert np.isclose(chained.free_at, scalar.free_at, rtol=1e-12)


@given(
    seed=st.integers(min_value=0, max_value=999),
    messages=st.integers(min_value=1, max_value=12),
    spines=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_property_fattree_chain_composes_like_scalar_walk(
    seed, messages, spines
):
    """Interleaved cross-rack messages through a three-tier fat tree:
    the per-message vectorized walk equals the per-segment scalar walk
    on a twin topology (same pipes, same booking order)."""
    rng = np.random.default_rng(seed)
    rack_of = rack_map_for(4, 2, 2)
    hosts = sorted(rack_of)

    def build():
        topo = FatTreeTopology(
            rack_size=2,
            uplink_gbps=5.0,
            spine_gbps=20.0,
            spines=spines,
            rack_of=rack_of,
        )
        for name in hosts:
            topo.register(name)
        return topo

    scalar, chained = build(), build()
    for _ in range(messages):
        src, dst = rng.choice(hosts, size=2, replace=False)
        nseg = int(rng.integers(1, 9))
        start = float(rng.uniform(0.0, 1e-3))
        times = start + np.sort(rng.uniform(0.0, 1e-4, size=nseg))
        sizes = rng.integers(64, 2048, size=nseg).astype(np.float64)
        expected = np.array(
            [
                scalar.traverse_core(float(t), src, dst, int(s))
                for t, s in zip(times, sizes)
            ]
        )
        got = chained.traverse_core_chain(times, src, dst, sizes)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-18)


@given(
    seed=st.integers(min_value=0, max_value=999),
    messages=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=40, deadline=None)
def test_property_leafspine_chain_composes_like_scalar_walk(seed, messages):
    rng = np.random.default_rng(seed)
    rack_of = rack_map_for(4, 2, 2)
    hosts = sorted(rack_of)

    def build():
        topo = LeafSpineTopology(rack_size=2, uplink_gbps=5.0, rack_of=rack_of)
        for name in hosts:
            topo.register(name)
        return topo

    scalar, chained = build(), build()
    for _ in range(messages):
        src, dst = rng.choice(hosts, size=2, replace=False)
        nseg = int(rng.integers(1, 9))
        times = float(rng.uniform(0, 1e-3)) + np.sort(
            rng.uniform(0.0, 1e-4, size=nseg)
        )
        sizes = rng.integers(64, 2048, size=nseg).astype(np.float64)
        expected = np.array(
            [
                scalar.traverse_core(float(t), src, dst, int(s))
                for t, s in zip(times, sizes)
            ]
        )
        got = chained.traverse_core_chain(times, src, dst, sizes)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-18)


#: Roundings per element of ``traverse_chain``'s collapse that can break
#: ordering in the rate.  ``durations`` (``size * (8/rate)``) and their
#: ``cumsum`` are correctly rounded monotone operations, so a fatter
#: pipe's are never larger.  The collapse then rounds three times:
#: ``prev = cum - dur``, ``max(t, free) - prev`` and ``base + cum``.  The
#: first subtracts two quantities that shrink together, so the chain of
#: three can land either side of the exact value, each by at most half
#: an ulp of a quantity no larger than the finish time.
COLLAPSE_ROUNDINGS = 3
#: The fast pipe can land high while the slow one lands low: two sides,
#: each ``COLLAPSE_ROUNDINGS`` half-ulps.  (Measured worst: 2 ulp, over
#: 180,000 random chains of 1-50 bookings and 3,000 of 50-3,000.)
MONOTONE_ULPS = 2 * COLLAPSE_ROUNDINGS * 0.5


@given(
    items=bookings,
    rate=st.floats(min_value=1e9, max_value=1e10),
    factor=st.floats(min_value=1.0, max_value=100.0),
)
# A fatter pipe by one ulp of capacity: the second finish time comes
# out one ulp *later* than the slow pipe's.
@example(items=[(0.19, 68004), (0.5, 85095)], rate=1e9, factor=1 + 2**-52)
@settings(max_examples=60, deadline=None)
def test_property_chain_monotone_in_capacity(items, rate, factor):
    """A fatter pipe never finishes any segment later -- exactly in
    real arithmetic, and within the collapse's rounding in floats."""
    items = sorted(items)
    times = np.array([t for t, _ in items])
    sizes = np.array([s for _, s in items], dtype=np.float64)
    slow = _SharedPipe(rate).traverse_chain(times, sizes)
    fast = _SharedPipe(rate * factor).traverse_chain(times, sizes)
    assert np.all(fast <= slow + MONOTONE_ULPS * np.spacing(slow))


def test_chain_empty_and_singleton():
    pipe = _SharedPipe(1e9)
    assert pipe.traverse_chain(np.array([]), np.array([])).size == 0
    assert pipe.free_at == 0.0
    got = pipe.traverse_chain(np.array([0.5]), np.array([1000.0]))
    assert got[0] == 0.5 + 1000.0 * 8.0 / 1e9
    assert pipe.free_at == got[0]
