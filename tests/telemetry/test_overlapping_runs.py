"""A blocking run never truncates another run still in flight.

A submitted OmniReduce run driven cooperatively and a short blocking
``allreduce`` on a second session share one cluster and one telemetry.
The blocking run's frame closes first; the in-flight run's ``stream``
spans must still end when its own workers finish, not be force-closed
at the blocking run's end.
"""

import numpy as np
import pytest

from repro.baselines import ALGORITHMS
from repro.netsim import Cluster, ClusterSpec
from repro.telemetry import Telemetry
from repro.telemetry.export import validate_chrome_trace
from repro.tensors import block_sparse_tensors

pytestmark = pytest.mark.telemetry

WORKERS = 4


def _stream_span_ends(tracer):
    """``(stream index, end timestamp)`` of every ``stream`` span,
    pairing B/E per track (tracks are ``<host>/w<worker>.s<stream>``)."""
    open_spans = {}
    ends = []
    for pid, ts, phase, track, name, _cat, _args in tracer.events:
        if phase == "B":
            open_spans.setdefault((pid, track), []).append(name)
        elif phase == "E" and open_spans[(pid, track)].pop() == "stream":
            ends.append((int(track.rsplit(".s", 1)[1]), ts))
    return ends


def test_blocking_run_leaves_in_flight_spans_open():
    tele = Telemetry()
    cluster = Cluster(
        ClusterSpec(
            workers=WORKERS, aggregators=4, bandwidth_gbps=10, transport="tcp"
        )
    )
    omnireduce = ALGORITHMS["omnireduce"]
    options = type(omnireduce.default_options())(telemetry=tele)
    in_flight = omnireduce.prepare(cluster, options)
    blocking = omnireduce.prepare(cluster, options)
    rng = np.random.default_rng(0)

    pending = in_flight.submit(
        block_sparse_tensors(WORKERS, 64 * 1024, 256, 0.5, rng=rng)
    )
    event = pending.event
    short = blocking.allreduce(
        block_sparse_tensors(WORKERS, 4096, 256, 0.5, rng=rng)
    )
    short_end = cluster.sim.now
    assert not event.triggered

    long = pending.wait()
    long_end = cluster.sim.now
    assert event.triggered and long_end > short_end

    assert validate_chrome_trace(tele.chrome_trace()) == []
    ends = _stream_span_ends(tele.tracer)
    short_streams = int(short.details["streams"])
    long_streams = int(long.details["streams"])
    assert len(ends) == WORKERS * (short_streams + long_streams)
    # Streams past the blocking run's count are the in-flight run's
    # alone: each of their spans ends at its own worker's finish, after
    # the blocking run closed and by the in-flight run's end.
    own = [ts for stream, ts in ends if stream >= short_streams]
    assert len(own) == WORKERS * (long_streams - short_streams) > 0
    assert min(own) > short_end
    assert max(own) <= long_end
