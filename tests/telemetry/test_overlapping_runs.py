"""A blocking run never truncates another run still in flight.

A submitted OmniReduce run driven cooperatively and a short blocking
``allreduce`` on a second session share one cluster and one telemetry.
The blocking run's frame closes first; the in-flight run's ``stream``
spans must still end when its own workers finish, not be force-closed
at the blocking run's end.  Each run's spans sit on its own trace
process, and the packets both runs send sit on the ``fabric`` process.
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
    """``(pid, stream index, end timestamp)`` of every ``stream`` span,
    pairing B/E per track (tracks are ``<host>/w<worker>.s<stream>``)."""
    open_spans = {}
    ends = []
    for pid, ts, phase, track, name, _cat, _args in tracer.events:
        if phase == "B":
            open_spans.setdefault((pid, track), []).append(name)
        elif phase == "E" and open_spans[(pid, track)].pop() == "stream":
            ends.append((pid, int(track.rsplit(".s", 1)[1]), ts))
    return ends


def _overlapping_runs():
    """Run the scenario; returns the telemetry, then each run's result
    and the virtual time its frame closed, short run first."""
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
    return tele, short, short_end, long, long_end


def test_blocking_run_leaves_in_flight_spans_open():
    tele, short, short_end, long, long_end = _overlapping_runs()
    assert validate_chrome_trace(tele.chrome_trace()) == []
    ends = _stream_span_ends(tele.tracer)
    short_streams = int(short.details["streams"])
    long_streams = int(long.details["streams"])
    assert len(ends) == WORKERS * (short_streams + long_streams)
    # Streams past the blocking run's count are the in-flight run's
    # alone: each of their spans ends at its own worker's finish, after
    # the blocking run closed and by the in-flight run's end.
    own = [ts for _pid, stream, ts in ends if stream >= short_streams]
    assert len(own) == WORKERS * (long_streams - short_streams) > 0
    assert min(own) > short_end
    assert max(own) <= long_end


def test_each_run_keeps_its_own_spans_and_packets_sit_on_fabric():
    tele, short, _short_end, long, _long_end = _overlapping_runs()
    in_flight_pid, blocking_pid = sorted(tele.run_labels)
    ends = _stream_span_ends(tele.tracer)
    pids = [pid for pid, _stream, _ts in ends]
    short_streams = int(short.details["streams"])
    long_streams = int(long.details["streams"])
    assert pids.count(in_flight_pid) == WORKERS * long_streams
    assert pids.count(blocking_pid) == WORKERS * short_streams
    # Streams only the in-flight run has are on its process alone.
    assert {
        pid for pid, stream, _ts in ends if stream >= short_streams
    } == {in_flight_pid}

    packets = [e for e in tele.tracer.events if e[5] == "packet"]
    assert packets and {e[0] for e in packets} == {0}
    names = {
        e["pid"]: e["args"]["name"]
        for e in tele.chrome_trace()["traceEvents"]
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert names[0] == "fabric"
    assert names[in_flight_pid] == names[blocking_pid] == "omnireduce"
