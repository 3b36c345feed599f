"""Periodic time-series sampling over a running simulation.

Samplers are plain callables registered through
:meth:`~repro.netsim.kernel.Simulator.add_step_observer`; the kernel
invokes them with the current virtual time before every event.  Each
sampler keeps a ``next sample`` deadline and returns immediately when
the clock has not reached it, so a coarse ``interval_s`` keeps the
per-event cost to one float comparison.

Samples are recorded as counter events on the active
:class:`~repro.telemetry.spans.SpanTracer`; the Chrome trace export
renders them as stacked counter tracks (per-link utilization, queue
depth, shared-pipe occupancy) under the same virtual-time axis as
spans and packets.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["LinkUtilizationSampler"]

#: A port mailbox's item deque: ``len`` of it is the mailbox depth,
#: read in C instead of through one ``Queue.__len__`` frame per port.
_MAILBOX_ITEMS = attrgetter("_items")


class LinkUtilizationSampler:
    """Samples per-host egress utilization and mailbox queue depth.

    Utilization over an interval is the fraction of NIC capacity the
    host's egress actually used::

        (bytes_sent_delta * 8 / bandwidth_bps) / interval

    Queue depth is the total number of packets parked in the host's
    port mailboxes -- delivered by the network but not yet consumed by
    the protocol process, i.e. receiver-side backlog.

    Track names carry placement when the fabric has any: on a tiered
    topology (anything exposing ``rack_of``) host tracks are
    ``link/rack-<r>/<host>`` so the trace viewer groups co-racked NICs
    together; on a flat fabric they stay ``link/<host>``.  Tiered
    topologies additionally expose their shared pipes through
    ``pipe_segments()``; each becomes a ``fabric/<tier>/<segment>``
    track sampling busy-time utilization and queueing backlog (in
    microseconds) -- the oversubscribed stages a per-host view cannot
    see.
    """

    def __init__(self, cluster, recorder, interval_s: float) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.cluster = cluster
        self.recorder = recorder
        self.interval_s = interval_s
        self._next_s = cluster.sim.now + interval_s
        self._last_s = cluster.sim.now
        self._last_bytes = dict(cluster.stats.bytes_sent)
        self._last_pipe_busy: dict = {}
        topology = getattr(cluster.network, "topology", None)
        self._rack_of = getattr(topology, "rack_of", None)
        self._pipe_segments = getattr(topology, "pipe_segments", None)
        self._tracks: dict = {}

    def _track(self, name: str) -> str:
        """Placement-labeled track for ``name`` (cached: racks are fixed)."""
        track = self._tracks.get(name)
        if track is None:
            track = f"link/{name}"
            if self._rack_of is not None:
                try:
                    track = f"link/rack-{self._rack_of(name)}/{name}"
                except KeyError:
                    pass
            self._tracks[name] = track
        return track

    def __call__(self, now: float) -> None:
        if now < self._next_s:
            return
        rec = self.recorder
        elapsed = now - self._last_s
        stats = self.cluster.stats
        network = self.cluster.network
        for name, host in list(network.hosts.items()):
            sent = stats.bytes_sent.get(name, 0)
            delta = sent - self._last_bytes.get(name, 0)
            self._last_bytes[name] = sent
            util = (delta * 8.0 / host.bandwidth_bps) / elapsed if elapsed > 0 else 0.0
            # Port tables only grow (a fleet run ends with hundreds of
            # ports per host), so this sum is the sampler's per-tick cost.
            depth = sum(map(len, map(_MAILBOX_ITEMS, host._ports.values())))
            track = self._track(name)
            rec.counter(now, track, "utilization", round(util, 6))
            rec.counter(now, track, "queue_depth", depth)
        if self._pipe_segments is not None and elapsed > 0:
            for tier, segment, pipe in self._pipe_segments():
                key = f"{tier}:{segment}"
                busy = pipe.busy_s
                delta_busy = busy - self._last_pipe_busy.get(key, 0.0)
                self._last_pipe_busy[key] = busy
                track = f"fabric/{tier}/{segment}"
                rec.counter(
                    now, track, "utilization", round(delta_busy / elapsed, 6)
                )
                rec.counter(
                    now, track, "backlog_us",
                    round(pipe.backlog_s(now) * 1e6, 3),
                )
        self._last_s = now
        # Skip ahead past any idle gap instead of sampling every missed
        # interval at once.
        self._next_s = now + self.interval_s
