"""Deferred collective execution: one engine, two drive modes.

Every engine in this repo used to end the same way: spawn the worker
processes, then *drive the simulator itself* until they all finish::

    processes = [sim.spawn(worker_proc(w)) for w in range(workers)]
    sim.run(until=sim.all_of(processes))
    return run.finish(outputs, ...)

That tail owns the clock, so only one collective can be in flight per
simulator -- a single-tenant assumption the multi-job service cannot
live with.  :class:`PendingCollective` splits the tail into data:

* ``waits`` -- a generator function yielding the events the engine must
  wait for, in order.  Any end-of-run cleanup (cancelling fault timers,
  disarming deadlines) happens *inside* the generator, after its last
  ``yield``, so it runs at the same virtual instant in both modes.
* ``finalize`` -- a closure assembling the
  :class:`~repro.core.collective.CollectiveResult` once every wait has
  fired.

Two drive modes consume that data:

* :meth:`wait` replays the legacy tail exactly -- ``sim.run(until=ev)``
  for each yielded event, then ``finalize()``.  The kernel executes the
  identical operation sequence as the old inline code, so synchronous
  results are bit-identical, counter-identical and event-count
  identical.
* :meth:`start` spawns a *control process* that performs the same waits
  cooperatively, yielding the clock to other in-flight collectives
  between events.  This is what the multi-job scheduler uses.

A pending is single-consumer: exactly one of ``wait()``, ``start()``
(or the auto-starting :attr:`event`) or ``steps()`` may claim it.

:class:`PendingResult` is the one way a recorded collective runs: it
opens a telemetry frame, calls the engine's ``begin`` and hands back
the pending.  Every synchronous entry point (``Session.allreduce``,
``OmniReduce.allreduce``, ``HierarchicalAllReduce.allreduce``) is
``PendingResult(...).wait()``; ``Session.submit`` returns the handle
unwaited.  Engines' ``begin`` methods never record, so one operation
opens exactly one frame however it was driven.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterator, List, Optional

__all__ = ["PendingCollective", "PendingResult"]


class PendingCollective:
    """A collective operation whose simulator time has not elapsed yet.

    Parameters
    ----------
    sim:
        The :class:`~repro.netsim.kernel.Simulator` the engine spawned
        its processes on.
    waits:
        Zero-argument generator function yielding the events to wait
        for, in order.  Called at most once.
    finalize:
        Zero-argument closure producing the result after the last wait
        fires.  Called at most once; its value is cached.
    """

    def __init__(
        self,
        sim,
        waits: Callable[[], Iterator[Any]],
        finalize: Callable[[], Any],
        name: str = "collective",
    ) -> None:
        self._sim = sim
        self._waits_fn = waits
        self._finalize = finalize
        self.name = name
        self._mode: Optional[str] = None  # None | "wait" | "start" | "steps"
        self._process = None  # control Process when started
        self._done_event = None  # pre-triggered Event for completed()
        self._finalized = False
        self._result: Any = None
        self._transforms: List[Callable[[Any], Any]] = []

    # -- construction helpers ------------------------------------------------

    @classmethod
    def completed(cls, sim, result: Any, name: str = "collective") -> "PendingCollective":
        """A pending that is already done (degenerate fast paths such as
        ``workers == 1`` finalize at begin time, matching the legacy
        immediate return)."""
        pending = cls(sim, waits=lambda: iter(()), finalize=lambda: result, name=name)
        pending._finalized = True
        pending._result = result
        return pending

    # -- internal ------------------------------------------------------------

    def _claim(self, mode: str) -> None:
        if self._mode is not None and self._mode != mode:
            raise RuntimeError(
                f"pending collective {self.name!r} already consumed via "
                f"{self._mode}(); it is single-use"
            )
        self._mode = mode

    def _finalize_once(self) -> Any:
        if not self._finalized:
            result = self._finalize()
            for fn in self._transforms:
                result = fn(result)
            self._result = result
            self._finalized = True
        return self._result

    # -- drive modes ---------------------------------------------------------

    def wait(self) -> Any:
        """Drive the simulator to completion and return the result.

        Replays the legacy blocking tail: the exact same ``sim.run``
        calls the engines used to make inline, so the kernel's event
        order -- and therefore every counter and output bit -- is
        unchanged.
        """
        if self._finalized:
            return self._result
        if self._mode == "start":
            # Already running cooperatively; just drive until the
            # control process completes.
            self._sim.run(until=self._process)
            return self._finalize_once() if not self._finalized else self._result
        self._claim("wait")
        for event in self._waits_fn():
            self._sim.run(until=event)
        return self._finalize_once()

    def start(self) -> "PendingCollective":
        """Begin executing cooperatively; returns ``self``.

        Spawns a control process that performs the waits by yielding to
        the kernel, so other processes (and other collectives) run in
        between.  The caller drives the clock -- via
        :meth:`Simulator.run`, another pending's :meth:`wait`, or a
        scheduler loop -- and observes completion via :attr:`event`.
        """
        if self._finalized or self._mode == "start":
            return self
        self._claim("start")

        def _control():
            yield from self._waits_fn()
            return self._finalize_once()

        self._process = self._sim.spawn(_control(), name=f"pending:{self.name}")
        return self

    def steps(self) -> Generator[Any, None, Any]:
        """The waits as a generator for embedding in another process.

        A composite engine (e.g. parallax racing two sub-collectives)
        does ``result = yield from pending.steps()`` inside its own
        waits generator, chaining sub-collectives without an extra
        control process.
        """
        if self._finalized:
            return self._result
        self._claim("steps")
        yield from self._waits_fn()
        return self._finalize_once()

    # -- observation ---------------------------------------------------------

    @property
    def event(self):
        """An :class:`~repro.netsim.kernel.Event` that fires (with the
        result as its value) when the collective completes.  Accessing
        it on an idle pending starts cooperative execution."""
        if self._finalized:
            if self._done_event is None:
                self._done_event = self._sim.signal()
                self._done_event.succeed(self._result)
            return self._done_event
        if self._mode != "start":
            self.start()
        return self._process

    @property
    def done(self) -> bool:
        return self._finalized

    def result(self) -> Any:
        """The finished result; raises if the collective is still in flight."""
        if not self._finalized:
            raise RuntimeError(
                f"pending collective {self.name!r} has not completed; "
                "call wait() or drive the simulator until .event fires"
            )
        return self._result

    def map(self, fn: Callable[[Any], Any]) -> "PendingCollective":
        """Apply ``fn`` to the result at finalize time; returns ``self``.

        Lets thin wrappers (switchml stamping its algorithm label)
        decorate results without re-implementing the drive modes.  Must
        be called before the pending finalizes.
        """
        if self._finalized:
            self._result = fn(self._result)
        else:
            self._transforms.append(fn)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._finalized else (self._mode or "idle")
        return f"<PendingCollective {self.name!r} {state}>"


class PendingResult:
    """One collective recorded as one telemetry frame.

    The constructor opens the frame (when ``telemetry`` is given), calls
    ``begin()`` for the engine's :class:`PendingCollective` and closes
    the frame again if ``begin`` raises.  The components ``begin()``
    builds take the frame's recorder (``telemetry.recorder``, set by
    the frame's opening), so they record into this run's own trace
    process.  Two ways to consume it:

    * ``wait()`` -- drive the simulator to completion and return the
      :class:`~repro.core.collective.CollectiveResult`.
    * ``event`` -- a kernel event firing (with the result as its value)
      when the operation completes; accessing it switches the operation
      to cooperative execution, letting other in-flight collectives
      share the clock.  The caller (e.g. the multi-job service) then
      drives the simulator however it likes.

    Either way the frame closes when the operation finishes, and
    closing it force-closes this run's leftover spans and no others.
    """

    def __init__(
        self,
        telemetry,
        algorithm: str,
        cluster,
        begin: Callable[[], PendingCollective],
        features=None,
    ) -> None:
        self._telemetry = telemetry
        self._frame = None
        if telemetry is not None:
            self._frame = telemetry.collective_open(
                algorithm, cluster, features=features
            )
        try:
            self._pending = begin()
        except BaseException:
            if telemetry is not None:
                telemetry.collective_close(self._frame)
            raise
        self._hooked = False

    def _close_frame(self, result) -> None:
        if self._frame is not None:
            self._telemetry.collective_close(self._frame, result)

    @property
    def done(self) -> bool:
        return self._pending.done

    @property
    def event(self):
        """Completion event; starts cooperative execution if idle."""
        ev = self._pending.event
        if not self._hooked:
            self._hooked = True
            if self._frame is not None:
                ev.add_callback(lambda fired: self._close_frame(fired.value))
        return ev

    def wait(self) -> Any:
        """Block (in virtual time) until completion; returns the result."""
        result = self._pending.wait()
        self._close_frame(result)
        return result

    def result(self) -> Any:
        """The finished result; raises if still in flight."""
        return self._pending.result()

    def map(self, fn: Callable[[Any], Any]) -> "PendingResult":
        """Apply ``fn`` to the result at completion; returns ``self``."""
        self._pending.map(fn)
        return self
