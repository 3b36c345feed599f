"""Discrete-event simulation kernel.

The kernel executes *processes* (generator coroutines) against a virtual
clock.  A process performs simulated work by yielding :class:`Event`
objects; the kernel resumes the generator when the event fires and sends
the event's value back into the generator.

Three event flavours cover everything the protocol code needs:

* :class:`Timeout` -- fires after a fixed simulated delay.
* :class:`Signal` -- fired manually by other code (one-shot rendezvous).
* :class:`Queue` -- a FIFO mailbox; ``queue.get()`` returns an event that
  fires when an item is available.

In addition the simulator exposes raw cancellable callbacks
(:meth:`Simulator.call_at` / :meth:`Simulator.cancel`) which the
loss-recovery code uses for retransmission timers.

The design follows the "explicit is better than implicit" rule: no global
simulator instance exists; every component receives the simulator object
it belongs to.

Performance notes (see docs/performance.md for measurements)
------------------------------------------------------------

The event loop is the single hottest code path of every experiment --
millions of scheduled callbacks per data point -- so its representation
is chosen for CPython speed:

* Heap entries are plain ``[time, seq, fn, args]`` lists.  ``heapq``
  then compares entries with the C implementation of list comparison
  (floats, then the unique sequence number, never reaching ``fn``),
  instead of calling back into a Python ``__lt__``.  Lists rather than
  tuples because cancellation mutates ``entry[2]`` in place.
* Cancelled entries are tombstoned (``fn = None``) and skipped on pop;
  when tombstones outnumber live heap entries the heap is compacted in
  one C-speed ``heapify`` pass, so heavy retransmit-timer churn cannot
  grow the heap without bound.
* Same-time callbacks (event triggers, queue hand-offs, process starts)
  bypass the heap entirely: they are appended to a FIFO ready deque and
  interleaved with heap entries by sequence number, preserving the
  global (time, seq) execution order exactly while skipping the
  ``heappush``/``heappop`` sift cost.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional, Tuple

__all__ = [
    "Event",
    "Timeout",
    "Signal",
    "AllOf",
    "Queue",
    "Process",
    "Simulator",
    "SimulationError",
    "DeadlockError",
    "Interrupt",
    "events_total",
]

#: Type of a process body: a generator that yields events.
ProcessBody = Generator["Event", Any, Any]

#: A scheduled-callback handle: ``[time, seq, fn, args]``.  Opaque to
#: callers; pass it back to :meth:`Simulator.cancel`.
ScheduledHandle = List[Any]


class SimulationError(RuntimeError):
    """Base class for errors raised by the simulation kernel."""


class DeadlockError(SimulationError):
    """Raised by :meth:`Simulator.run` when processes remain blocked but
    no future event can unblock them."""


class Interrupt(SimulationError):
    """Thrown *into* a process by :meth:`Process.interrupt`.

    Fault injection uses this to kill simulated components mid-protocol
    (an aggregator crash takes its slot processes down with it).  A
    process may catch the interrupt to clean up -- ``try/finally`` around
    the protocol loop is the usual shape -- or let it propagate, which
    terminates the process with a return value of ``None``.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event moves through three states: pending -> triggered -> processed.
    Waiters registered before the trigger are resumed with the event's
    value; registering after the trigger resumes the waiter immediately
    (at the current simulated time).
    """

    __slots__ = ("sim", "_value", "_triggered", "_callbacks")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._value: Any = None
        self._triggered = False
        # Lazily allocated: most events in a run are mailbox gets with
        # at most one waiter, and events that trigger before anyone
        # waits never allocate a list at all.
        self._callbacks: Optional[List[Callable[["Event"], None]]] = None

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event, scheduling all waiters at the current time."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._value = value
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = None
            call_soon = self.sim._call_soon
            for callback in callbacks:
                call_soon(callback, self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self._triggered:
            self.sim._call_soon(callback, self)
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)


class Timeout(Event):
    """Event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        sim.call_at(sim.now + delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        self.succeed(value)


class Signal(Event):
    """A manually-triggered one-shot event (a rendezvous point)."""

    __slots__ = ()


class AllOf(Event):
    """Event that fires once all of the given events have fired.

    The value is the list of the child events' values, in input order.
    An empty input fires immediately.
    """

    __slots__ = ("_pending", "_children")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._children = list(events)
        self._pending = len(self._children)
        if self._pending == 0:
            self.succeed([])
            return
        for event in self._children:
            event.add_callback(self._child_fired)

    def _child_fired(self, _event: Event) -> None:
        self._pending -= 1
        if self._pending == 0:
            self.succeed([child.value for child in self._children])


class Queue:
    """Unbounded FIFO mailbox connecting simulated components.

    ``put`` never blocks.  ``get`` returns an :class:`Event` that fires
    with the oldest item as soon as one is available (immediately if the
    queue is non-empty).
    """

    __slots__ = ("sim", "_items", "_getters", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``, waking the oldest waiting getter if any."""
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        event = Event(self.sim)
        items = self._items
        if items:
            # Inlined :meth:`Event.succeed` on a fresh event (no
            # waiters can exist yet, so there is nothing to schedule).
            event._triggered = True
            event._value = items.popleft()
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            return True, self._items.popleft()
        return False, None


class Process(Event):
    """A running generator coroutine.

    A process is itself an event that fires with the generator's return
    value when the generator finishes, so processes can wait on other
    processes.
    """

    __slots__ = ("body", "name", "_interrupting")

    def __init__(self, sim: "Simulator", body: ProcessBody, name: str = "") -> None:
        super().__init__(sim)
        self.body = body
        self.name = name or getattr(body, "__name__", "process")
        self._interrupting = False
        sim._call_soon(self._resume, _INIT)

    def _resume(self, event_or_init: Any) -> None:
        if self._triggered:
            # Stale wakeup: the process was interrupted (or finished)
            # while this callback sat in the heap -- e.g. a mailbox item
            # delivered to a getter of a crashed component.  The item is
            # silently consumed, modelling a dead host eating the packet.
            return
        if event_or_init is _INIT:
            send_value = None
        else:
            # Direct slot read: resume callbacks only ever run on
            # triggered events, so the property's guard is redundant.
            send_value = event_or_init._value
        try:
            target = self.body.send(send_value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"
            )
        target.add_callback(self._resume)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        No-op on a process that already finished (or is already being
        interrupted), so fault injectors need not track liveness.  Any
        event the process was waiting on is left in place; when it later
        fires, the wakeup is discarded by the ``_triggered`` guard in
        :meth:`_resume`.
        """
        if self._triggered or self._interrupting:
            return
        self._interrupting = True
        self.sim._call_soon(self._throw, cause)

    def _throw(self, cause: Any) -> None:
        if self._triggered:
            return
        try:
            target = self.body.throw(Interrupt(cause))
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            self.succeed(None)
            return
        # The process caught the interrupt and yielded a new event:
        # it keeps running (cleanup protocols may do this).
        self._interrupting = False
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"
            )
        target.add_callback(self._resume)


class _InitSentinel:
    pass


_INIT = _InitSentinel()

#: Compact the heap only once tombstones could plausibly dominate; below
#: this size a rebuild costs more than the dead entries ever will.
_COMPACT_MIN_DEAD = 64

#: Process-wide count of executed simulation events, aggregated at
#: :meth:`Simulator.run` boundaries (see :func:`events_total`).
_events_total = 0


def events_total() -> int:
    """Total simulation events executed in this process.

    The counter aggregates every :class:`Simulator`'s executed events
    when its :meth:`Simulator.run` returns, so perfledger's workloads can
    count the events of an operation that creates many simulators.
    """
    return _events_total


class Simulator:
    """The event loop: a virtual clock plus a priority queue of callbacks.

    Scheduled callbacks live in two structures sharing one sequence-number
    space: a binary heap for future times and a FIFO deque (``_ready``)
    for callbacks at the current time.  :meth:`run` always executes the
    globally smallest ``(time, seq)`` entry, so the split is invisible to
    protocol code -- it exists purely to keep same-time wakeups (the
    overwhelmingly common case: packet hand-offs, event triggers) off the
    heap.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[ScheduledHandle] = []
        self._ready: Deque[ScheduledHandle] = deque()
        self._seq = itertools.count()
        self._live_callbacks = 0
        self._dead = 0
        self._step_observers: List[Callable[[float], None]] = []
        self.events_executed = 0
        self._events_reported = 0

    # -- observation -------------------------------------------------------

    def add_step_observer(self, fn: Callable[[float], None]) -> None:
        """Register ``fn(now)`` to be called before every executed step.

        The conformance harness uses this to watch the virtual clock
        itself (monotonicity, finiteness) rather than trusting the
        packet trace's timestamps.  Observers are free because the hot
        loop skips the dispatch entirely when none are registered.
        """
        self._step_observers.append(fn)

    def remove_step_observer(self, fn: Callable[[float], None]) -> None:
        self._step_observers.remove(fn)

    # -- scheduling primitives -------------------------------------------

    def call_at(self, time: float, fn: Callable[..., None], *args: Any) -> ScheduledHandle:
        """Schedule ``fn(*args)`` at absolute simulated ``time``.

        Returns a handle usable with :meth:`cancel`.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now={self.now}"
            )
        entry: ScheduledHandle = [time, next(self._seq), fn, args]
        if time == self.now:
            self._ready.append(entry)
        else:
            heapq.heappush(self._heap, entry)
        self._live_callbacks += 1
        return entry

    def call_after(self, delay: float, fn: Callable[..., None], *args: Any) -> ScheduledHandle:
        """Schedule ``fn(*args)`` after a relative simulated ``delay``."""
        return self.call_at(self.now + delay, fn, *args)

    def _call_soon(self, fn: Callable[..., None], *args: Any) -> ScheduledHandle:
        """Immediate-wakeup fast path: schedule ``fn(*args)`` at ``now``.

        Equivalent to ``call_at(self.now, fn, *args)`` -- same sequence
        space, same FIFO tie-breaking -- but skips the past-check and the
        heap routing.  Event triggers and process starts funnel through
        here, which is the hottest scheduling call in any run.
        """
        entry: ScheduledHandle = [self.now, next(self._seq), fn, args]
        self._ready.append(entry)
        self._live_callbacks += 1
        return entry

    def cancel(self, handle: ScheduledHandle) -> None:
        """Cancel a scheduled callback (safe to call after it fired).

        Cancellation tombstones the entry in place; the tombstone is
        dropped when it surfaces at the heap top, or eagerly when dead
        entries outnumber live ones (:meth:`_compact`), so repeated
        arm/cancel cycles -- retransmission timers under churn -- keep
        the heap size proportional to *live* timers only.
        """
        if handle[2] is not None:
            handle[2] = None
            handle[3] = ()
            self._live_callbacks -= 1
            self._dead += 1
            if self._dead > _COMPACT_MIN_DEAD and self._dead * 2 > len(self._heap):
                self._compact()

    def _compact(self) -> None:
        """Drop tombstoned entries and re-heapify (one C pass).

        Mutates the heap list in place: the main loop holds aliases to
        ``self._heap``, which must stay valid across a compaction
        triggered by a cancel inside a running callback.
        """
        self._heap[:] = [entry for entry in self._heap if entry[2] is not None]
        heapq.heapify(self._heap)
        # Tombstones may also sit in the ready deque; they drain within
        # the current timestep, so only the heap needs rebuilding.
        self._dead = 0

    # -- event construction helpers --------------------------------------

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def signal(self) -> Signal:
        return Signal(self)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def queue(self, name: str = "") -> Queue:
        return Queue(self, name)

    def spawn(self, body: ProcessBody, name: str = "") -> Process:
        """Start a new process executing the generator ``body``."""
        return Process(self, body, name)

    # -- main loop --------------------------------------------------------

    def run(self, until: Optional[Event] = None, max_time: float = float("inf")) -> Any:
        """Run until ``until`` fires, the clock passes ``max_time``, or the
        event heap drains.

        Returns ``until.value`` when ``until`` is given and fired.  Raises
        :class:`DeadlockError` if ``until`` is given but can never fire.
        """
        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        # Observer registration mutates this same list object, so a
        # mid-run ``add_step_observer`` is still seen by the bound local.
        step_observers = self._step_observers
        # Local clock mirror: only this loop ever advances ``self.now``,
        # so the mirror stays exact while saving an attribute load per
        # event in the comparisons below.
        now = self.now
        try:
            while True:
                if until is not None and until._triggered:
                    return until.value
                if (not heap and not ready) or self._live_callbacks == 0:
                    if until is not None and not until._triggered:
                        raise DeadlockError(
                            f"simulation drained at t={self.now} before target event fired"
                        )
                    return None
                if ready:
                    if now > max_time:
                        return None
                elif heap[0][0] > max_time:
                    return None
                # Execute the globally smallest ``(time, seq)`` entry.
                # Ready entries are always at the current time, so the
                # heap only wins a tie-break when it holds an entry
                # scheduled at ``now`` before the ready one was.  This
                # loop runs once per simulation event, millions of times
                # per experiment.
                while True:
                    while heap and heap[0][2] is None:
                        heappop(heap)
                        if self._dead:
                            self._dead -= 1
                    if ready:
                        if heap and heap[0][0] == now and heap[0][1] < ready[0][1]:
                            entry = heappop(heap)
                        else:
                            entry = ready.popleft()
                            if entry[2] is None:  # cancelled same-time callback
                                if self._dead:
                                    self._dead -= 1
                                continue
                    elif heap:
                        entry = heappop(heap)
                    else:
                        break
                    time, _seq, fn, args = entry
                    self._live_callbacks -= 1
                    now = time
                    self.now = time
                    self.events_executed += 1
                    if step_observers:
                        for observer in step_observers:
                            observer(time)
                    entry[2] = None
                    entry[3] = ()
                    fn(*args)
                    break
        finally:
            self._flush_event_count()

    def _flush_event_count(self) -> None:
        """Fold this simulator's executed steps into the process total."""
        global _events_total
        delta = self.events_executed - self._events_reported
        if delta:
            self._events_reported = self.events_executed
            _events_total += delta
