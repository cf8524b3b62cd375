"""Discrete-event simulation kernel.

This module provides the event loop that every simulated component in the
reproduction (NICs, CPUs, links, storage processes) runs on.  The design
follows the classic process-interaction style popularised by SimPy: model
logic is written as Python generator functions ("processes") that ``yield``
events; the engine suspends the process until the event fires and resumes it
with the event's value.

Simulated time is kept in integer **nanoseconds** to avoid floating-point
drift when summing many small delays.  Helpers for converting between units
live in :mod:`repro.sim.units`.

Performance
-----------
The kernel is the hot loop under every figure, so its data structures are
deliberately lean (see docs/INTERNALS.md, "Kernel internals & performance
model"):

* every class carries ``__slots__`` — no per-object ``__dict__``;
* every scheduled occurrence is a plain ``(time, seq, kind, payload)``
  tuple.  ``seq`` is a global tie-breaker that preserves FIFO order at
  equal timestamps and guarantees comparisons never reach the payload;
* the schedule is one binary heap of those tuples (``heapq``);
* process bootstrap is scheduled as a zero-delay *direct resume*
  entry — no throwaway :class:`Event` is allocated;
* callbacks are stored inline: the common single-subscriber case (a
  process waiting on a ``timeout``) occupies one slot (``_cb1``) and
  never allocates a list; only a second subscriber spills to ``_cbs``.

A ``yield sim.timeout(d)`` round-trip therefore costs one ``Timeout``
object and one schedule tuple — no bootstrap events, no callback lists,
no bound-method allocations (processes cache ``self._resume``).

Hot model code can go further: a process may ``yield d`` with a bare
non-negative ``int`` to sleep ``d`` nanoseconds.  That schedules a
*direct resume* — one heap tuple, no event object at all.  The
resume value is ``None``; use :meth:`Simulator.timeout` when the value
or the event object itself matters (e.g. with ``any_of``).

Example
-------
>>> sim = Simulator()
>>> def hello(sim):
...     yield sim.timeout(1000)
...     return sim.now
>>> proc = sim.process(hello(sim))
>>> sim.run()
>>> proc.value
1000
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Simulator",
    "SimulationError",
    "ProcessGenerator",
]

#: The type of a model-process generator: yields Events, combinators, or
#: non-negative bare-delay ints; the kernel sends event values back in.
ProcessGenerator = Generator[Any, Any, Any]


class SimulationError(Exception):
    """Raised for misuse of the simulation API (double trigger, etc.)."""


PENDING = object()

# Heap-entry kinds.  Entries are (time, seq, kind, payload); seq is unique
# so tuple comparison never reaches kind or payload.
_KIND_EVENT = 0    # payload: Event — run its callbacks.
_KIND_CALL = 1     # payload: zero-arg callable (call_at).
_KIND_DELAY = 2    # payload: Process — resume with None (bootstrap, bare delay).

# "No deadline": beyond any plausible simulated time (≈292 years in ns).
_T_MAX = 2 ** 63

#: One scheduled occurrence: ``(time, seq, kind, payload)``.
_Entry = Tuple[int, int, int, Any]


class Event:
    """A happening at a point in simulated time.

    Events start *untriggered*.  Calling :meth:`succeed` or :meth:`fail`
    triggers them, which schedules their callbacks to run at the current
    simulation time.  A process that ``yield``\\ s an untriggered event is
    suspended until the event triggers.
    """

    __slots__ = ("sim", "_value", "_ok", "_cb1", "_cbs", "_processed")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        # Inline callback storage: first subscriber in _cb1, overflow in
        # _cbs.  The single-subscriber fast path never allocates a list.
        self._cb1: Optional[Callable[["Event"], None]] = None
        self._cbs: Optional[List[Callable[["Event"], None]]] = None
        self._processed = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError("event has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        sim._schedule(sim.now, _KIND_EVENT, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        A process yielding on this event will have ``exception`` raised at
        the ``yield`` statement.
        """
        if self._value is not PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        sim = self.sim
        sim._schedule(sim.now, _KIND_EVENT, self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event was already processed the callback runs immediately —
        this keeps late subscribers from deadlocking.
        """
        if self._processed:
            callback(self)
        elif self._cb1 is None:
            self._cb1 = callback
        elif self._cbs is None:
            self._cbs = [callback]
        else:
            self._cbs.append(callback)


class Timeout(Event):
    """An event that fires after a fixed delay.

    Timeouts are born triggered: construction schedules the fire directly,
    so the only allocations on a ``yield sim.timeout(d)`` round-trip are
    the ``Timeout`` itself and its heap tuple.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None) -> None:
        # Single source of truth for the integer-nanosecond invariant:
        # every construction path (``sim.timeout`` or direct) lands here,
        # so a float timestamp can never reach the schedule.  Whole-number
        # floats and NumPy integers coerce; fractional delays are an error,
        # not a silent truncation.
        if type(delay) is not int:
            coerced = int(delay)
            if coerced != delay:
                raise ValueError(
                    f"timeout delay must be a whole number of ns, got {delay!r}")
            delay = coerced
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self._ok = True
        self._value = value
        self._cb1 = None
        self._cbs = None
        self._processed = False
        self.delay = delay
        sim._schedule(sim.now + delay, _KIND_EVENT, self)


class Process(Event):
    """A running model process wrapping a generator.

    The process is itself an event: it triggers when the generator returns
    (successfully, with the generator's return value) or raises (a failure
    carrying the exception).  This makes ``yield other_process`` a join.
    """

    __slots__ = ("generator", "name", "_resume_cb", "_send", "_throw")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Cache bound methods so the per-yield hot path does not allocate
        # or re-look them up.
        self._resume_cb = self._resume
        self._send = generator.send
        self._throw = generator.throw
        # Kick off the process at the current time — a zero-delay
        # direct-resume entry, not a bootstrap Event.
        sim._schedule(sim.now, _KIND_DELAY, self)

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    def _resume(self, trigger: Event) -> None:
        """Callback entry point: the event we were waiting on fired.

        A process waits on one thing at a time, and only that event or
        its own delay entry can resume it, so no staleness check is needed.
        """
        self._step(trigger._ok, trigger._value)

    def _step(self, ok: bool, value: Any) -> None:
        """Advance the generator one yield with a send (ok) or throw."""
        try:
            if ok:
                target = self._send(value)
            else:
                target = self._throw(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self.fail(exc)
            return
        if type(target) is int:
            # Bare-delay fast path: ``yield <ns>`` sleeps without
            # allocating a Timeout — just one heap tuple.  The resume
            # value is None (use a Timeout if the value matters).
            if target >= 0:
                sim = self.sim
                sim._schedule(sim.now + target, _KIND_DELAY, self)
                return
        elif isinstance(target, Event):
            # Inlined add_callback with the cached bound method — the
            # single-subscriber wait is the kernel's hottest edge.
            if target._processed:
                self._resume(target)
            elif target._cb1 is None:
                target._cb1 = self._resume_cb
            elif target._cbs is None:
                target._cbs = [self._resume_cb]
            else:
                target._cbs.append(self._resume_cb)
            return
        # Give the process a chance to handle the misuse; otherwise it
        # fails with the SimulationError.
        error = SimulationError(
            f"process {self.name} yielded non-event {target!r}"
            if type(target) is not int
            else f"process {self.name} yielded negative delay {target}")
        try:
            self.generator.throw(error)
        except StopIteration as stop:
            self.succeed(stop.value)
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self.fail(exc)
        else:
            self.fail(error)


class AllOf(Event):
    """Triggers when all child events have triggered successfully.

    The value is a list of child values in the order given.  If any child
    fails, this event fails with that child's exception (first failure wins).
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        self._remaining = len(self.events)
        if self._remaining == 0:
            self.succeed([])
            return
        for event in self.events:
            event.add_callback(self._check)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e._value for e in self.events])


class AnyOf(Event):
    """Triggers when the first child event triggers.

    The value is a ``(event, value)`` pair identifying the winner.
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        if not self.events:
            raise ValueError("AnyOf requires at least one event")
        for event in self.events:
            event.add_callback(self._check)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if event._ok:
            self.succeed((event, event._value))
        else:
            self.fail(event._value)


class Simulator:
    """The event loop: a clock plus a binary heap of pending entries.

    Entries dispatch in exactly ``(time, seq)`` order, so results are
    byte-identical run to run — pinned by the fig8/fig9 golden-row tests.
    """

    __slots__ = ("now", "scheduler", "_heap", "_seq")

    def __init__(self) -> None:
        #: Name of the schedule structure, recorded as provenance by the
        #: benchmark; there is one implementation.
        self.scheduler = "heap"
        self.now: int = 0
        self._heap: List[_Entry] = []
        self._seq = 0  # Tie-breaker preserving FIFO order at equal times.

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """An event firing ``delay`` nanoseconds from now.

        Delay validation (whole number of ns, non-negative) lives in
        :class:`Timeout` itself so direct construction enforces the same
        integer-nanosecond invariant.
        """
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a model process from a generator."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling & execution
    # ------------------------------------------------------------------
    def _schedule(self, time: int, kind: int, payload: Any) -> None:
        """Insert one scheduled occurrence.

        Every push path (event trigger, timeout, bootstrap, bare delay,
        ``call_at``) funnels through here, so counting calls to it counts
        kernel events.
        """
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, kind, payload))

    def _queue(self, event: Event, delay: int = 0) -> None:
        """Schedule an already-triggered event's callback dispatch."""
        self._schedule(self.now + delay, _KIND_EVENT, event)

    def call_at(self, time: int, fn: Callable[[], None]) -> None:
        """Run a plain callable at an absolute simulated time."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past ({time} < {self.now})")
        self._schedule(time, _KIND_CALL, fn)

    def step(self) -> None:
        """Process the next scheduled entry.

        A failed :class:`Process` that nobody joined re-raises here —
        silent death of a model process (a scheduler core, a poller)
        is always a bug, never intended behaviour.
        """
        time, _seq, kind, payload = heappop(self._heap)
        if time < self.now:
            raise SimulationError("event queue corrupted: time went backwards")
        self.now = time
        if kind == _KIND_EVENT:
            cb1 = payload._cb1
            cbs = payload._cbs
            payload._cb1 = None
            payload._cbs = None
            payload._processed = True
            if cb1 is not None:
                cb1(payload)
                if cbs is not None:
                    for callback in cbs:
                        callback(payload)
            elif payload._ok is False and isinstance(payload, Process):
                raise payload._value
        elif kind == _KIND_DELAY:
            payload._step(True, None)
        else:  # _KIND_CALL
            payload()

    def _drain(self, limit: int, stop: Optional[Event]) -> None:
        """Dispatch heap entries until ``limit`` is passed, ``stop`` (if
        given) triggers, or the heap drains.

        This is :meth:`step`'s dispatch inlined into a single loop — the
        per-event method-call overhead is measurable at the event rates the
        figures run at.  Every scheduling path already rejects past times,
        so the corruption check lives only in the (non-inlined)
        :meth:`step`.
        """
        heap = self._heap
        pop = heappop
        while heap and heap[0][0] <= limit:
            if stop is not None and stop._value is not PENDING:
                return
            time, _seq, kind, payload = pop(heap)
            self.now = time
            if kind == _KIND_EVENT:
                cb1 = payload._cb1
                cbs = payload._cbs
                payload._cb1 = None
                payload._cbs = None
                payload._processed = True
                if cb1 is not None:
                    cb1(payload)
                    if cbs is not None:
                        for callback in cbs:
                            callback(payload)
                elif payload._ok is False and isinstance(payload, Process):
                    raise payload._value
            elif kind == _KIND_DELAY:
                payload._step(True, None)
            else:  # _KIND_CALL
                payload()

    def run(self, until: Optional[int] = None) -> None:
        """Run until the queue drains or the clock passes ``until``.

        If ``until`` is given the clock is advanced to exactly ``until`` even
        when the queue drains earlier, so back-to-back ``run`` calls compose.
        """
        if until is None:
            self._drain(_T_MAX, None)
            return
        until = int(until)
        if until < self.now:
            raise SimulationError(f"cannot run to the past ({until} < {self.now})")
        self._drain(until, None)
        self.now = until

    def run_until(self, event: Event, deadline: Optional[int] = None) -> None:
        """Run until ``event`` triggers (or the clock would pass
        ``deadline``, or the queue drains).

        Unlike ``run(until=...)`` this stops as soon as the event fires, so
        background load (tenant threads, pollers) does not keep the clock
        spinning after the measured work completes.  The clock is left at
        the last processed entry — it does *not* advance to ``deadline``.
        """
        self._drain(_T_MAX if deadline is None else int(deadline), event)

    def peek(self) -> Optional[int]:
        """Time of the next queued event, or None if the queue is empty."""
        return self._heap[0][0] if self._heap else None
