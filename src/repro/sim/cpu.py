"""Multi-core CPU model with a CFS-like per-core scheduler.

The paper's root-cause analysis (§2.2) is that replica threads in a
multi-tenant storage server must *wait to be scheduled* before they can
receive, parse and forward a replicated transaction, and that this
scheduling delay — not the network — inflates tail latency.  To reproduce
Figures 2, 8, 10, 11 and 12 that delay must be an emergent property of a
credible scheduler, so this module implements the load-bearing parts of
Linux CFS:

* **per-core run queues** — a woken thread is *placed* on one core (an idle
  core if there is one, else the core it last ran on, for cache affinity)
  and waits in that core's queue; other cores do not serve it.  This is the
  mechanism behind multi-millisecond wakeup delays in multi-tenant servers:
  with ten CPU-bound tenants sharing the woken thread's core, the wakeup
  must wait out the current timeslice (and occasionally several);
* **vruntime fairness** — each core picks its lowest-vruntime runnable
  thread and runs it for ``timeslice = max(min_granularity,
  sched_latency / nr_local_runnable)``;
* **sleeper bonus** — a thread that slept has its vruntime lifted to at
  most ``core.min_vruntime - sleeper_bonus`` on wakeup, so it is usually
  first in its queue; a thread that runs more than its fair share loses
  this advantage and round-robins with the tenants (bursty handlers under
  load — exactly when tails explode);
* **wakeup-granularity preemption** — the wakee preempts the running thread
  only when its vruntime is smaller by more than ``wakeup_granularity``;
  otherwise it waits for the timeslice to end;
* **new-idle balancing** — a core that goes idle steals a runnable thread
  from the longest queue;
* every switch of the thread a core runs costs ``context_switch_ns`` and
  increments a context-switch counter (reported in Figure 2).

Threads request CPU service with :meth:`Thread.run`; CPU-bound tenants call
:meth:`Thread.run_forever`.  Poll-mode consumers use
:meth:`Thread.when_running` to learn when the polling thread next owns a
core.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from operator import index as operator_index
from enum import Enum
from typing import List, Optional, Tuple

from .engine import Event, ProcessGenerator, Simulator
from .stats import Counter
from .units import us

__all__ = ["SchedParams", "ThreadState", "Thread", "HostCPU"]

INFINITE = float("inf")


@dataclass(slots=True)
class SchedParams:
    """Scheduler tunables, roughly mirroring Linux CFS server defaults."""

    sched_latency_ns: int = us(6000)        # Target rotation period (6 ms).
    min_granularity_ns: int = us(750)       # Minimum timeslice (0.75 ms).
    wakeup_granularity_ns: int = us(1000)   # Preemption hysteresis (1 ms).
    # Gentle sleeper credit, deliberately below the wakeup granularity: a
    # woken thread is usually *queued first* rather than preempting — it
    # pays out the current slice, and queues behind other fresh wakers.
    sleeper_bonus_ns: int = us(900)
    max_carried_lag_ns: int = us(6000)      # Positive lag kept on re-enqueue.
    context_switch_ns: int = us(2)          # Direct + indirect switch cost.

    def timeslice(self, nr_runnable: int) -> int:
        """Timeslice for one of ``nr_runnable`` threads on one core."""
        if nr_runnable <= 0:
            return self.sched_latency_ns
        share = self.sched_latency_ns // nr_runnable
        return max(self.min_granularity_ns, share)


class ThreadState(Enum):
    BLOCKED = "blocked"
    RUNNABLE = "runnable"
    RUNNING = "running"


@dataclass(slots=True)
class _WorkItem:
    remaining_ns: float
    done: Optional[Event]


class Thread:
    """A schedulable entity on a :class:`HostCPU`.

    Model code never runs "inside" a thread; instead it asks the thread for
    CPU service and waits on the returned event.  This keeps the scheduler
    model decoupled from protocol logic.
    """

    __slots__ = ("cpu", "name", "state", "vruntime", "cpu_time_ns",
                 "switches_in", "last_core", "_work", "_on_running")

    def __init__(self, cpu: "HostCPU", name: str) -> None:
        self.cpu = cpu
        self.name = name
        self.state = ThreadState.BLOCKED
        self.vruntime: float = 0.0
        self.cpu_time_ns: int = 0
        self.switches_in: int = 0
        self.last_core: Optional["_Core"] = None
        self._work: Optional[_WorkItem] = None
        self._on_running: List[Event] = []

    # ------------------------------------------------------------------
    # Service requests
    # ------------------------------------------------------------------
    def run(self, service_ns: int) -> Event:
        """Request ``service_ns`` of CPU time; event fires when delivered.

        The elapsed wall-clock time between the call and the event includes
        run-queue waiting, context switches and preemption by other threads.
        """
        if self._work is not None:
            raise RuntimeError(f"thread {self.name} already has work outstanding")
        try:
            service_ns = operator_index(service_ns)
        except TypeError:
            # A fractional service time would leave remaining_ns short of
            # every integer boundary, so ``int(min(slice_ns, remaining))``
            # in the core loop truncates to a zero-length timeslice and
            # the scheduler livelocks at one timestamp.
            raise TypeError(
                f"service_ns must be a whole number of ns, got "
                f"{type(service_ns).__name__}: {service_ns!r}") from None
        if service_ns < 0:
            raise ValueError("service time must be non-negative")
        done = self.cpu.sim.event()
        if service_ns == 0:
            done.succeed()
            return done
        self._work = _WorkItem(remaining_ns=float(service_ns), done=done)
        self.cpu._wake(self)
        return done

    def run_forever(self) -> None:
        """Turn this thread into a CPU-bound busy loop (background tenant)."""
        if self._work is not None:
            raise RuntimeError(f"thread {self.name} already has work outstanding")
        self._work = _WorkItem(remaining_ns=INFINITE, done=None)
        self.cpu._wake(self)

    def stop(self) -> None:
        """Cancel outstanding work (used to tear down busy loops)."""
        self._work = None
        if self.state is ThreadState.RUNNABLE and self.last_core is not None:
            self.last_core.unqueue(self)
            self.state = ThreadState.BLOCKED
        elif self.state is ThreadState.RUNNING and self.last_core is not None \
                and self.last_core.current is self:
            # Kick the core so it does not run out the rest of the slice
            # on a dead thread.
            self.last_core.preempt_now()

    def when_running(self) -> Event:
        """Event firing the next time this thread is scheduled onto a core.

        Fires immediately if the thread is running right now.  Used to model
        poll-mode completion detection: a poller only observes a completion
        while it owns a core.
        """
        event = self.cpu.sim.event()
        if self.state is ThreadState.RUNNING:
            event.succeed()
        else:
            self._on_running.append(event)
        return event

    @property
    def is_busy_loop(self) -> bool:
        return (self._work is not None
                and math.isinf(self._work.remaining_ns))


class _Core:
    """One CPU core: its own run queue, serving lowest-vruntime first."""

    __slots__ = ("cpu", "index", "current", "last_thread", "busy_ns",
                 "slice_start", "min_vruntime", "_queue", "_seq",
                 "_preempt", "_idle_wakeup")

    def __init__(self, cpu: "HostCPU", index: int) -> None:
        self.cpu = cpu
        self.index = index
        self.current: Optional[Thread] = None
        self.last_thread: Optional[Thread] = None
        self.busy_ns: int = 0
        self.slice_start: Optional[int] = None
        self.min_vruntime: float = 0.0
        self._queue: List[Tuple[float, int, Thread]] = []  # (vruntime, seq, thread) heap.
        self._seq = 0
        self._preempt: Optional[Event] = None
        self._idle_wakeup: Optional[Event] = None
        cpu.sim.process(self._loop(), name=f"{cpu.name}.core{index}")

    # ------------------------------------------------------------------
    # Queue management
    # ------------------------------------------------------------------
    @property
    def nr_queued(self) -> int:
        return len(self._queue)

    @property
    def is_idle(self) -> bool:
        return self.current is None and self._idle_wakeup is not None

    def enqueue(self, thread: Thread) -> None:
        thread.last_core = self
        heapq.heappush(self._queue, (thread.vruntime, self._seq, thread))
        self._seq += 1
        if self._idle_wakeup is not None and not self._idle_wakeup.triggered:
            self._idle_wakeup.succeed()

    def unqueue(self, thread: Thread) -> None:
        self._queue = [entry for entry in self._queue if entry[2] is not thread]
        heapq.heapify(self._queue)

    def pop_next(self) -> Optional[Thread]:
        while self._queue:
            _v, _s, thread = heapq.heappop(self._queue)
            if thread.state is ThreadState.RUNNABLE and thread._work is not None:
                return thread
        return None

    def steal_candidate(self) -> Optional[Thread]:
        """Give up one queued thread to an idle core (new-idle balance)."""
        return self.pop_next()

    def note_vruntime(self, vruntime: float) -> None:
        floor = vruntime
        if self._queue:
            floor = min(floor, self._queue[0][0])
        if floor > self.min_vruntime:
            self.min_vruntime = floor

    def preempt_now(self) -> None:
        """Unconditionally end the current slice (thread teardown)."""
        if self._preempt is not None and not self._preempt.triggered:
            self._preempt.succeed()

    def maybe_preempt(self, challenger: Thread) -> bool:
        """Preempt the running thread if the challenger is far enough ahead."""
        if self.current is None or self._preempt is None or self._preempt.triggered:
            return False
        gap = self.current.vruntime - challenger.vruntime
        if gap > self.cpu.params.wakeup_granularity_ns:
            self._preempt.succeed()
            return True
        return False

    # ------------------------------------------------------------------
    # Execution loop
    # ------------------------------------------------------------------
    def _loop(self) -> ProcessGenerator:
        sim = self.cpu.sim
        params = self.cpu.params
        while True:
            thread = self.pop_next()
            if thread is None:
                thread = self.cpu._steal_for(self)
            if thread is None:
                self._idle_wakeup = sim.event()
                yield self._idle_wakeup
                self._idle_wakeup = None
                continue
            if thread is not self.last_thread:
                self.cpu.context_switches.increment()
                thread.switches_in += 1
                cost = params.context_switch_ns
                if cost:
                    self.busy_ns += cost
                    yield cost  # bare-delay fast path (engine)
                    if thread._work is None:  # Cancelled mid-switch.
                        thread.state = ThreadState.BLOCKED
                        self.last_thread = thread
                        continue
            self.current = thread
            self.last_thread = thread
            thread.state = ThreadState.RUNNING
            thread.last_core = self
            for event in thread._on_running:
                if not event.triggered:
                    event.succeed()
            thread._on_running = []

            work = thread._work
            slice_ns = params.timeslice(self.nr_queued + 1)
            run_ns = int(min(slice_ns, work.remaining_ns))
            # run() rejects fractional service times precisely so this
            # holds: a zero-length timeslice would re-run this loop at the
            # same timestamp forever.
            assert run_ns > 0, (
                f"zero-length timeslice for {thread.name} "
                f"(remaining={work.remaining_ns!r}, slice={slice_ns})")
            start = sim.now
            self.slice_start = start
            # One wake event serves both slice expiry and preemption —
            # cheaper than Timeout + AnyOf in the hottest scheduler loop.
            # A stale expiry callback after preemption is a no-op.
            self._preempt = wake = sim.event()
            sim.call_at(start + run_ns,
                        lambda w=wake: None if w.triggered else w.succeed())
            yield wake
            ran = sim.now - start
            self._preempt = None
            self.slice_start = None

            thread.vruntime += ran
            thread.cpu_time_ns += ran
            self.busy_ns += ran
            self.note_vruntime(thread.vruntime)
            self.current = None

            if thread._work is None:
                # Cancelled while running.
                thread.state = ThreadState.BLOCKED
                continue
            work.remaining_ns -= ran
            if work.remaining_ns <= 0:
                thread._work = None
                thread.state = ThreadState.BLOCKED
                if work.done is not None:
                    work.done.succeed()
            else:
                thread.state = ThreadState.RUNNABLE
                self.enqueue(thread)


class HostCPU:
    """A multi-core host processor shared by all threads of a machine."""

    __slots__ = ("sim", "name", "params", "context_switches", "threads",
                 "_placement_rr", "cores")

    def __init__(self, sim: Simulator, cores: int,
                 params: Optional[SchedParams] = None,
                 name: str = "cpu") -> None:
        if cores < 1:
            raise ValueError("need at least one core")
        self.sim = sim
        self.name = name
        self.params = params or SchedParams()
        self.context_switches = Counter(f"{name}.ctxsw")
        self.threads: List[Thread] = []
        self._placement_rr = 0
        self.cores = [_Core(self, i) for i in range(cores)]

    # ------------------------------------------------------------------
    # Thread management
    # ------------------------------------------------------------------
    def spawn_thread(self, name: str) -> Thread:
        thread = Thread(self, name)
        self.threads.append(thread)
        return thread

    def spawn_background_load(self, count: int, name: str = "tenant") -> List[Thread]:
        """Start ``count`` CPU-bound tenant threads (multi-tenant pressure)."""
        tenants = []
        for i in range(count):
            thread = self.spawn_thread(f"{name}{i}")
            thread.run_forever()
            tenants.append(thread)
        return tenants

    # ------------------------------------------------------------------
    # Scheduler internals
    # ------------------------------------------------------------------
    def _place(self, thread: Thread) -> "_Core":
        """Pick the core a waking thread lands on.

        Idle cores win (select_idle_sibling); otherwise the thread returns
        to its previous core for cache affinity — and waits in that core's
        queue, which is where multi-tenant scheduling delay comes from.
        """
        for core in self.cores:
            if core.is_idle and not core._queue:
                return core
        if thread.last_core is not None:
            return thread.last_core
        core = self.cores[self._placement_rr % len(self.cores)]
        self._placement_rr += 1
        return core

    def _wake(self, thread: Thread) -> None:
        """Blocked → runnable: place, apply sleeper bonus, maybe preempt."""
        if thread.state is not ThreadState.BLOCKED:
            return
        core = self._place(thread)
        # Renormalize vruntime into the target core's clock, carrying over
        # bounded positive lag (a thread that over-ran its share re-enters
        # behind the pack) and granting at most the sleeper bonus.
        old_min = (thread.last_core.min_vruntime
                   if thread.last_core is not None else thread.vruntime)
        lag = thread.vruntime - old_min
        lag = max(-float(self.params.sleeper_bonus_ns),
                  min(lag, float(self.params.max_carried_lag_ns)))
        thread.vruntime = core.min_vruntime + lag
        bonus_floor = core.min_vruntime - self.params.sleeper_bonus_ns
        if thread.vruntime < bonus_floor:
            thread.vruntime = bonus_floor
        thread.state = ThreadState.RUNNABLE
        core.enqueue(thread)
        core.maybe_preempt(thread)

    def _steal_for(self, idle_core: "_Core") -> Optional[Thread]:
        """New-idle balance: pull one thread from the longest queue."""
        queued = [len(core._queue) for core in self.cores]
        most = max(queued)
        busiest = self.cores[queued.index(most)]  # First max, as max() picks.
        if most == 0 or busiest is idle_core:
            return None
        thread = busiest.steal_candidate()
        if thread is not None:
            # Renormalize into the stealing core's clock.
            lag = thread.vruntime - busiest.min_vruntime
            thread.vruntime = idle_core.min_vruntime + max(0.0, min(
                lag, float(self.params.max_carried_lag_ns)))
            thread.last_core = idle_core
        return thread

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def nr_runnable(self) -> int:
        return sum(core.nr_queued for core in self.cores)

    def total_busy_ns(self) -> int:
        """Busy time including the in-flight portion of current slices."""
        total = 0
        for core in self.cores:
            total += core.busy_ns
            if core.slice_start is not None:
                total += self.sim.now - core.slice_start
        return total

    def thread_cpu_time_ns(self, thread: Thread) -> int:
        """CPU time including the thread's in-flight slice, if running."""
        total = thread.cpu_time_ns
        core = thread.last_core
        if (thread.state is ThreadState.RUNNING and core is not None
                and core.current is thread and core.slice_start is not None):
            total += self.sim.now - core.slice_start
        return total

    def utilization(self, window_ns: int) -> float:
        """Mean per-core utilization over ``window_ns``."""
        if window_ns <= 0:
            raise ValueError("window must be positive")
        return min(1.0, self.total_busy_ns() / (window_ns * len(self.cores)))

    def thread_utilization(self, thread: Thread, window_ns: int) -> float:
        """Fraction of one core consumed by a single thread."""
        if window_ns <= 0:
            raise ValueError("window must be positive")
        return min(1.0, self.thread_cpu_time_ns(thread) / window_ns)
