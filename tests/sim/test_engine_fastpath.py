"""Edge-case tests for the kernel fast paths.

The kernel schedules plain ``(time, seq, kind, payload)`` tuples and
resumes single waiters through an inline callback slot; processes may
wait with a bare ``yield <int>`` that allocates no event at all.  These
tests pin the semantics that the fast paths must preserve: FIFO order at
equal timestamps, process start order, combinator failure propagation
order, and late-callback behaviour on processed events.
"""

from repro.sim.engine import SimulationError, Simulator


class TestBareDelay:
    def test_advances_clock_and_returns_none(self, sim):
        seen = []

        def proc(sim):
            got = yield 40
            seen.append((sim.now, got))
            yield 0
            seen.append((sim.now, "zero"))

        sim.process(proc(sim))
        sim.run()
        assert seen == [(40, None), (40, "zero")]

    def test_matches_timeout_schedule_exactly(self):
        """A bare delay and an equivalent Timeout produce identical
        resume times and interleaving."""

        def proc_delay(sim, log):
            for i in range(3):
                yield 7
                log.append(("d", sim.now))

        def proc_timeout(sim, log):
            for i in range(3):
                yield sim.timeout(7)
                log.append(("t", sim.now))

        sim = Simulator()
        log = []
        sim.process(proc_delay(sim, log))
        sim.process(proc_timeout(sim, log))
        sim.run()
        # Same times; the delay process was spawned first so it wins
        # every same-time tie.
        assert log == [("d", 7), ("t", 7), ("d", 14), ("t", 14),
                       ("d", 21), ("t", 21)]

    def test_negative_delay_is_catchable_misuse(self, sim):
        def proc(sim):
            try:
                yield -5
            except SimulationError:
                return "caught"

        process = sim.process(proc(sim))
        sim.run()
        assert process.value == "caught"

    def test_back_to_back_equal_waits_resume_once_each(self, sim):
        """Equal bare delays and equal timeouts in a row: each wait
        resumes the process exactly once, at its own deadline."""
        log = []

        def proc(sim):
            yield 100
            log.append(("d", sim.now))
            yield 100
            log.append(("d", sim.now))
            yield sim.timeout(30)
            log.append(("t", sim.now))
            yield sim.timeout(30)
            log.append(("t", sim.now))
            yield 30
            log.append(("d", sim.now))

        sim.process(proc(sim))
        sim.call_at(230, lambda: None)  # unrelated same-time entry
        sim.run()
        assert log == [("d", 100), ("d", 200), ("t", 230), ("t", 260),
                       ("d", 290)]
        assert sim.now == 290


class TestFifoTieBreak:
    def test_equal_time_entries_run_in_schedule_order(self, sim):
        """Timeouts, events, call_at callbacks and bare delays scheduled
        for the same instant fire in the order they were scheduled."""
        log = []

        def waiter(sim, tag):
            yield sim.timeout(10)
            log.append(tag)

        def bare(sim, tag):
            yield 10
            log.append(tag)

        sim.process(waiter(sim, "t1"))
        sim.process(bare(sim, "d1"))
        sim.call_at(10, lambda: log.append("c1"))
        sim.process(waiter(sim, "t2"))
        sim.run()
        # The call_at entry is heap-pushed immediately; the processes push
        # their t=10 entries only when their bootstraps run at t=0 — so
        # the callback holds the earliest sequence number, then the
        # processes in spawn order.
        assert log == ["c1", "t1", "d1", "t2"]

    def test_triggered_events_process_in_trigger_order(self, sim):
        log = []
        first = sim.event()
        second = sim.event()
        second.add_callback(lambda e: log.append("second"))
        first.add_callback(lambda e: log.append("first"))
        first.succeed()
        second.succeed()
        sim.run()
        assert log == ["first", "second"]


class TestCallbackSlots:
    def test_many_callbacks_fire_in_registration_order(self, sim):
        """The inline single-callback slot plus overflow list must keep
        registration order across both storage forms."""
        event = sim.event()
        log = []
        for i in range(5):
            event.add_callback(lambda e, i=i: log.append(i))
        event.succeed()
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_late_callback_on_processed_event_runs_now(self, sim):
        event = sim.event()
        event.succeed("v")
        sim.run()
        assert event.processed
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == ["v"]

    def test_mixed_late_and_early_callbacks(self, sim):
        event = sim.event()
        log = []
        event.add_callback(lambda e: log.append("early"))
        event.succeed()
        sim.run()
        event.add_callback(lambda e: log.append("late"))
        assert log == ["early", "late"]


class TestCombinatorFailures:
    def test_all_of_first_failure_wins(self, sim):
        """When two members fail at the same instant, AllOf carries the
        failure that was processed first (FIFO order)."""
        first = sim.event()
        second = sim.event()

        def proc(sim):
            try:
                yield sim.all_of([first, second])
            except RuntimeError as exc:
                return str(exc)

        process = sim.process(proc(sim))
        first.fail(RuntimeError("first"))
        second.fail(RuntimeError("second"))
        sim.run()
        assert process.value == "first"

    def test_any_of_failure_beats_later_success(self, sim):
        def proc(sim):
            try:
                yield sim.any_of([sim.process(_fail_after(sim, 5)),
                                  sim.timeout(50)])
            except RuntimeError as exc:
                return str(exc)
            return "no failure"

        process = sim.process(proc(sim))
        sim.run()
        assert process.value == "boom"

    def test_all_of_second_member_failure_is_not_lost(self, sim):
        """A failure arriving after the AllOf already failed must not
        re-trigger it (the combinator keeps the first failure)."""
        first = sim.event()
        second = sim.event()
        joined = sim.all_of([first, second])
        first.fail(RuntimeError("a"))
        second.fail(RuntimeError("b"))
        sim.run()
        assert joined.triggered and not joined.ok
        assert str(joined.value) == "a"


def _fail_after(sim, delay):
    yield sim.timeout(delay)
    raise RuntimeError("boom")


class TestProcessStart:
    def test_same_time_processes_start_in_creation_order(self, sim):
        """Processes created at one timestamp take their first step in
        creation order, and before a ``call_at`` scheduled after them."""
        log = []

        def proc(sim, tag):
            log.append((tag, sim.now))
            yield 0
            log.append((tag + "'", sim.now))

        def spawner(sim):
            yield 50
            sim.process(proc(sim, "b"))
            sim.process(proc(sim, "c"))
            sim.call_at(50, lambda: log.append(("call", sim.now)))

        sim.process(proc(sim, "a"))
        sim.process(spawner(sim))
        sim.run()
        assert log == [("a", 0), ("a'", 0), ("b", 50), ("c", 50),
                       ("call", 50), ("b'", 50), ("c'", 50)]


class TestRunUntil:
    def test_stops_at_event_not_heap_exhaustion(self, sim):
        """run_until must return as soon as the event is processed, even
        with unrelated work still queued."""
        ticks = []

        def background(sim):
            while True:
                yield 10
                ticks.append(sim.now)

        def target(sim):
            yield sim.timeout(35)

        sim.process(background(sim))
        process = sim.process(target(sim))
        sim.run_until(process, deadline=10_000)
        assert process.triggered
        assert sim.now <= 40
        assert all(t <= 40 for t in ticks)

    def test_deadline_caps_the_run(self, sim):
        def never(sim):
            yield sim.event()  # waits forever

        def background(sim):
            while True:
                yield 10

        sim.process(background(sim))
        process = sim.process(never(sim))
        sim.run_until(process, deadline=100)
        assert not process.triggered
        assert sim.now <= 100
