"""Unit tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import SimulationError, Simulator, Timeout


class TestEvent:
    def test_starts_untriggered(self, sim):
        event = sim.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_carries_value(self, sim):
        event = sim.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, sim):
        event = sim.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_value_before_trigger_raises(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            _ = event.value
        with pytest.raises(SimulationError):
            _ = event.ok

    def test_late_callback_runs_immediately(self, sim):
        event = sim.event()
        event.succeed("x")
        sim.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == ["x"]


class TestTimeout:
    def test_advances_clock(self, sim):
        fired = []

        def proc(sim):
            yield sim.timeout(500)
            fired.append(sim.now)

        sim.process(proc(sim))
        sim.run()
        assert fired == [500]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1)

    def test_zero_delay_fires_now(self, sim):
        times = []

        def proc(sim):
            yield sim.timeout(0)
            times.append(sim.now)

        sim.process(proc(sim))
        sim.run()
        assert times == [0]

    def test_timeout_value_passthrough(self, sim):
        def proc(sim):
            got = yield sim.timeout(10, value="payload")
            return got

        process = sim.process(proc(sim))
        sim.run()
        assert process.value == "payload"

    def test_fifo_at_equal_times(self, sim):
        order = []

        def proc(sim, tag):
            yield sim.timeout(100)
            order.append(tag)

        for tag in range(5):
            sim.process(proc(sim, tag))
        sim.run()
        assert order == [0, 1, 2, 3, 4]


class TestTimeoutValidation:
    """Regression: ``Timeout`` built directly (not via ``sim.timeout``)
    used to skip delay coercion and put a float timestamp on the heap,
    breaking the integer-nanosecond clock invariant."""

    def test_direct_fractional_delay_rejected(self, sim):
        with pytest.raises(ValueError, match="whole number"):
            Timeout(sim, 1.5)

    def test_factory_fractional_delay_rejected(self, sim):
        with pytest.raises(ValueError, match="whole number"):
            sim.timeout(1.5)

    def test_whole_float_coerced_to_int_clock(self, sim):
        fired = []
        Timeout(sim, 100.0).add_callback(lambda _e: fired.append(sim.now))
        sim.run()
        assert fired == [100]
        assert type(fired[0]) is int

    def test_direct_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError, match="negative"):
            Timeout(sim, -5)


class TestProcess:
    def test_return_value(self, sim):
        def proc(sim):
            yield sim.timeout(1)
            return "done"

        process = sim.process(proc(sim))
        sim.run()
        assert process.value == "done"

    def test_join_another_process(self, sim):
        def child(sim):
            yield sim.timeout(50)
            return 7

        def parent(sim):
            value = yield sim.process(child(sim))
            return value * 2

        process = sim.process(parent(sim))
        sim.run()
        assert process.value == 14
        assert sim.now == 50

    def test_exception_propagates_to_joiner(self, sim):
        def child(sim):
            yield sim.timeout(1)
            raise RuntimeError("boom")

        def parent(sim):
            try:
                yield sim.process(child(sim))
            except RuntimeError as exc:
                return f"caught {exc}"

        process = sim.process(parent(sim))
        sim.run()
        assert process.value == "caught boom"

    def test_unjoined_exception_escapes_loudly(self, sim):
        """A failed process nobody joined must crash the run, not vanish."""
        def proc(sim):
            yield sim.timeout(1)
            raise ValueError("bad")

        process = sim.process(proc(sim))
        with pytest.raises(ValueError, match="bad"):
            sim.run()
        assert process.triggered
        assert not process.ok

    def test_requires_generator(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)

    def test_is_alive(self, sim):
        def proc(sim):
            yield sim.timeout(10)

        process = sim.process(proc(sim))
        assert process.is_alive
        sim.run()
        assert not process.is_alive


class TestCombinators:
    def test_all_of_collects_values(self, sim):
        def proc(sim):
            values = yield sim.all_of([sim.timeout(10, "a"),
                                       sim.timeout(30, "b"),
                                       sim.timeout(20, "c")])
            return (values, sim.now)

        process = sim.process(proc(sim))
        sim.run()
        assert process.value == (["a", "b", "c"], 30)

    def test_all_of_empty_fires_immediately(self, sim):
        event = sim.all_of([])
        assert event.triggered
        assert event.value == []

    def test_any_of_returns_winner(self, sim):
        def proc(sim):
            fast = sim.timeout(5, "fast")
            slow = sim.timeout(50, "slow")
            winner, value = yield sim.any_of([slow, fast])
            return (winner is fast, value, sim.now)

        process = sim.process(proc(sim))
        sim.run()
        assert process.value == (True, "fast", 5)

    def test_any_of_empty_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.any_of([])

    def test_all_of_failure_propagates(self, sim):
        def failer(sim):
            yield sim.timeout(1)
            raise RuntimeError("nope")

        def proc(sim):
            try:
                yield sim.all_of([sim.timeout(100),
                                  sim.process(failer(sim))])
            except RuntimeError:
                return "failed"

        process = sim.process(proc(sim))
        sim.run()
        assert process.value == "failed"


class TestSimulatorRun:
    def test_run_until_advances_exactly(self, sim):
        sim.run(until=1000)
        assert sim.now == 1000

    def test_run_until_past_rejected(self, sim):
        sim.run(until=100)
        with pytest.raises(SimulationError):
            sim.run(until=50)

    def test_events_beyond_until_stay_queued(self, sim):
        fired = []

        def proc(sim):
            yield sim.timeout(200)
            fired.append(sim.now)

        sim.process(proc(sim))
        sim.run(until=100)
        assert fired == []
        sim.run(until=300)
        assert fired == [200]

    def test_call_at(self, sim):
        calls = []
        sim.call_at(50, lambda: calls.append(sim.now))
        sim.call_at(25, lambda: calls.append(sim.now))
        sim.run()
        assert calls == [25, 50]

    def test_call_at_past_rejected(self, sim):
        sim.run(until=10)
        with pytest.raises(SimulationError):
            sim.call_at(5, lambda: None)

    def test_peek(self, sim):
        assert sim.peek() is None
        sim.timeout(40)
        assert sim.peek() == 40

    def test_step_on_empty_raises(self, sim):
        with pytest.raises(IndexError):
            sim.step()

    def test_step_and_peek_agree(self, sim):
        delays = [0, 3, 3, 900, 1024, 5000, (1 << 20) + 7, 10 ** 8]
        log = []
        for i, d in enumerate(delays):
            sim.timeout(d).add_callback(
                lambda _e, i=i: log.append((sim.now, i)))
        peeks = []
        while sim.peek() is not None:
            peeks.append(sim.peek())
            sim.step()
        assert peeks == sorted(delays)
        assert log == sorted((d, i) for i, d in enumerate(delays))

    def test_run_until_stop_and_resume(self, sim):
        """Stopping mid-timestamp (run_until) then continuing must not
        lose or reorder the rest of that instant's entries."""
        log = []
        stop_event = sim.event()
        for i in range(12):
            sim.timeout(50).add_callback(lambda _e, i=i: log.append(i))
            if i == 5:
                sim.timeout(50).add_callback(lambda _e: stop_event.succeed())
        sim.run_until(stop_event)
        # The stopper fires right after entry 5; the loop checks the stop
        # event before every pop, so entries 6..11 stay queued.
        assert log == list(range(6))
        assert sim.now == 50
        sim.run()
        assert log == list(range(12))

    def test_limit_return_then_insert_before_next_entry(self, sim):
        """After run(until=T) parks the clock short of the next entry,
        inserts between now and that entry must still fire first."""
        log = []
        sim.timeout(10_000).add_callback(lambda _e: log.append(sim.now))
        sim.run(until=2_500)
        sim.timeout(100).add_callback(lambda _e: log.append(sim.now))
        sim.timeout(0).add_callback(lambda _e: log.append(sim.now))
        sim.run()
        assert log == [2500, 2600, 10000]

    def test_yield_non_event_errors_process(self, sim):
        def proc(sim):
            yield "not an event"

        process = sim.process(proc(sim))
        with pytest.raises(SimulationError):
            sim.run()
        assert not process.ok

    def test_yield_non_event_can_be_caught(self, sim):
        def proc(sim):
            try:
                yield "not an event"
            except SimulationError:
                return "recovered"

        process = sim.process(proc(sim))
        sim.run()
        assert process.value == "recovered"


# Same-instant, near-future and far-future delays (ns), with repeats
# likely so equal-time FIFO order is exercised.
DELAYS = st.sampled_from(
    [0, 1, 3, 7, 1023, 1024, 1025, 4096, (1 << 20) - 1, 1 << 20,
     (1 << 20) + 3, 10 ** 7, 10 ** 9])


class TestAgainstReferenceModel:
    """The dispatch log must equal the insertions sorted by
    ``(time, seq)`` — checked against a model that keeps a plain list
    and takes ``min()``, sharing nothing with the kernel's heap."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(DELAYS, min_size=1, max_size=8),
                    min_size=1, max_size=10))
    def test_random_process_mix(self, stages_per_process):
        sim = Simulator()
        log = []

        def proc(sim, tag, stages):
            for i, d in enumerate(stages):
                yield sim.timeout(d) if (i + tag) % 2 else d
                log.append((sim.now, tag, i))

        for tag, stages in enumerate(stages_per_process):
            sim.process(proc(sim, tag, stages))
        sim.run()

        # Model: one bootstrap insertion per process at t=0, then each
        # dispatched stage inserts the process's next wake-up.
        pending = [(0, tag, tag, -1)
                   for tag in range(len(stages_per_process))]
        seq = len(pending)
        expected = []
        while pending:
            entry = min(pending)
            pending.remove(entry)
            time, _seq, tag, stage = entry
            if stage >= 0:
                expected.append((time, tag, stage))
            stages = stages_per_process[tag]
            if stage + 1 < len(stages):
                pending.append((time + stages[stage + 1], seq, tag,
                                stage + 1))
                seq += 1
        assert log == expected

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10 ** 9),
                    min_size=1, max_size=50),
           st.integers(min_value=0, max_value=10 ** 9))
    def test_random_timeouts_with_until(self, delays, until):
        sim = Simulator()
        log = []
        for i, d in enumerate(delays):
            sim.timeout(d).add_callback(
                lambda _e, i=i: log.append((sim.now, i)))
        sim.run(until=until)
        expected = sorted((d, i) for i, d in enumerate(delays))
        assert log == [entry for entry in expected if entry[0] <= until]
        assert sim.now == until
        sim.run()
        assert log == expected
        assert sim.now == max(until, max(delays))
