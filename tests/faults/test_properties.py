"""Property tests: fault plans replay bit-identically, everywhere.

The fault layer's determinism contract has two axes:

* **run-to-run** — the same plan on a fresh cluster produces the same
  injector log, byte for byte;
* **process boundary** — replaying the plan inside ``sweep(..., jobs=2)``
  worker processes yields the same log as a serial run.

Plans are generated as primitive spec tuples (host indices, times,
durations) so they pickle cleanly across the process boundary, then
compiled to real :class:`~repro.faults.plan.FaultPlan` events inside the
replay worker.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.faults import (
    CompositeFault,
    CrashProcess,
    FaultInjector,
    FaultPlan,
    LinkFlap,
    NvmPowerLoss,
    Partition,
    StragglerNic,
)
from repro.experiments.parallel import sweep
from repro.host import Cluster

_HOSTS = 4
_MAX_NS = 5_000_000  # Trigger times within 5 ms keep replays fast.

# -- spec strategies (primitives only: must pickle for --jobs) ----------
_at = st.integers(min_value=0, max_value=_MAX_NS)
_host = st.integers(min_value=0, max_value=_HOSTS - 1)
_pair = st.tuples(_host, st.integers(min_value=1, max_value=_HOSTS - 1))
_duration = st.integers(min_value=1, max_value=_MAX_NS)

_leaf = st.one_of(
    st.tuples(st.just("crash"), _at, _host),
    st.tuples(st.just("nvm"), _at, _host),
    st.tuples(st.just("flap"), _at, _pair, _duration),
    st.tuples(st.just("partition"), _at, _pair, _duration),
    st.tuples(st.just("straggler"), _at, _host,
              st.integers(min_value=10, max_value=1000), _duration),
)
_event_spec = st.one_of(
    _leaf,
    st.tuples(st.just("composite"), _at,
              st.lists(_leaf, min_size=1, max_size=3)))
_plan_spec = st.lists(_event_spec, min_size=1, max_size=8)


def _host_name(index: int) -> str:
    return f"p{index % _HOSTS}"


def _compile(spec):
    """Spec tuple -> FaultEvent (host indices -> deterministic names)."""
    kind = spec[0]
    if kind == "crash":
        return CrashProcess(spec[1], host=_host_name(spec[2]))
    if kind == "nvm":
        return NvmPowerLoss(spec[1], host=_host_name(spec[2]))
    if kind == "flap":
        a, offset = spec[2]
        return LinkFlap(spec[1], a=_host_name(a),
                        b=_host_name(a + offset), duration_ns=spec[3])
    if kind == "partition":
        a, offset = spec[2]
        return Partition(spec[1], side_a=(_host_name(a),),
                         side_b=(_host_name(a + offset),),
                         duration_ns=spec[3])
    if kind == "straggler":
        return StragglerNic(spec[1], host=_host_name(spec[2]),
                            factor=float(spec[3]), duration_ns=spec[4])
    if kind == "composite":
        return CompositeFault(spec[1],
                              parts=tuple(_compile(s) for s in spec[2]))
    raise ValueError(f"unknown spec {spec!r}")


def _replay(plan_spec):
    """Run one plan on a fresh cluster; returns the normalized log.

    Top-level (not nested) so ``sweep(..., jobs=2)`` can pickle it.
    """
    cluster = Cluster(seed=17)
    for index in range(_HOSTS):
        cluster.add_host(_host_name(index))
    plan = FaultPlan([_compile(spec) for spec in plan_spec])
    injector = FaultInjector(cluster, plan)
    injector.start()
    cluster.run(until=2 * _MAX_NS)
    return [(record.scheduled_ns, record.fired_ns, record.skipped,
             record.event.describe()) for record in injector.log]


class TestReplayIdentity:
    @settings(max_examples=25, deadline=None)
    @given(_plan_spec)
    def test_run_to_run_identical(self, plan_spec):
        first = _replay(plan_spec)
        second = _replay(plan_spec)
        assert first == second

    @settings(max_examples=5, deadline=None)
    @given(st.lists(_plan_spec, min_size=2, max_size=3))
    def test_serial_equals_jobs2(self, plan_specs):
        serial = sweep(plan_specs, _replay, jobs=1)
        parallel = sweep(plan_specs, _replay, jobs=2)
        assert serial == parallel


class TestOrderingInvariants:
    @settings(max_examples=40, deadline=None)
    @given(_plan_spec)
    def test_events_never_fire_early_or_out_of_order(self, plan_spec):
        log = _replay(plan_spec)
        fired = [(scheduled, fired_ns) for scheduled, fired_ns, skipped, _d
                 in log if fired_ns >= 0]
        # Never before the trigger time...
        assert all(fired_ns >= scheduled for scheduled, fired_ns in fired)
        # ...and schedule order (the log is in schedule order) is firing
        # order: a later entry never fires before an earlier one.
        times = [fired_ns for _scheduled, fired_ns in fired]
        assert times == sorted(times)

    @settings(max_examples=40, deadline=None)
    @given(_plan_spec)
    def test_every_predicate_free_event_fires(self, plan_spec):
        log = _replay(plan_spec)
        assert all(fired_ns >= 0 and not skipped
                   for _s, fired_ns, skipped, _d in log)
