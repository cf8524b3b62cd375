"""Open-loop load generation: latency vs offered throughput.

The paper's microbenchmarks are closed-loop; systems evaluation also
needs the open-loop view — fire operations at a Poisson arrival rate
regardless of completions, and watch the latency curve bend as offered
load approaches the service capacity.  This module provides that
generator plus a sweep helper used by the ``load`` figure of
:mod:`repro.experiments.claims` (an extension, clearly labeled as beyond
the paper's tables).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..sim.rng import exponential
from ..sim.stats import LatencyRecorder
from ..sim.units import seconds

__all__ = ["OpenLoopConfig", "OpenLoopResult", "open_loop_gwrite",
           "load_sweep", "span_throughput"]


def span_throughput(count: int, first_ns, last_ns) -> float:
    """Ops/sec of ``count`` completions over [first issue, last completion].

    The span runs from the earliest *issue* among the counted samples to
    the latest *completion* — the full wall interval the measured work
    occupied.  Returns 0.0 when there are no samples (or no span
    endpoints, which only happens together).
    """
    if not count or first_ns is None or last_ns is None:
        return 0.0
    return count / (max(1, last_ns - first_ns) / 1e9)


@dataclass
class OpenLoopConfig:
    rate_ops_per_sec: float = 50_000.0
    payload_bytes: int = 512
    operations: int = 2_000
    warmup_fraction: float = 0.1
    durable: bool = False
    max_outstanding: int = 4096   # Safety valve against infinite backlog.


@dataclass
class OpenLoopResult:
    offered_ops_per_sec: float
    achieved_ops_per_sec: float
    recorder: LatencyRecorder
    shed: int   # Arrivals dropped by the outstanding-ops safety valve.

    @property
    def saturated(self) -> bool:
        """Offered load exceeded what the system could absorb."""
        return (self.shed > 0
                or self.achieved_ops_per_sec
                < 0.9 * self.offered_ops_per_sec)


def open_loop_gwrite(group, config: OpenLoopConfig,
                     rng=None) -> OpenLoopResult:
    """Drive gWRITEs at a Poisson arrival rate; returns the result.

    Runs the simulation to completion of all issued operations (plus the
    arrival process), so call on a quiescent cluster.
    """
    sim = group.sim
    rng = rng or group.client_host.cluster.rng.stream("openloop")
    recorder = LatencyRecorder("openloop")
    mean_gap_ns = 1e9 / config.rate_ops_per_sec
    warmup = int(config.operations * config.warmup_fraction)
    state = {"issued": 0, "done": 0, "shed": 0,
             "first": None, "last": None,
             "all_first": None, "all_last": None}
    group.write_local(0, b"\xEE" * config.payload_bytes)
    finished = sim.event()

    def complete(result, index):
        state["done"] += 1
        # Completions can land out of order (slots ACK independently of
        # arrival order under retransmit/fan-out), so the span's start is
        # the *minimum* issue time over the counted samples — not the
        # issue time of whichever completion happened to arrive first.
        issued_at = sim.now - result.latency_ns
        if state["all_first"] is None or issued_at < state["all_first"]:
            state["all_first"] = issued_at
        state["all_last"] = sim.now
        if index >= warmup:
            recorder.record(result.latency_ns)
            if state["first"] is None or issued_at < state["first"]:
                state["first"] = issued_at
            state["last"] = sim.now
        if (state["done"] + state["shed"] == config.operations
                and not finished.triggered):
            finished.succeed()

    def arrivals():
        for index in range(config.operations):
            yield sim.timeout(max(1, int(exponential(rng, mean_gap_ns))))
            if group.in_flight >= config.max_outstanding:
                state["shed"] += 1
                if (state["done"] + state["shed"] == config.operations
                        and not finished.triggered):
                    finished.succeed()
                continue
            state["issued"] += 1
            event = group.gwrite(0, config.payload_bytes,
                                 durable=config.durable)
            event.add_callback(
                lambda e, i=index: complete(e.value, i))

    sim.process(arrivals(), name="openloop.arrivals")
    deadline = sim.now + seconds(600)
    while not finished.triggered and sim.peek() is not None \
            and sim.peek() <= deadline:
        sim.step()
    if not finished.triggered:
        raise RuntimeError(
            f"open-loop run stalled: {state['done']}/{config.operations}")
    achieved = span_throughput(recorder.count, state["first"],
                               state["last"])
    if not recorder.count and state["done"]:
        # Every completion fell inside warmup (tiny runs / large warmup
        # fractions): fall back to the all-completions span rather than
        # reporting zero throughput for work that demonstrably finished.
        achieved = span_throughput(state["done"], state["all_first"],
                                   state["all_last"])
    return OpenLoopResult(
        offered_ops_per_sec=config.rate_ops_per_sec,
        achieved_ops_per_sec=achieved,
        recorder=recorder,
        shed=state["shed"])


def load_sweep(make_group, rates: List[float],
               payload_bytes: int = 512,
               operations: int = 2_000) -> List[Dict]:
    """Latency-vs-offered-load curve: one fresh group per rate point."""
    rows = []
    for rate in rates:
        group = make_group()
        result = open_loop_gwrite(group, OpenLoopConfig(
            rate_ops_per_sec=rate, payload_bytes=payload_bytes,
            operations=operations))
        rows.append({
            "offered_kops": rate / 1e3,
            "achieved_kops": result.achieved_ops_per_sec / 1e3,
            "avg_us": result.recorder.mean_us(),
            "p99_us": result.recorder.percentile_us(99),
            "saturated": result.saturated,
        })
    return rows
