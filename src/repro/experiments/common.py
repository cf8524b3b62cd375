"""Shared experiment infrastructure.

Every experiment module in this package reproduces one table or figure from
the paper's evaluation (§6) and follows the same conventions:

* ``run(...)`` executes the experiment and returns a list of row dicts —
  the same rows/series the paper plots;
* a module-level ``main()`` prints the rows as a formatted table (the
  benchmark harness and the examples call these);
* op counts default to simulation-friendly sizes and scale via two
  environment variables: ``REPRO_FULL=1`` for paper-sized runs and
  ``REPRO_QUICK=1`` for CI smoke runs.

Testbed construction is delegated to :mod:`repro.cluster` — the
helpers here are thin wrappers that keep the historical experiment-facing
names (``build_testbed``/``make_hyperloop``/``make_naive``) while routing
every group construction through the backend registry, so experiments
never import a group class directly.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Dict, List, Optional, Sequence

from ..backend.base import GroupBase
from ..cluster import (
    DEFAULT_TENANTS_PER_CORE,
    Scenario,
    ScenarioConfig,
    build_scenario,
)
from ..host import Cluster
from ..sim.stats import LatencyRecorder
from ..sim.units import ms, seconds

__all__ = [
    "full_run",
    "quick_run",
    "scaled",
    "Testbed",
    "build_testbed",
    "make_group",
    "make_hyperloop",
    "make_naive",
    "run_until",
    "latency_sweep",
    "throughput_run",
    "format_table",
    "bucket_of",
    "default_bucket_ms",
    "window_mean",
    "count_outage_buckets",
    "phase_timings",
    "DEFAULT_TENANTS_PER_CORE",
]

#: Historical name — experiments call the built scenario a "testbed".
Testbed = Scenario


def full_run() -> bool:
    """True when REPRO_FULL=1 requests paper-sized op counts."""
    return os.environ.get("REPRO_FULL", "") == "1"


def quick_run() -> bool:
    """True when REPRO_QUICK=1 requests CI-smoke-sized op counts."""
    return os.environ.get("REPRO_QUICK", "") == "1"


def scaled(quick: int, full: int) -> int:
    """Pick an op count: ``quick`` normally, ``full`` under REPRO_FULL=1,
    a fraction of ``quick`` under REPRO_QUICK=1 (CI smoke runs)."""
    if full_run():
        return full
    if quick_run():
        return max(20, quick // 20)
    return quick


def build_testbed(replica_count: int = 3, seed: int = 0, cores: int = 16,
                  replica_tenants: int = 0, client_tenants: int = 0,
                  tenant_kind: str = "bursty") -> Testbed:
    """A client plus ``replica_count`` storage servers.

    ``replica_tenants``/``client_tenants`` are CPU-bound threads per host
    emulating the multi-tenant co-location (stress-ng in §6.1, co-located
    database instances in §6.2); ``tenant_kind`` picks the load profile
    (see :meth:`Host.add_tenant_load`).
    """
    return build_scenario(ScenarioConfig(
        replicas=replica_count, seed=seed, cores=cores,
        replica_tenants=replica_tenants, client_tenants=client_tenants,
        tenant_kind=tenant_kind))


def make_group(testbed: Testbed, backend: str, name: str = "",
               **kwargs) -> GroupBase:
    """Build ``backend`` (a registry name) over the testbed's hosts."""
    from .. import backend as backend_registry
    return backend_registry.create(backend, testbed.client, testbed.replicas,
                                   group_name=name, **kwargs)


def make_hyperloop(testbed: Testbed, slots: int = 1024,
                   region_size: int = 32 << 20, **kwargs):
    return make_group(testbed, "hyperloop", slots=slots,
                      region_size=region_size, **kwargs)


def make_naive(testbed: Testbed, mode: str = "event", slots: int = 256,
               region_size: int = 32 << 20, **kwargs):
    return make_group(testbed, "naive", slots=slots,
                      region_size=region_size, mode=mode, **kwargs)


def run_until(cluster: Cluster, done_event, deadline_ns: int) -> None:
    """Advance the simulation until an event triggers (or the deadline).

    Unlike ``run(until=...)`` this stops as soon as the event fires, so
    background load (tenants, pollers) does not keep the clock spinning
    after the measured work completes.

    This is the innermost driver loop of every experiment, so it delegates
    to :meth:`Simulator.run_until`, whose dispatch loop is inlined in the
    kernel (no per-event ``peek()``/``step()`` attribute lookups and method
    calls out here).
    """
    sim = cluster.sim
    sim.run_until(done_event, deadline=sim.now + deadline_ns)


def latency_sweep(group, op: str, size: int, count: int,
                  durable: bool = False,
                  deadline_ns: int = seconds(600)) -> LatencyRecorder:
    """Issue ``count`` operations back-to-back and record each latency.

    This is the paper's latency microbenchmark: "generates 10,000
    operations for each primitive with customized message sizes and
    measures the completion time of each operation" (§6.1).
    """
    recorder = LatencyRecorder(f"{op}/{size}")
    sim = group.sim

    def driver(sim):
        if op in ("gwrite", "gmemcpy"):
            group.write_local(0, b"\xAB" * size)
        for i in range(count):
            if op == "gwrite":
                event = group.gwrite(0, size, durable=durable)
            elif op == "gmemcpy":
                event = group.gmemcpy(0, max(size, 8), size, durable=durable)
            elif op == "gcas":
                current = i % 2
                event = group.gcas(0, current, 1 - current, durable=durable)
            elif op == "gflush":
                event = group.gflush()
            else:
                raise ValueError(f"unknown op {op!r}")
            result = yield event
            recorder.record(result.latency_ns)

    process = sim.process(driver(sim), name=f"bench.{op}")
    run_until(group.client_host.cluster, process, deadline_ns)
    if recorder.count < count:
        raise RuntimeError(
            f"{op}/{size}: only {recorder.count}/{count} ops completed "
            "before the deadline")
    return recorder


def throughput_run(group, size: int, total_bytes: int,
                   window: int = 128,
                   deadline_ns: int = seconds(300)) -> Dict[str, float]:
    """Pipelined gWRITE throughput: write ``total_bytes`` in ``size`` chunks.

    Mirrors §6.1: "writes 1 GB of data in total with customized message
    sizes to backup nodes and we measure the total transmission time".
    Returns ops/sec, goodput and elapsed time.
    """
    count = max(1, total_bytes // size)
    sim = group.sim
    state = {"done": 0, "finished_at": None}

    def driver(sim):
        group.write_local(0, b"\xCD" * size)
        # deque: the pipelined window retires from the head every
        # iteration — list.pop(0) would be O(window) in the hot loop.
        outstanding = deque()
        for _ in range(count):
            outstanding.append(group.gwrite(0, size))
            if len(outstanding) >= window:
                yield outstanding.popleft()
                state["done"] += 1
        for event in outstanding:
            yield event
            state["done"] += 1
        state["finished_at"] = sim.now

    start = sim.now
    process = sim.process(driver(sim), name="bench.tput")
    run_until(group.client_host.cluster, process, deadline_ns)
    if state["finished_at"] is None:
        raise RuntimeError(
            f"throughput run incomplete: {state['done']}/{count} ops")
    elapsed = state["finished_at"] - start
    return {
        "ops": count,
        "elapsed_ns": elapsed,
        "kops_per_sec": count / (elapsed / 1e9) / 1e3,
        "gbps": (count * size * 8) / elapsed,  # bits per ns == Gbps
    }


# ----------------------------------------------------------------------
# Bucketed-timeline helpers (availability / overload / fault experiments)
# ----------------------------------------------------------------------
def bucket_of(now_ns: int, bucket_ms: int, buckets: int) -> int:
    """Timeline bucket index for a completion at ``now_ns``.

    Experiments run one or two grace windows past the measured horizon so
    in-flight work can drain; completions landing there are dropped
    (bucket ``-1``), NOT clamped into the final bucket — clamping would
    inflate it with up to two windows' worth of post-horizon ops.
    """
    index = now_ns // ms(bucket_ms)
    return index if index < buckets else -1


def default_bucket_ms() -> int:
    """Measurement window: 1 ms buckets under REPRO_QUICK, 2 ms default.

    Overload/fault *rates* never scale down — the dynamics live in the
    ratio of offered load to service capacity, which op-count scaling
    would destroy — so quick mode shortens the horizon instead.
    """
    return 1 if quick_run() else 2


def window_mean(values: Sequence[float], start: int, stop: int) -> float:
    """Mean of ``values[start:stop]``; 0.0 for an empty window."""
    window = values[start:stop]
    return sum(window) / len(window) if window else 0.0


def count_outage_buckets(timeline: Sequence[int], from_bucket: int,
                         threshold: int) -> int:
    """Buckets at/after ``from_bucket`` that completed < ``threshold`` ops.

    This is the timeline-side outage measure: how many measurement
    windows ran at less than the given fraction of the offered rate.
    """
    return sum(1 for index, count in enumerate(timeline)
               if index >= from_bucket and count < threshold)


def phase_timings(injected_ns: Optional[int], detected_ns: Optional[int],
                  recovered_ns: Optional[int]) -> Dict[str, Optional[float]]:
    """Split one fault's lifecycle into the two phases that matter.

    Detection latency (fault to watchdog suspicion) is reported
    separately from the total outage (fault to back-in-service): the
    remainder is rebuild + catch-up, and the phases respond to different
    knobs (heartbeat period vs copy bandwidth).  ``None`` stays ``None``
    — a fault that was never detected has no detection latency.
    """
    detection_ms = None
    outage_ms = None
    if injected_ns is not None and detected_ns is not None:
        detection_ms = (detected_ns - injected_ns) / 1e6
    if injected_ns is not None and recovered_ns is not None:
        outage_ms = (recovered_ns - injected_ns) / 1e6
    return {"detection_ms": detection_ms, "outage_ms": outage_ms}


def format_table(rows: Sequence[Dict], columns: Optional[List[str]] = None,
                 title: str = "") -> str:
    """Plain-text table for experiment output."""
    if not rows:
        return f"{title}\n(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered = [[_fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in rendered))
              for i, col in enumerate(columns)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(col.ljust(widths[i])
                           for i, col in enumerate(columns)))
    lines.append("  ".join("-" * widths[i] for i in range(len(columns))))
    for rendered_row in rendered:
        lines.append("  ".join(rendered_row[i].ljust(widths[i])
                               for i in range(len(columns))))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:,.1f}"
    return str(value)
