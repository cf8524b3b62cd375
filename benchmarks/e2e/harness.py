"""In-process measurement of one workload: the repeat loop, the determinism
check, and the metric tables.

``run.py`` starts one subprocess per workload and calls :func:`measure` (end
to end, tracing off) or :func:`measure_traced` (per layer) in it.

**Two clocks.**  *Host* metrics are what the simulator costs; they are noisy,
so their sample unit is the *repeat*: the measured phase is re-run on a
fresh cluster with the same inputs until ``--seconds`` have passed (at least
:data:`MIN_REPEATS` times).  The work is deterministic, so all variation
between repeats is interference and only ever adds time: the *best* repeat
is reported (ROADMAP's min-of-k) and the median is kept beside it.
*Simulated* metrics are what the modelled RNIC/NVM/CPU would take; they must
be identical on every repeat, which is the built-in determinism check.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Tuple

from .trace import LAYERS, Recorder, chrome_trace
from .workloads import WORKLOADS, Outcome, Workload

__all__ = ["END_TO_END", "PER_LAYER", "MIN_REPEATS", "measure",
           "measure_traced"]

MIN_REPEATS = 3

_SETUP_PHASES = ("cluster_build", "group_build", "preload")

#: The nine user-visible metrics of the issue, plus ``op_ok_frac`` — the
#: never-zero complement of ``op_fail_frac`` that BENCHMARK.json can gate.
#: name -> (unit, clock, better)
END_TO_END: Dict[str, Tuple[str, str, str]] = {
    "setup_s": ("s", "host", "lower"),
    "total_wall_s": ("s", "host", "lower"),
    "host_us_per_op": ("us/op", "host", "lower"),
    "peak_rss_mb": ("MB", "host", "lower"),
    "sim_p50_us": ("us", "sim", "lower"),
    "sim_p99_us": ("us", "sim", "lower"),
    "sim_kops_per_s": ("kops/s", "sim", "higher"),
    "sim_backup_cpu_pct": ("%", "sim", "lower"),
    "op_fail_frac": ("fraction", "-", "lower"),
    "op_ok_frac": ("fraction", "-", "higher"),
}


def _per_layer_table() -> Dict[str, Tuple[str, str, str]]:
    table: Dict[str, Tuple[str, str, str]] = {}
    for layer in LAYERS:
        table[f"{layer}.self_s"] = ("s", "host", "lower")
        table[f"{layer}.self_frac"] = ("fraction", "host", "lower")
    count = ("count", "-", "lower")
    per_op = ("count/op", "-", "lower")
    table.update({
        "sim.engine.events_per_op": per_op,
        "sim.engine.process_steps_per_op": per_op,
        "sim.engine.host_ns_per_event": ("ns/event", "host", "lower"),
        "sim.cpu.ctx_switches_per_op": per_op,
        "sim.cpu.replica_busy_frac": ("fraction", "sim", "lower"),
        "rdma.wqe.encodes_setup": count,
        "rdma.wqe.encodes_per_op": per_op,
        "rdma.wqe.decodes_per_op": per_op,
        "rdma.driver.posts_setup": count,
        "rdma.driver.posts_per_op": per_op,
        "rdma.driver.peeks_per_op": per_op,
        "rdma.driver.peeks_per_exec": ("ratio", "-", "lower"),
        "rdma.nic.wqes_per_op": per_op,
        "rdma.nic.msgs_per_op": per_op,
        "rdma.nic.rnr_retries": count,
        "rdma.nic.access_errors": count,
        "rdma.fabric.wire_bytes_per_op": ("B/op", "sim", "lower"),
        "nvm.writes_per_op": per_op,
        "nvm.reads_per_op": per_op,
        "nvm.writes_setup": count,
        "nvm.flushes_per_op": per_op,
        "nvm.resident_mb": ("MB", "host", "lower"),
        "backend.group_ops_per_app_op": ("ratio", "-", "lower"),
        "cluster.build_s": ("s", "host", "lower"),
        "cluster.rebalance_sim_ms": ("ms", "sim", "lower"),
        "cluster.lost_writes": count,
        "traffic.shed_frac": ("fraction", "sim", "lower"),
        "traffic.retries_per_good": ("ratio", "sim", "lower"),
        "traffic.goodput_frac": ("fraction", "sim", "higher"),
        "traffic.recovery_ratio": ("ratio", "sim", "higher"),
        "faults.detect_ms": ("ms", "sim", "lower"),
        "faults.outage_ms": ("ms", "sim", "lower"),
        "faults.reconfigs": count,
        "faults.aborted_ops": count,
        "faults.lost_acked_writes": count,
        "faults.duplicate_acks": count,
        "phase.import_s": ("s", "host", "lower"),
        "phase.cluster_build_s": ("s", "host", "lower"),
        "phase.group_build_s": ("s", "host", "lower"),
        "phase.preload_s": ("s", "host", "lower"),
        "phase.steady_s": ("s", "host", "lower"),
        "phase.verify_s": ("s", "host", "lower"),
        "phase.close_s": ("s", "host", "lower"),
        "trace.overhead_x": ("x", "host", "lower"),
        "sim_samples": ("count", "sim", "higher"),
    })
    # The user-visible metrics BENCHMARK.json cannot gate (zero, or not
    # observable, on some workload) ride along with the traced run.
    for name in ("sim_p50_us", "sim_p99_us", "sim_backup_cpu_pct",
                 "op_fail_frac"):
        table[name] = END_TO_END[name]
    return table


#: Single-layer metrics of the traced run.  name -> (unit, clock, better)
PER_LAYER = _per_layer_table()


# ----------------------------------------------------------------------
# One repeat
# ----------------------------------------------------------------------
def _repeat(workload: Workload, inputs: Any, size: Dict[str, int],
            trace: bool = False, corrupt: bool = False
            ) -> Tuple[Recorder, Outcome]:
    """One repeat on a fresh cluster, timed as the span ``repeat``; garbage
    of the previous repeat is collected first so peak RSS does not depend on
    the repeat count."""
    gc.collect()
    rec = Recorder(trace)
    with rec.watch_clusters() if trace else nullcontext():
        with rec.span("repeat"):
            outcome = workload.repeat(rec, inputs, size, corrupt)
    return rec, outcome


def _prepare(name: str, seed: int, tiny: bool
             ) -> Tuple[Workload, Dict[str, int], Any, float]:
    """``(workload, size, inputs, seconds spent generating inputs)``, after
    one discarded warm-up repeat at smoke size: a cold first repeat reads
    ~10 % slow, so the code paths and the allocator are warmed first."""
    workload = WORKLOADS[name]
    if not tiny:
        smoke = workload.sizes["tiny"]
        _repeat(workload, workload.inputs(seed, smoke), smoke)
    size = workload.sizes["tiny" if tiny else "full"]
    start = time.perf_counter()
    inputs = workload.inputs(seed, size)
    return workload, size, inputs, time.perf_counter() - start


def _fingerprint(outcome: Outcome) -> Dict[str, Any]:
    """Everything simulated about a repeat; must not differ between
    repeats of one seed."""
    return {
        "attempted": outcome.attempted, "ok": outcome.ok, "bad": outcome.bad,
        "sim_elapsed_ns": outcome.sim_elapsed_ns,
        "latencies": None if outcome.latencies is None
        else outcome.latencies.samples.tobytes(),
        "backup_cpu_pct": outcome.backup_cpu_pct,
        "replica_busy_frac": outcome.replica_busy_frac,
        "extras": sorted(outcome.extras.items()),
    }


def _sim_metrics(outcome: Outcome) -> Dict[str, Optional[float]]:
    latencies = outcome.latencies
    attempted = max(1, outcome.attempted)
    return {
        "sim_p50_us": None if latencies is None
        else latencies.percentile_us(50),
        "sim_p99_us": None if latencies is None
        else latencies.percentile_us(99),
        "sim_samples": None if latencies is None else latencies.count,
        "sim_kops_per_s": outcome.ok / (outcome.sim_elapsed_ns / 1e9) / 1e3
        if outcome.sim_elapsed_ns else None,
        "sim_backup_cpu_pct": outcome.backup_cpu_pct,
        "op_fail_frac": (outcome.attempted - outcome.ok) / attempted,
        "op_ok_frac": outcome.ok / attempted,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result(workload: Workload, seed: int, mode: str, tiny: bool,
            outcome: Outcome, bad: int, problems: List[str],
            metrics: Dict[str, Optional[float]],
            table: Dict[str, Tuple[str, str, str]]) -> Dict[str, Any]:
    return {
        "workload": workload.name, "seed": seed, "mode": mode, "tiny": tiny,
        "note": workload.note,
        "correct": bad == 0 and not problems, "problems": problems,
        "attempted": outcome.attempted, "failed": bad,
        "metrics": {name: {"value": metrics.get(name), "unit": table[name][0],
                           "clock": table[name][1]} for name in table},
    }


# ----------------------------------------------------------------------
# End to end (tracing off)
# ----------------------------------------------------------------------
def measure(name: str, seed: int, seconds: float, import_s: float,
            tiny: bool = False, corrupt: bool = False) -> Dict[str, Any]:
    """Run ``name`` for ``seconds`` and return its end-to-end result."""
    workload, size, inputs, generate_s = _prepare(name, seed, tiny)
    repeats: List[Tuple[Recorder, Outcome]] = []
    loop_start = time.perf_counter()
    while len(repeats) < MIN_REPEATS \
            or time.perf_counter() - loop_start < seconds:
        repeats.append(_repeat(workload, inputs, size, corrupt=corrupt))
    finale_rec = Recorder()
    finale_bad, _extras = workload.finale(finale_rec, size)
    finale_s = finale_rec.seconds("verify")

    problems: List[str] = []
    first = _fingerprint(repeats[0][1])
    for index, (_rec, outcome) in enumerate(repeats[1:], start=2):
        if _fingerprint(outcome) != first:
            problems.append(f"repeat {index} differs from repeat 1 in "
                            "simulated results (nondeterminism)")
    outcome = repeats[0][1]
    recorders = [rec for rec, _outcome in repeats]
    setup = [sum(rec.seconds(phase) for phase in _SETUP_PHASES)
             for rec in recorders]
    steady = [rec.seconds("steady") for rec in recorders]
    wall = [rec.seconds("repeat") for rec in recorders]
    per_op = [1e6 * steady_s / max(1, outcome.ok) for steady_s in steady]
    metrics = _sim_metrics(outcome)
    metrics.update({
        "setup_s": import_s + generate_s + min(setup),
        "total_wall_s": import_s + generate_s + min(wall) + finale_s,
        "host_us_per_op": min(per_op),
        "peak_rss_mb": _peak_rss_mb(),
    })
    result = _result(workload, seed, "untraced", tiny, outcome,
                     outcome.bad + finale_bad, problems, metrics, END_TO_END)
    result["repeats"] = len(repeats)
    result["samples"] = {
        "import_s": import_s, "generate_s": generate_s, "finale_s": finale_s,
        "setup_s": setup, "steady_s": steady, "repeat_wall_s": wall,
        "host_us_per_op": per_op,
        "host_us_per_op_median": statistics.median(per_op),
        "build_frac": statistics.median(
            s / (s + t) if s + t else 0.0 for s, t in zip(setup, steady)),
        "latency_samples": metrics["sim_samples"],
    }
    return result


# ----------------------------------------------------------------------
# Per layer (one plain repeat, then one profiled repeat)
# ----------------------------------------------------------------------
def _ratio(top: Optional[float], bottom: Optional[float]) -> Optional[float]:
    if top is None or not bottom:
        return None
    return top / bottom


def measure_traced(name: str, seed: int, import_s: float,
                   tiny: bool = False) -> Dict[str, Any]:
    """Per-layer result of ``name``: self time, exact counts, counters."""
    workload, size, inputs, _generate_s = _prepare(name, seed, tiny)
    plain_rec, plain = _repeat(workload, inputs, size)
    rec, outcome = _repeat(workload, inputs, size, trace=True)
    plain_wall, traced_wall = plain_rec.seconds("repeat"), \
        rec.seconds("repeat")
    finale_rec = Recorder()
    finale_bad, finale_extras = workload.finale(finale_rec, size)

    problems: List[str] = []
    if _fingerprint(outcome) != _fingerprint(plain):
        problems.append("the traced repeat differs from the plain repeat in "
                        "simulated results (nondeterminism)")
    ops = max(1, outcome.attempted)
    layer_s = rec.layer_seconds()
    total_s = sum(layer_s.values())
    setup_calls, missing = rec.call_counts("setup")
    steady_calls, _missing = rec.call_counts("steady")
    # Where build happens inside the experiment's run() there is no setup
    # phase to attribute to: those counts are not observable, not zero.
    has_setup = any(plain_rec.seconds(phase) for phase in _SETUP_PHASES)

    def setup_count(probe: str) -> Optional[float]:
        return setup_calls[probe] if has_setup else None

    def delta(key: str) -> Optional[float]:
        return rec.counter_delta("steady", key)

    group_ops = [steady_calls[probe]
                 for probe in ("gwrite", "gcas", "gmemcpy", "gflush")]
    resident = rec.counter_total("steady", "resident_bytes")
    metrics: Dict[str, Optional[float]] = dict(_sim_metrics(plain))
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_s[layer]
        metrics[f"{layer}.self_frac"] = layer_s[layer] / total_s \
            if total_s else None
    metrics.update({
        "sim.engine.events_per_op": _ratio(steady_calls["events"], ops),
        "sim.engine.process_steps_per_op":
            _ratio(steady_calls["process_steps"], ops),
        "sim.engine.host_ns_per_event": _ratio(
            1e9 * plain_rec.seconds("steady"), steady_calls["events"]),
        "sim.cpu.ctx_switches_per_op": _ratio(delta("ctx_switches"), ops),
        "sim.cpu.replica_busy_frac": plain.replica_busy_frac,
        "rdma.wqe.encodes_setup": setup_count("encodes"),
        "rdma.wqe.encodes_per_op": _ratio(steady_calls["encodes"], ops),
        "rdma.wqe.decodes_per_op": _ratio(steady_calls["decodes"], ops),
        "rdma.driver.posts_setup": setup_count("posts"),
        "rdma.driver.posts_per_op": _ratio(steady_calls["posts"], ops),
        "rdma.driver.peeks_per_op": _ratio(steady_calls["peeks"], ops),
        "rdma.driver.peeks_per_exec":
            _ratio(steady_calls["peeks"], delta("wqes")),
        "rdma.nic.wqes_per_op": _ratio(delta("wqes"), ops),
        "rdma.nic.msgs_per_op": _ratio(delta("msgs"), ops),
        "rdma.nic.rnr_retries": delta("rnr_retries"),
        "rdma.nic.access_errors": delta("access_errors"),
        "rdma.fabric.wire_bytes_per_op": _ratio(delta("wire_bytes"), ops),
        "nvm.writes_per_op": _ratio(steady_calls["nvm_writes"], ops),
        "nvm.reads_per_op": _ratio(steady_calls["nvm_reads"], ops),
        "nvm.writes_setup": setup_count("nvm_writes"),
        "nvm.flushes_per_op": _ratio(delta("flushes"), ops),
        "nvm.resident_mb": None if resident is None
        else resident / (1 << 20),
        "backend.group_ops_per_app_op": None if None in group_ops
        else sum(group_ops) / ops,
        "cluster.build_s": plain_rec.seconds("cluster_build")
        + plain_rec.seconds("group_build"),
        "phase.import_s": import_s,
        "phase.verify_s": plain_rec.seconds("verify")
        + finale_rec.seconds("verify"),
        "trace.overhead_x": traced_wall / plain_wall,
    })
    for phase in ("cluster_build", "group_build", "preload", "steady",
                  "close"):
        metrics[f"phase.{phase}_s"] = plain_rec.seconds(phase)
    metrics.update(plain.extras)
    metrics.update(finale_extras)
    result = _result(workload, seed, "traced", tiny, plain,
                     plain.bad + finale_bad, problems, metrics, PER_LAYER)
    result["probes_missing"] = missing
    result["layer_fraction_sum"] = sum(
        metrics[f"{layer}.self_frac"] or 0.0 for layer in LAYERS)
    result["samples"] = {"plain_wall_s": plain_wall,
                         "traced_wall_s": traced_wall}
    result["chrome_trace"] = chrome_trace([
        ("plain", plain_rec), ("traced", rec), ("finale", finale_rec)])
    return result
