"""The paper's shape claims as one executable table.

HyperLoop's evaluation is a set of *shape* claims: who wins, by roughly
what factor, and what stays flat.  Each :class:`Claim` row names one
claim, states what the paper reports, names the figure run it reads,
bounds one number, and reduces the run to that number.  :func:`check`
runs each figure at most once, however many rows read it::

    python -m repro.experiments claims            # print the scorecard
    python -m repro.experiments claims --jobs 2   # sweep points in parallel

The command exits 1 if any claim misses its bound.  Figures scale with
``REPRO_QUICK`` / ``REPRO_FULL`` like everywhere else; the bounds are set
for the default scale, and some of them need its sample counts.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence

from ..sim.units import MiB
from ..workloads.openloop import load_sweep
from . import availability, fig2, fig8, fig9, fig10, fig11, fig12, table2
from .common import (
    build_testbed,
    format_table,
    latency_sweep,
    make_group,
    make_hyperloop,
    make_naive,
    scaled,
    throughput_run,
)

__all__ = ["Claim", "CLAIMS", "FIGURES", "check", "holds", "main"]


@dataclass(frozen=True)
class Claim:
    """One shape claim: ``measure(FIGURES[figure](jobs))`` meets ``bound``.

    ``bound`` is a comparison and a number, e.g. ``"> 50"`` or ``"== 0"``.
    """

    id: str
    paper: str
    figure: str
    bound: str
    measure: Callable[[Any], float]


_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge, "==": operator.eq}


def holds(value: float, bound: str) -> bool:
    """Does ``value`` meet ``bound``?  ``holds(3.0, "> 2")`` is True."""
    comparison, threshold = bound.split()
    return bool(_COMPARE[comparison](value, float(threshold)))


# -- runs that are not a figure module of their own -----------------------
def _flush_cost() -> Dict[bool, float]:
    """Average 1 KB gWRITE latency without / with the interleaved gFLUSH."""
    return {durable: latency_sweep(
        make_hyperloop(build_testbed(3, seed=77)), "gwrite", 1024,
        scaled(500, 5000), durable=durable).mean_us()
        for durable in (False, True)}


def _flush_durability() -> Dict[bool, bool]:
    """Does an ACKed gWRITE survive a power failure of the tail replica?"""
    out = {}
    for durable in (False, True):
        testbed = build_testbed(3, seed=78)
        group = make_hyperloop(testbed)
        sim = testbed.cluster.sim

        def proc(group=group, durable=durable):
            group.write_local(0, b"evidence")
            yield group.gwrite(0, 8, durable=durable)

        process = sim.process(proc())
        while not process.triggered and sim.peek() is not None:
            sim.step()
        if not process.ok:
            raise RuntimeError("flush_durability: the gWRITE failed")
        testbed.replicas[2].fail_power()  # Right after the ACK.
        out[durable] = group.read_replica(2, 0, 8) == b"evidence"
    return out


def _chain_vs_fanout(seed: int, slots, run) -> Dict[str, float]:
    """``run(group)`` on a HyperLoop chain and on a fan-out group (§7)."""
    return {backend: run(make_group(build_testbed(3, seed=seed), backend,
                                    slots=count, region_size=32 << 20))
            for backend, count in zip(("hyperloop", "fanout"), slots)}


def _load_vs_offered() -> List[Dict]:
    """Open-loop 512 B gWRITE latency vs Poisson offered load, idle hosts."""
    operations = scaled(1500, 20_000)
    seeds = itertools.count(61)  # One fresh testbed per rate point.

    def hyperloop():
        return make_hyperloop(build_testbed(3, seed=next(seeds)), slots=1024)

    def naive():
        return make_naive(build_testbed(3, seed=next(seeds)), mode="polling",
                          slots=1024)

    arms = [("hyperloop", hyperloop, [100e3, 400e3, 800e3, 1000e3]),
            ("naive-polling", naive, [100e3, 400e3, 600e3, 800e3])]
    return [{"system": system, **row} for system, make, rates in arms
            for row in load_sweep(make, rates, operations=operations)]


#: Figure key -> the run its claims read, given the ``--jobs`` count.
FIGURES: Dict[str, Callable[[int], Any]] = {
    "fig2a": lambda jobs: fig2.run_replica_set_sweep(counts=[9, 18, 27]),
    "fig2b": lambda jobs: fig2.run_core_sweep(cores=[4, 8, 16]),
    "fig8a": lambda jobs: fig8.run(op="gwrite", count=scaled(1000, 10_000),
                                   jobs=jobs),
    "fig8b": lambda jobs: fig8.run(op="gmemcpy", count=scaled(1000, 10_000),
                                   sizes=[128, 512, 2048, 8192], jobs=jobs),
    "table2": lambda jobs: table2.run(),
    "fig9": lambda jobs: fig9.run(jobs=jobs),
    "fig10": lambda jobs: fig10.run(sizes=[512, 8192],
                                    count=scaled(800, 10_000), jobs=jobs),
    "fig11": lambda jobs: fig11.run(),
    "fig12": lambda jobs: fig12.run(jobs=jobs),
    "flush_cost": lambda jobs: _flush_cost(),
    "flush_durability": lambda jobs: _flush_durability(),
    "fanout_latency": lambda jobs: _chain_vs_fanout(
        55, (1024, 256), lambda group: latency_sweep(
            group, "gwrite", 256, scaled(400, 5000)).mean_us()),
    "fanout_goodput": lambda jobs: _chain_vs_fanout(
        56, (512, 512), lambda group: throughput_run(
            group, 65536, scaled(24, 512) * MiB, window=128)["gbps"]),
    "load": lambda jobs: _load_vs_offered(),
    "availability": lambda jobs: availability.run(),
}


# -- extractors -----------------------------------------------------------
def _col(rows: Sequence[Dict], column: str, system: str) -> List[float]:
    return [row[column] for row in rows if row["system"] == system]


def _ratio(rows: Sequence[Dict], column: str, top: str, bottom: str) -> float:
    by_system = {row["system"]: row for row in rows}
    return by_system[top][column] / by_system[bottom][column]


def _paired(rows: Sequence[Dict], column: str, top: str,
            bottom: str) -> List[float]:
    """``top / bottom`` system's ``column`` at every point both ran."""
    def point(row):
        return tuple(row.get(key) for key in ("size", "group_size",
                                              "workload"))
    tops = {point(row): row[column] for row in rows if row["system"] == top}
    return [tops[point(row)] / row[column] for row in rows
            if row["system"] == bottom]


def _write_reductions(rows: Sequence[Dict]) -> List[float]:
    return [1 - x for x in _paired(rows, "avg_ms", "hyperloop", "native")]


def _rate_after_over_before(result: Dict) -> float:
    timeline, crash = result["timeline"], result["crash_bucket"]
    pre, post = timeline[2:crash], timeline[crash + 4:-1]
    return (sum(post) / len(post)) / (sum(pre) / len(pre))


CLAIMS: List[Claim] = [
    # Figure 2 (§2.2): multi-tenancy is the root cause of the tail.
    Claim("fig2a.p99_grows_with_sets", "rises with sets", "fig2a", "> 1",
          lambda rows: rows[-1]["p99_ms"] / rows[0]["p99_ms"]),
    Claim("fig2a.ctxsw_grow_with_sets", "rise with sets", "fig2a", "> 1",
          lambda rows: rows[-1]["context_switches"]
          / rows[0]["context_switches"]),
    Claim("fig2a.ctxsw_peak_at_27_sets", "peak at 27 sets", "fig2a", "== 1",
          lambda rows: rows[-1]["norm_ctxsw"]),
    Claim("fig2b.p99_falls_with_cores", "falls with cores", "fig2b", "> 1",
          lambda rows: rows[0]["p99_ms"] / rows[-1]["p99_ms"]),
    Claim("fig2b.avg_falls_with_cores", "falls with cores", "fig2b", "> 1",
          lambda rows: rows[0]["avg_ms"] / rows[-1]["avg_ms"]),
    # Figure 8 and Table 2 (§6.1): orders of magnitude off the tail.
    Claim("fig8a.p99_reduction_x", "up to 801.8x", "fig8a", "> 50",
          lambda rows: min(_paired(rows, "p99_us", "naive", "hyperloop"))),
    Claim("fig8a.avg_reduction_x", "~50x", "fig8a", "> 5",
          lambda rows: min(_paired(rows, "avg_us", "naive", "hyperloop"))),
    Claim("fig8a.hyperloop_p99_us", "~10, flat", "fig8a", "< 50",
          lambda rows: max(_col(rows, "p99_us", "hyperloop"))),
    Claim("fig8a.naive_p99_us", "ms-scale", "fig8a", "> 500",
          lambda rows: min(_col(rows, "p99_us", "naive"))),
    Claim("fig8b.p99_reduction_x", "up to 848x", "fig8b", "> 20",
          lambda rows: min(_paired(rows, "p99_us", "naive", "hyperloop"))),
    Claim("table2.hyperloop_p99_us", "14", "table2", "< 50",
          lambda rows: _col(rows, "p99_us", "hyperloop")[0]),
    Claim("table2.hyperloop_avg_us", "10", "table2", "< 30",
          lambda rows: _col(rows, "avg_us", "hyperloop")[0]),
    Claim("table2.avg_reduction_x", "53.9x", "table2", "> 5",
          lambda rows: _ratio(rows, "avg_us", "naive", "hyperloop")),
    Claim("table2.p99_reduction_x", "849x", "table2", "> 50",
          lambda rows: _ratio(rows, "p99_us", "naive", "hyperloop")),
    # Figure 9 (§6.1): throughput parity at ~0 % replica CPU.
    Claim("fig9.throughput_ratio_min", "parity", "fig9", "> 0.5",
          lambda rows: min(_paired(rows, "kops_per_sec", "hyperloop",
                                   "naive-polling"))),
    Claim("fig9.throughput_ratio_max", "parity", "fig9", "< 4",
          lambda rows: max(_paired(rows, "kops_per_sec", "hyperloop",
                                   "naive-polling"))),
    Claim("fig9.hyperloop_gbps", "~56 at 64 KB", "fig9", "> 40",
          lambda rows: max(_col(rows, "goodput_gbps", "hyperloop"))),
    Claim("fig9.naive_backup_cpu_pct", "~100", "fig9", "> 90",
          lambda rows: min(_col(rows, "backup_cpu_pct", "naive-polling"))),
    Claim("fig9.hyperloop_backup_cpu_pct", "~0", "fig9", "== 0",
          lambda rows: max(_col(rows, "backup_cpu_pct", "hyperloop"))),
    # Figure 10 (§6.1): HyperLoop's tail stays flat as the chain grows.
    Claim("fig10.hyperloop_p99_us", "flat", "fig10", "< 100",
          lambda rows: max(_col(rows, "p99_us", "hyperloop"))),
    Claim("fig10.hyperloop_growth_x", "~flat", "fig10", "< 3",
          lambda rows: fig10.tail_growth(rows, "hyperloop")),
    Claim("fig10.naive_over_hyperloop_p99_x", "orders", "fig10", "> 10",
          lambda rows: min(_paired(rows, "p99_us", "naive", "hyperloop"))),
    # Figure 11 (§6.2): RocksDB, and polling is no cure.
    Claim("fig11.event_over_hyperloop_p99_x", "5.7x", "fig11", "> 2",
          lambda rows: _ratio(rows, "p99_us", "naive-event", "hyperloop")),
    Claim("fig11.polling_over_hyperloop_p99_x", "24.2x", "fig11", "> 2",
          lambda rows: _ratio(rows, "p99_us", "naive-polling", "hyperloop")),
    Claim("fig11.polling_over_event_p99_x", "4.2x", "fig11", "> 0.5",
          lambda rows: _ratio(rows, "p99_us", "naive-polling",
                              "naive-event")),
    # Figure 12 (§6.2): MongoDB insert/update latency.
    Claim("fig12.write_reduction_min", "never slower", "fig12", "> -0.05",
          lambda rows: min(_write_reductions(rows))),
    Claim("fig12.write_reduction_max", "up to 0.79", "fig12", "> 0.3",
          lambda rows: max(_write_reductions(rows))),
    Claim("fig12.tail_gap_reduction_max", "up to 0.81", "fig12", "> 0.3",
          lambda rows: max(fig12.tail_gap_reduction(rows).values())),
    Claim("fig12.write_samples_min", "n/a", "fig12", ">= 100",
          lambda rows: min(row["ops"] for row in rows)),
    # gFLUSH (§4.2): what the interleaved flush costs and buys.
    Claim("flush.durable_over_volatile_avg_x", "costs", "flush_cost", ">= 1",
          lambda avg: avg[True] / avg[False]),
    Claim("flush.durable_over_volatile_avg_x_max", "same order",
          "flush_cost", "< 5", lambda avg: avg[True] / avg[False]),
    Claim("flush.durable_survives_power_loss", "survives",
          "flush_durability", "== 1", lambda survived: survived[True]),
    Claim("flush.volatile_survives_power_loss", "lost",
          "flush_durability", "== 0", lambda survived: survived[False]),
    # Chain vs fan-out (§7): fan-out has fewer hops, the chain spreads load.
    Claim("fanout.chain_over_fanout_avg_x", "fan-out faster",
          "fanout_latency", "> 1",
          lambda avg: avg["hyperloop"] / avg["fanout"]),
    Claim("fanout.chain_over_fanout_gbps_x", "chain faster",
          "fanout_goodput", "> 1",
          lambda gbps: gbps["hyperloop"] / gbps["fanout"]),
    # Extensions: latency vs offered load, availability through a repair.
    Claim("load.hyperloop_low_load_avg_us", "~10", "load", "< 15",
          lambda rows: _col(rows, "avg_us", "hyperloop")[0]),
    Claim("load.hyperloop_avg_growth_x", "bends up", "load", "> 1",
          lambda rows: _col(rows, "avg_us", "hyperloop")[-1]
          / _col(rows, "avg_us", "hyperloop")[0]),
    Claim("load.delivered_error", "delivered", "load", "< 0.15",
          lambda rows: max(abs(row["achieved_kops"] - row["offered_kops"])
                           / row["offered_kops"] for row in rows[:2])),
    Claim("availability.min_ops_before_crash", "steady", "availability",
          "> 0", lambda result: min(
              result["timeline"][2:result["crash_bucket"]])),
    Claim("availability.outage_buckets", "bounded", "availability", "<= 5",
          lambda result: result["outage_buckets"]),
    Claim("availability.rate_after_over_before", "full rate",
          "availability", "> 0.8", _rate_after_over_before),
    Claim("availability.lost_acked_writes", "0", "availability", "== 0",
          lambda result: result["lost_acked_writes"]),
    Claim("availability.repairs", "1", "availability", "== 1",
          lambda result: result["repairs"]),
]


def check(jobs: int = 1) -> List[Dict]:
    """One scorecard row per claim; each figure runs once, on first use."""
    results: Dict[str, Any] = {}
    rows = []
    for claim in CLAIMS:
        if claim.figure not in results:
            results[claim.figure] = FIGURES[claim.figure](jobs)
        value = float(claim.measure(results[claim.figure]))
        rows.append({"claim": claim.id, "paper": claim.paper,
                     "measured": _number(value), "bound": claim.bound,
                     "ok": "yes" if holds(value, claim.bound) else "NO"})
    return rows


def _number(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.3g}"


def main(jobs: int = 1) -> int:
    """Print the scorecard; 1 if any claim misses its bound, else 0."""
    rows = check(jobs=jobs)
    failed = sum(row["ok"] != "yes" for row in rows)
    print(format_table(rows, title="Paper claims scorecard"))
    print(f"{len(rows) - failed}/{len(rows)} claims hold")
    return 1 if failed else 0
