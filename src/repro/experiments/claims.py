"""The paper's shape claims as one executable table.

HyperLoop's evaluation is a set of *shape* claims: who wins, by roughly
what factor, and what stays flat.  Beside them sit the absolute anchors
the simulator's parameters were tuned against (verbs WRITE round trip,
latency per chain hop, the NIC message-rate ceiling, CPU wake-up delay
under tenant load), so a drifting anchor fails as loudly as a claim.
Each :class:`Claim` row names one claim, states what the paper reports,
names the figure run it reads, bounds one number, and reduces the run
to that number.  :func:`check` puts every point of every figure the rows
read into one sweep, heaviest figures first, and reduces each figure
once, however many rows read it::

    python -m repro.experiments claims            # print the scorecard
    python -m repro.experiments claims --jobs 2   # sweep points in parallel

The command exits 1 if any claim misses its bound.  Figures scale with
``REPRO_QUICK`` / ``REPRO_FULL`` like everywhere else; the bounds are set
for the default scale, and some of them need its sample counts.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Collection, Dict, List, Sequence, Tuple

from ..host import Cluster
from ..rdma.verbs import Access
from ..rdma.wqe import Opcode, Sge, WorkRequest
from ..sim.stats import LatencyRecorder
from ..sim.units import MiB, ms, us
from ..workloads.openloop import OpenLoopConfig, open_loop_gwrite
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
from .parallel import sweep

__all__ = ["Claim", "CLAIMS", "Figure", "FIGURES", "check", "holds",
           "main", "results"]


@dataclass(frozen=True)
class Claim:
    """One shape claim: ``measure`` of its figure's result meets ``bound``.

    ``bound`` is a comparison and a number, e.g. ``"> 50"`` or ``"== 0"``.
    """

    id: str
    paper: str
    figure: str
    bound: str
    measure: Callable[[Any], float]


@dataclass(frozen=True)
class Figure:
    """A figure run: ``reduce([worker(point) for point in points()])``.

    ``points()`` runs at check time, so op counts follow ``REPRO_QUICK``;
    a row is a function of its point alone, so any process may run it.
    Rows are JSON values (a ``[key, value]`` pair for a ``dict`` reduce),
    so the sweep journal can keep them.
    """

    points: Callable[[], List[Any]]
    worker: Callable[[Any], Any]
    reduce: Callable[[List[Any]], Any] = list


_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge, "==": operator.eq}


def holds(value: float, bound: str) -> bool:
    """Does ``value`` meet ``bound``?  ``holds(3.0, "> 2")`` is True."""
    comparison, threshold = bound.split()
    return bool(_COMPARE[comparison](value, float(threshold)))


# -- points ---------------------------------------------------------------
def _fixed(*points: Any) -> Callable[[], List[Any]]:
    """Points that do not scale."""
    return partial(list, points)


def _scaled(grid: List[tuple], quick: int, full: int) -> List[tuple]:
    """``grid``, each point ending in the op count for this scale."""
    return [(*point, scaled(quick, full)) for point in grid]


def _at_count(points: Callable[..., List[Any]], quick: int,
              **kwargs: Any) -> List[Any]:
    """A figure module's points at the op count the bounds were set for."""
    return points(count=scaled(quick, 10_000), **kwargs)


#: The load figure's (system, seed, offered ops/s): a fresh testbed, and
#: seed, per rate point.
_LOAD_GRID = [("hyperloop", 61, 100e3), ("hyperloop", 62, 400e3),
              ("hyperloop", 63, 800e3), ("hyperloop", 64, 1000e3),
              ("naive-polling", 65, 100e3), ("naive-polling", 66, 400e3),
              ("naive-polling", 67, 600e3), ("naive-polling", 68, 800e3)]


# -- workers of the runs that are not a figure module of their own --------
def _flush_cost(point: Tuple[bool, int]) -> List[Any]:
    """Average 1 KB gWRITE latency without / with the interleaved gFLUSH."""
    durable, count = point
    return [durable, latency_sweep(
        make_hyperloop(build_testbed(3, seed=77)), "gwrite", 1024, count,
        durable=durable).mean_us()]


def _flush_durability(durable: bool) -> List[bool]:
    """Does an ACKed gWRITE survive a power failure of the tail replica?"""
    testbed = build_testbed(3, seed=78)
    group = make_hyperloop(testbed)
    sim = testbed.cluster.sim

    def proc():
        group.write_local(0, b"evidence")
        yield group.gwrite(0, 8, durable=durable)

    process = sim.process(proc())
    sim.run_until(process)
    if not process.ok:
        raise RuntimeError("flush_durability: the gWRITE failed")
    testbed.replicas[2].fail_power()  # Right after the ACK.
    return [durable, group.read_replica(2, 0, 8) == b"evidence"]


def _p2p_write_rtt(seed: int) -> float:
    """Average of 200 64 B verbs WRITE round trips between idle hosts."""
    cluster = Cluster(seed=seed)
    a, b = cluster.add_host("cal-a"), cluster.add_host("cal-b")
    cq, cq_b = a.nic.create_cq(), b.nic.create_cq()
    qp_a = a.nic.create_qp(cq, cq, sq_slots=16, rq_slots=16)
    qp_a.connect(b.nic.create_qp(cq_b, cq_b, sq_slots=16, rq_slots=16))
    src = a.memory.allocate(4096, "cal")
    dst = b.memory.allocate(4096, "cal")
    mr = b.nic.register_mr(dst.address, 4096, Access.REMOTE_WRITE)
    recorder = LatencyRecorder("p2p")

    def send(done: int) -> None:
        sent_at = cluster.sim.now
        qp_a.post_send(WorkRequest(Opcode.WRITE, [Sge(src.address, 64)],
                                   remote_addr=dst.address, rkey=mr.rkey))

        def on_completion() -> None:
            recorder.record(cluster.sim.now - sent_at)
            if done + 1 < 200:
                send(done + 1)

        cq.subscribe_count(done + 1, on_completion)

    send(0)
    cluster.run(until=ms(100))
    return recorder.mean_us()


def _wakeup_p99(tenants: int) -> List[Any]:
    """p99 wake-up delay of 300 2 µs jobs 700 µs apart beside ``tenants``."""
    cluster = Cluster(seed=104 + tenants)
    host = cluster.add_host("cal-cpu")
    if tenants:
        host.add_tenant_load(tenants)
    recorder = LatencyRecorder("wakeup")
    sim = cluster.sim
    thread = host.spawn_thread("probe")

    def probe():
        for _ in range(300):
            yield sim.timeout(us(700))
            start = sim.now
            yield thread.run(2_000)
            recorder.record(sim.now - start - 2_000)

    sim.run_until(sim.process(probe()))
    return [tenants, recorder.percentile_us(99)]


def _fanout_latency(point: Tuple[str, int, int]) -> List[Any]:
    """256 B gWRITE average of a HyperLoop chain or a fan-out group (§7)."""
    backend, slots, count = point
    group = make_group(build_testbed(3, seed=55), backend, slots=slots,
                       region_size=32 << 20)
    return [backend, latency_sweep(group, "gwrite", 256, count).mean_us()]


def _fanout_goodput(point: Tuple[str, int, int]) -> List[Any]:
    """64 KB gWRITE goodput of a HyperLoop chain or a fan-out group."""
    backend, slots, total_mib = point
    group = make_group(build_testbed(3, seed=56), backend, slots=slots,
                       region_size=32 << 20)
    return [backend, throughput_run(group, 65536, total_mib * MiB,
                                    window=128)["gbps"]]


def _load_worker(point: Tuple[str, int, float, int]) -> Dict:
    """Open-loop 512 B gWRITE latency at one Poisson load, idle hosts."""
    system, seed, rate, operations = point
    testbed = build_testbed(3, seed=seed)
    group = make_hyperloop(testbed, slots=1024) if system == "hyperloop" \
        else make_naive(testbed, mode="polling", slots=1024)
    result = open_loop_gwrite(group, OpenLoopConfig(
        rate_ops_per_sec=rate, payload_bytes=512, operations=operations))
    return {
        "system": system,
        "offered_kops": rate / 1e3,
        "achieved_kops": result.achieved_ops_per_sec / 1e3,
        "avg_us": result.recorder.mean_us(),
        "p99_us": result.recorder.percentile_us(99),
        "saturated": result.saturated,
    }


_only = operator.itemgetter(0)

#: Figure key -> the run its claims read.  :func:`results` sweeps their
#: points in this order: heaviest first, so the short ones fill in last.
FIGURES: Dict[str, Figure] = {
    "fig9": Figure(fig9.points, fig9.worker),
    "fig2a": Figure(partial(fig2.replica_set_points, [9, 18, 27]),
                    fig2.worker, fig2.normalize),
    "fig2b": Figure(partial(fig2.core_points, [4, 8, 16]), fig2.worker,
                    fig2.normalize),
    "fig12": Figure(fig12.points, fig12.worker),
    "fig10": Figure(partial(_at_count, fig10.points, 800, sizes=[512, 8192]),
                    fig10.worker),
    "fig8a": Figure(partial(_at_count, fig8.points, 1000, op="gwrite"),
                    fig8.worker),
    "fig11": Figure(fig11.points, fig11.worker),
    "availability": Figure(availability.points, availability.worker, _only),
    "fig8b": Figure(partial(_at_count, fig8.points, 1000, op="gmemcpy",
                            sizes=[128, 512, 2048, 8192]), fig8.worker),
    "load": Figure(partial(_scaled, _LOAD_GRID, 1500, 20_000), _load_worker),
    "table2": Figure(table2.points, table2.worker),
    "fanout_goodput": Figure(
        partial(_scaled, [("hyperloop", 512), ("fanout", 512)], 24, 512),
        _fanout_goodput, dict),
    "fanout_latency": Figure(
        partial(_scaled, [("hyperloop", 1024), ("fanout", 256)], 400, 5000),
        _fanout_latency, dict),
    "flush_cost": Figure(partial(_scaled, [(False,), (True,)], 500, 5000),
                         _flush_cost, dict),
    "wakeup": Figure(_fixed(0, 160), _wakeup_p99, dict),
    "flush_durability": Figure(_fixed(False, True), _flush_durability, dict),
    "p2p_rtt": Figure(_fixed(101), _p2p_write_rtt, _only),
}


def _run_tagged(tagged: Tuple[str, Any]) -> Any:
    """The row of a point tagged with its figure's key."""
    key, point = tagged
    return FIGURES[key].worker(point)


def results(keys: Collection[str], jobs: int = 1) -> Dict[str, Any]:
    """Each figure in ``keys``, reduced, from one sweep in FIGURES order."""
    grids = {key: FIGURES[key].points() for key in FIGURES if key in keys}
    rows = iter(sweep([(key, point) for key, grid in grids.items()
                       for point in grid], _run_tagged, jobs=jobs))
    return {key: FIGURES[key].reduce([next(rows) for _point in grid])
            for key, grid in grids.items()}


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


def _hyperloop_1k_kops(rows: Sequence[Dict]) -> float:
    return next(row["kops_per_sec"] for row in rows
                if row["system"] == "hyperloop" and row["size"] == 1024)


def _per_hop_us(rows: Sequence[Dict]) -> float:
    """HyperLoop's 512 B average latency per replica added to the chain."""
    avg = {row["group_size"]: row["avg_us"] for row in rows
           if row["system"] == "hyperloop" and row["size"] == 512}
    smallest, largest = min(avg), max(avg)
    return (avg[largest] - avg[smallest]) / (largest - smallest)


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
    Claim("fig9.hyperloop_1k_kops_min", "msg-rate bound", "fig9", "> 870",
          _hyperloop_1k_kops),
    Claim("fig9.hyperloop_1k_kops_max", "msg-rate bound", "fig9", "< 1450",
          _hyperloop_1k_kops),
    # Figure 10 (§6.1): HyperLoop's tail stays flat as the chain grows.
    Claim("fig10.hyperloop_p99_us", "flat", "fig10", "< 100",
          lambda rows: max(_col(rows, "p99_us", "hyperloop"))),
    Claim("fig10.hyperloop_growth_x", "~flat", "fig10", "< 3",
          lambda rows: fig10.tail_growth(rows, "hyperloop")),
    Claim("fig10.naive_over_hyperloop_p99_x", "orders", "fig10", "> 10",
          lambda rows: min(_paired(rows, "p99_us", "naive", "hyperloop"))),
    Claim("fig10.hyperloop_per_hop_us_min", "few us", "fig10", "> 1",
          _per_hop_us),
    Claim("fig10.hyperloop_per_hop_us_max", "few us", "fig10", "< 6",
          _per_hop_us),
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
    # Calibration anchors: the micro-quantities the parameters were tuned on.
    Claim("calib.p2p_write_rtt_us_min", "few us", "p2p_rtt", "> 1",
          lambda rtt: rtt),
    Claim("calib.p2p_write_rtt_us_max", "few us", "p2p_rtt", "< 6",
          lambda rtt: rtt),
    Claim("calib.wakeup_p99_us_idle", "none", "wakeup", "< 1",
          lambda p99: p99[0]),
    Claim("calib.wakeup_p99_us_160_tenants", "ms-scale", "wakeup", "> 1000",
          lambda p99: p99[160]),
]


def check(jobs: int = 1) -> List[Dict]:
    """One scorecard row per claim; one sweep runs every figure they read."""
    result = results({claim.figure for claim in CLAIMS}, jobs=jobs)
    rows = []
    for claim in CLAIMS:
        value = float(claim.measure(result[claim.figure]))
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
