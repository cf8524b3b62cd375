"""Figure 12: MongoDB latency across YCSB workloads, native vs HyperLoop.

Paper setup (§6.2): a chain of three replicas, multi-tenant co-location at
10:1 processes-to-cores on every machine, YCSB workloads A/B/D/E/F.
Native replication is CPU-driven (polling backups); the HyperLoop version
offloads replication, log execution and locking to the NICs.

Shape reproduced: HyperLoop cuts insert/update latency (the paper reports
up to 79% average reduction) and narrows the average-to-99th-percentile
gap (by up to 81%); the remaining latency is the client-side front-end
cost, which NIC offload cannot remove.  Rows report exactly that: the
latency of the updates, inserts and read-modify-writes of each run
(``RunStats.writes()``), with ``ops`` the number of writes measured.
"""

from __future__ import annotations

from typing import Dict, List

from ..apps.mongolike import MongoConfig, MongoLikeDB
from ..core.client import StoreConfig, initialize
from ..sim.units import seconds, us
from ..workloads import MongoAdapter, YCSBConfig, YCSBRunner, YCSBWorkload
from .common import (
    DEFAULT_TENANTS_PER_CORE,
    build_testbed,
    format_table,
    make_group,
    make_naive,
    run_until,
    scaled,
)
from .parallel import sweep

__all__ = ["WORKLOADS", "OP_COUNTS", "points", "worker", "run", "main",
           "tail_gap_reduction"]

WORKLOADS = ["A", "B", "D", "E", "F"]
#: Operations per point, sized so every workload measures at least 100
#: writes at default scale: A and F are 50 % writes, B, D and E only 5 %.
OP_COUNTS = {"A": 500, "B": 3000, "D": 3000, "E": 3000, "F": 500}
REGION = 96 << 20
WAL = 8 << 20
MONGO_HANDLER_NS = us(60)


def _build(system: str, testbed, backend: str):
    if system == "native":
        return make_naive(testbed, mode="polling", slots=256,
                          region_size=REGION,
                          handler_parse_ns=MONGO_HANDLER_NS)
    return make_group(testbed, backend, slots=256, region_size=REGION)


def worker(point) -> Dict:
    """One (system, workload) point: fresh testbed, load + run phases."""
    (system, letter, op_count, record_count, max_scan_length, seed,
     backend) = point
    tenants = DEFAULT_TENANTS_PER_CORE * 16
    testbed = build_testbed(3, seed=seed, replica_tenants=tenants,
                            client_tenants=tenants)
    group = _build(system, testbed, backend)
    store = initialize(group, StoreConfig(wal_size=WAL))
    db = MongoLikeDB(store, MongoConfig())
    workload = YCSBWorkload(YCSBConfig(
        workload=letter, record_count=record_count,
        field_length=1024, seed=seed, max_scan_length=max_scan_length))
    runner = YCSBRunner(workload, MongoAdapter(db))
    sim = testbed.cluster.sim

    def driver(sim=sim, runner=runner):
        yield from runner.load_phase(sim)
        yield from runner.run_phase(sim, op_count,
                                    warmup=op_count // 10)

    process = sim.process(driver(), name=f"fig12.{system}.{letter}")
    run_until(testbed.cluster, process, seconds(7200))
    if not process.triggered:
        raise RuntimeError(
            f"fig12 {system}/{letter}: run did not complete")
    writes = runner.stats.writes()
    return {
        "system": system,
        "workload": letter,
        "ops": writes.count,
        "avg_ms": writes.mean_us() / 1000,
        "p95_ms": writes.percentile_us(95) / 1000,
        "p99_ms": writes.percentile_us(99) / 1000,
    }


def points(workloads=None, op_count: int = None, record_count: int = None,
           seed: int = 13, backend: str = "hyperloop") -> List[tuple]:
    workloads = workloads or WORKLOADS
    record_count = record_count or scaled(150, 100_000)
    return [(system, letter,
             op_count or scaled(OP_COUNTS[letter], 100_000),
             record_count, scaled(20, 100), seed, backend)
            for system in ("native", backend) for letter in workloads]


def run(workloads=None, op_count: int = None, record_count: int = None,
        seed: int = 13, backend: str = "hyperloop",
        jobs: int = 1) -> List[Dict]:
    """One row per (system, workload): write latency in ms.

    ``op_count`` overrides :data:`OP_COUNTS` for every workload.
    """
    return sweep(points(workloads, op_count, record_count, seed, backend),
                 worker, jobs=jobs)


def tail_gap_reduction(rows: List[Dict]) -> Dict[str, float]:
    """Reduction of the avg→p99 gap, native → HyperLoop, per workload."""
    out: Dict[str, float] = {}
    for letter in sorted({row["workload"] for row in rows}):
        native = next(r for r in rows if r["system"] == "native"
                      and r["workload"] == letter)
        hyper = next(r for r in rows if r["system"] != "native"
                     and r["workload"] == letter)
        native_gap = native["p99_ms"] - native["avg_ms"]
        hyper_gap = hyper["p99_ms"] - hyper["avg_ms"]
        if native_gap > 0:
            out[letter] = 1.0 - hyper_gap / native_gap
    return out


def main(backend: str = "hyperloop", jobs: int = 1) -> List[Dict]:
    rows = run(backend=backend, jobs=jobs)
    print(format_table(rows, title="Figure 12 — MongoDB write latency, "
                                   "native vs HyperLoop replication (YCSB)"))
    reductions = []
    for letter in WORKLOADS:
        native = next(r for r in rows if r["system"] == "native"
                      and r["workload"] == letter)
        hyper = next(r for r in rows if r["system"] != "native"
                     and r["workload"] == letter)
        reductions.append(1.0 - hyper["avg_ms"] / native["avg_ms"])
    gaps = tail_gap_reduction(rows)
    print(f"avg write latency reduction up to {100 * max(reductions):.0f}% "
          "(paper: up to 79%); avg→p99 gap reduction up to "
          f"{100 * max(gaps.values()):.0f}% (paper: up to 81%)")
    return rows
