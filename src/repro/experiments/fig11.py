"""Figure 11: replicated RocksDB update latency under multi-tenancy.

Paper setup (§6.2): three-replica RocksDB driven by YCSB workload A traces,
co-located with I/O-intensive background tasks at 10:1 threads-to-cores.
Three systems: Naïve-RDMA with event-based completion, Naïve-RDMA with
polling backups, and HyperLoop.

Shape reproduced: HyperLoop's tail is far below both baselines, and —
the paper's interesting inversion — "Naïve-Event has lower average and tail
latency compared to Naïve-Polling as multiple tenants polling
simultaneously increases the contention" (5.7× / 24.2× tail reductions
respectively).
"""

from __future__ import annotations

from typing import Dict, List

from ..apps.rockskv import ReplicatedRocksKV, RocksConfig
from ..core.client import StoreConfig, initialize
from ..sim.units import seconds
from ..workloads import RocksAdapter, YCSBConfig, YCSBRunner, YCSBWorkload
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

__all__ = ["SYSTEMS", "points", "worker", "run", "main"]

SYSTEMS = ["naive-event", "naive-polling", "hyperloop"]

REGION = 96 << 20
WAL = 8 << 20


def _build_group(system: str, testbed):
    # The client host is co-located too, so ACK detection must be
    # event-driven there (a dedicated client polling core would itself be
    # starved by the tenants) — for every system alike.
    if not system.startswith("naive-"):
        return make_group(testbed, system, slots=128, region_size=REGION,
                          client_mode="event")
    mode = system.split("-")[1]
    # Polling baselines burn a polling thread per backup, which competes
    # with the co-located tenants — the effect Figure 11 isolates.
    return make_naive(testbed, mode=mode, slots=128, region_size=REGION,
                      client_mode="event")


def points(op_count: int = None, record_count: int = None,
           seed: int = 12, backend: str = "hyperloop") -> List[tuple]:
    """One point per system: the two Naïve-RDMA modes, then ``backend``."""
    op_count = op_count or scaled(800, 100_000)
    record_count = record_count or scaled(300, 100_000)
    return [(system, op_count, record_count, seed)
            for system in ("naive-event", "naive-polling", backend)]


def worker(point) -> Dict:
    """One system's YCSB-A run on a fresh co-located testbed."""
    system, op_count, record_count, seed = point
    # §6.2's co-location: the background tasks are other database
    # instances — they wake constantly *and* poll, so the replica
    # sockets carry the mixed tenant profile (half bursty wakers,
    # half spinners).  The YCSB side runs "on the remote socket of
    # the same server": present but much lighter.
    testbed = build_testbed(3, seed=seed,
                            replica_tenants=DEFAULT_TENANTS_PER_CORE * 16,
                            tenant_kind="mixed")
    testbed.client.add_tenant_load(32, kind="bursty")
    group = _build_group(system, testbed)
    store = initialize(group, StoreConfig(wal_size=WAL))
    kv = ReplicatedRocksKV(store, RocksConfig())
    workload = YCSBWorkload(YCSBConfig(
        workload="A", record_count=record_count, field_length=1024,
        seed=seed))
    runner = YCSBRunner(workload, RocksAdapter(kv))
    sim = testbed.cluster.sim

    def driver():
        yield from runner.load_phase(sim)
        yield from runner.run_phase(sim, op_count, warmup=op_count // 10)

    process = sim.process(driver(), name=f"fig11.{system}")
    run_until(testbed.cluster, process, seconds(3600))
    if not process.triggered:
        raise RuntimeError(f"fig11 {system}: run did not complete")
    writes = runner.stats.writes()
    return {
        "system": system,
        "ops": writes.count,
        "avg_us": writes.mean_us(),
        "p95_us": writes.percentile_us(95),
        "p99_us": writes.percentile_us(99),
    }


def run(op_count: int = None, record_count: int = None,
        seed: int = 12, backend: str = "hyperloop") -> List[Dict]:
    return sweep(points(op_count, record_count, seed, backend), worker)


def main(backend: str = "hyperloop", jobs: int = 1) -> List[Dict]:
    rows = sweep(points(backend=backend), worker, jobs=jobs)
    print(format_table(rows, title="Figure 11 — replicated RocksDB update "
                                   "latency (YCSB-A, 10:1 co-location)"))
    by_system = {row["system"]: row for row in rows}
    hyper = by_system[backend]["p99_us"]
    print(f"p99 vs hyperloop: naive-event "
          f"{by_system['naive-event']['p99_us'] / hyper:.1f}x (paper 5.7x), "
          f"naive-polling "
          f"{by_system['naive-polling']['p99_us'] / hyper:.1f}x (paper 24.2x)")
    return rows
