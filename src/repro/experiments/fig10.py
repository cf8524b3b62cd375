"""Figure 10: 99th-percentile gWRITE latency vs replication group size.

Paper setup (§6.1): group sizes 3, 5 and 7; message sizes 128 B – 8 KB;
latency measured "from a client that sends a ping into the chain".

Shape reproduced: Naïve-RDMA's tail grows with group size (up to 2.97× in
the paper — every added hop is another CPU wakeup that can go bad), while
HyperLoop shows "no significant performance degradation as the group size
increases" because added hops only add NIC+wire time.
"""

from __future__ import annotations

from typing import Dict, List

from .common import (
    DEFAULT_TENANTS_PER_CORE,
    build_testbed,
    format_table,
    latency_sweep,
    make_group,
    make_naive,
    scaled,
)
from .parallel import sweep

__all__ = ["GROUP_SIZES", "MESSAGE_SIZES", "points", "worker", "run", "main"]

GROUP_SIZES = [3, 5, 7]
MESSAGE_SIZES = [128, 512, 2048, 8192]


def worker(point) -> Dict:
    """One (system, group_size, size) point on a fresh testbed."""
    system, group_size, size, count, seed, backend = point
    tenants = DEFAULT_TENANTS_PER_CORE * 16
    testbed = build_testbed(group_size, seed=seed,
                            replica_tenants=tenants)
    if system == "naive":
        group = make_naive(testbed, mode="event")
    else:
        group = make_group(testbed, backend, slots=1024,
                           region_size=32 << 20)
    recorder = latency_sweep(group, "gwrite", size, count)
    return {
        "system": system,
        "group_size": group_size,
        "size": size,
        "avg_us": recorder.mean_us(),
        "p99_us": recorder.percentile_us(99),
    }


def points(group_sizes=None, sizes=None, count: int = None,
           seed: int = 10, backend: str = "hyperloop") -> List[tuple]:
    group_sizes = group_sizes or GROUP_SIZES
    sizes = sizes or MESSAGE_SIZES
    count = count or scaled(1200, 10_000)
    return [(system, group_size, size, count, seed, backend)
            for system in ("naive", backend)
            for group_size in group_sizes
            for size in sizes]


def run(group_sizes=None, sizes=None, count: int = None,
        seed: int = 10, backend: str = "hyperloop",
        jobs: int = 1) -> List[Dict]:
    return sweep(points(group_sizes, sizes, count, seed, backend), worker,
                 jobs=jobs)


def tail_growth(rows: List[Dict], system: str) -> float:
    """Max p99(group=max)/p99(group=min) ratio across message sizes."""
    sizes = sorted({row["size"] for row in rows})
    groups = sorted({row["group_size"] for row in rows})
    worst = 0.0
    for size in sizes:
        small = next(r for r in rows if r["system"] == system
                     and r["group_size"] == groups[0] and r["size"] == size)
        large = next(r for r in rows if r["system"] == system
                     and r["group_size"] == groups[-1] and r["size"] == size)
        worst = max(worst, large["p99_us"] / small["p99_us"])
    return worst


def main(backend: str = "hyperloop", jobs: int = 1) -> List[Dict]:
    rows = run(backend=backend, jobs=jobs)
    print(format_table(rows, title="Figure 10 — p99 gWRITE latency vs "
                                   "group size"))
    print(f"p99 growth 3→7 replicas: naive {tail_growth(rows, 'naive'):.2f}x "
          f"(paper: up to 2.97x), {backend} "
          f"{tail_growth(rows, backend):.2f}x (paper: ~flat)")
    return rows
