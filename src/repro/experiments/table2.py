"""Table 2: gCAS latency, Naïve-RDMA vs HyperLoop.

Paper numbers (µs)::

                 Average   95th percentile   99th percentile
    Naïve-RDMA     539          3928              11886
    HyperLoop       10            13                 14

Setup matches Figure 8's microbenchmark: group size 3, replicas under
CPU-intensive tenant load, 10,000 gCAS operations.
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

__all__ = ["points", "worker", "run", "main", "PAPER"]

PAPER = {
    "naive": {"avg_us": 539.0, "p95_us": 3928.0, "p99_us": 11886.0},
    "hyperloop": {"avg_us": 10.0, "p95_us": 13.0, "p99_us": 14.0},
}


def points(count: int = None, seed: int = 11,
           backend: str = "hyperloop") -> List[tuple]:
    """One point per system: Naïve-RDMA, then ``backend``."""
    count = count or scaled(1500, 10_000)
    return [(system, count, seed) for system in ("naive", backend)]


def worker(point) -> Dict:
    """One system's gCAS latency on a fresh testbed."""
    system, count, seed = point
    tenants = DEFAULT_TENANTS_PER_CORE * 16
    testbed = build_testbed(3, seed=seed, replica_tenants=tenants)
    group = make_naive(testbed, mode="event") if system == "naive" \
        else make_group(testbed, system, slots=1024, region_size=32 << 20)
    summary = latency_sweep(group, "gcas", 8, count).summary_us()
    paper = PAPER.get(system, PAPER["hyperloop"])
    return {
        "system": system,
        "avg_us": summary["avg_us"],
        "p95_us": summary["p95_us"],
        "p99_us": summary["p99_us"],
        "paper_avg_us": paper["avg_us"],
        "paper_p99_us": paper["p99_us"],
    }


def run(count: int = None, seed: int = 11,
        backend: str = "hyperloop") -> List[Dict]:
    return sweep(points(count, seed, backend), worker)


def main(backend: str = "hyperloop", jobs: int = 1) -> List[Dict]:
    rows = sweep(points(backend=backend), worker, jobs=jobs)
    print(format_table(rows, title="Table 2 — gCAS latency (group size 3)"))
    naive, hyper = rows[0], rows[1]
    print(f"avg reduction {naive['avg_us'] / hyper['avg_us']:,.0f}x "
          f"(paper 53.9x), p99 reduction "
          f"{naive['p99_us'] / hyper['p99_us']:,.0f}x (paper 849x)")
    return rows
