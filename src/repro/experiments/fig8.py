"""Figure 8: gWRITE / gMEMCPY latency vs message size.

Paper setup (§6.1): group size 3, message sizes 128 B – 8 KB, 10,000
operations per point, replicas under CPU-intensive background load
(stress-ng); Naïve-RDMA's client uses a pinned core, HyperLoop's replicas
need none.  Reported: average and 99th-percentile latency per size.

Headline result reproduced: HyperLoop's 99th percentile stays flat at
~10 µs while Naïve-RDMA's reaches milliseconds — a 2–3 order-of-magnitude
reduction (the paper reports up to 801.8× for gWRITE, 848× for gMEMCPY).
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

__all__ = ["MESSAGE_SIZES", "points", "worker", "run", "main"]

MESSAGE_SIZES = [128, 256, 512, 1024, 2048, 4096, 8192]


def worker(point) -> Dict:
    """One (system, size) point: fresh testbed, full latency sweep."""
    system, size, op, count, seed, backend = point
    tenants = DEFAULT_TENANTS_PER_CORE * 16
    testbed = build_testbed(3, seed=seed, replica_tenants=tenants)
    if system == "naive":
        group = make_naive(testbed, mode="event")
    else:
        group = make_group(testbed, backend, slots=1024,
                           region_size=32 << 20)
    recorder = latency_sweep(group, op, size, count)
    summary = recorder.summary_us()
    return {
        "system": system,
        "size": size,
        "avg_us": summary["avg_us"],
        "p95_us": summary["p95_us"],
        "p99_us": summary["p99_us"],
    }


def points(op: str = "gwrite", sizes=None, count: int = None,
           seed: int = 8, backend: str = "hyperloop") -> List[tuple]:
    sizes = sizes or MESSAGE_SIZES
    count = count or scaled(1500, 10_000)
    return [(system, size, op, count, seed, backend)
            for system in ("naive", backend) for size in sizes]


def run(op: str = "gwrite", sizes=None, count: int = None,
        seed: int = 8, backend: str = "hyperloop",
        jobs: int = 1) -> List[Dict]:
    """One row per (system, size): avg / p95 / p99 latency in µs.

    ``backend`` picks the NIC-offloaded arm (any registry name); the
    Naïve-RDMA baseline arm is fixed.  Each point is an independent
    simulation, so ``jobs > 1`` sweeps them in parallel with rows
    identical to the serial order.
    """
    return sweep(points(op, sizes, count, seed, backend), worker, jobs=jobs)


def speedups(rows: List[Dict]) -> Dict[int, Dict[str, float]]:
    """Baseline/offloaded latency ratios per size (the paper's ×-factors)."""
    by_key = {(row["system"], row["size"]): row for row in rows}
    treatment = next(row["system"] for row in rows
                     if row["system"] != "naive")
    out: Dict[int, Dict[str, float]] = {}
    for size in sorted({row["size"] for row in rows}):
        naive = by_key[("naive", size)]
        hyper = by_key[(treatment, size)]
        out[size] = {
            "avg_x": naive["avg_us"] / hyper["avg_us"],
            "p99_x": naive["p99_us"] / hyper["p99_us"],
        }
    return out


def main(backend: str = "hyperloop", jobs: int = 1) -> Dict[str, List[Dict]]:
    """Figure 8(a) gWRITE and 8(b) gMEMCPY, one table each."""
    out = {}
    for op in ("gwrite", "gmemcpy"):
        rows = out[op] = run(op=op, backend=backend, jobs=jobs)
        print(format_table(rows, title=f"Figure 8 — {op} latency vs message "
                                       "size (group size 3, 10:1 tenant "
                                       "load)"))
        ratios = speedups(rows)
        best_p99 = max(r["p99_x"] for r in ratios.values())
        best_avg = max(r["avg_x"] for r in ratios.values())
        print(f"max speedup: avg {best_avg:,.0f}x, p99 {best_p99:,.0f}x "
              f"(paper: ~50x avg, up to ~800x p99)")
    return out
