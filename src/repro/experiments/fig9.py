"""Figure 9: gWRITE throughput and critical-path CPU vs message size.

Paper setup (§6.1): write 1 GB total in messages of 1 K – 64 K to a group
of 3; measure throughput (Kops/s) and the CPU consumed *in the critical
path* on the backups.  Naïve-RDMA burns a full polling core per backup;
HyperLoop's backups spend ≈0%.

Shape reproduced: both systems track each other in throughput (message-rate
bound at small sizes, line-rate bound at 64 K), while the CPU columns differ
by two orders of magnitude.
"""

from __future__ import annotations

from typing import Dict, List

from ..sim.units import MiB
from .common import (
    build_testbed,
    format_table,
    make_group,
    make_naive,
    scaled,
    throughput_run,
)
from .parallel import sweep

__all__ = ["MESSAGE_SIZES", "points", "worker", "run", "main"]

MESSAGE_SIZES = [1024, 2048, 4096, 8192, 16384, 32768, 65536]


def _replica_cpu_fraction(testbed, group, elapsed_ns: int,
                          system: str) -> float:
    """Fraction of one core consumed on a backup during the run.

    For Naïve-RDMA this is the handler thread plus — in polling mode — the
    whole core the pinned poller occupies; for HyperLoop the replica CPU
    does nothing after group setup (cyclic pre-posted rings).
    """
    replica = testbed.replicas[1]  # A middle backup.
    busy = sum(thread.cpu_time_ns for thread in replica.cpu.threads
               if not thread.is_busy_loop)
    if system == "naive-polling":
        # The pinned poller occupies its core for the entire run.
        busy += elapsed_ns
    return min(1.0, busy / max(1, elapsed_ns))


def worker(point) -> Dict:
    """One (system, size) point: fresh testbed, full throughput run."""
    system, size, total_bytes, seed, backend = point
    testbed = build_testbed(3, seed=seed)
    if system == "naive-polling":
        group = make_naive(testbed, mode="polling", slots=512)
    else:
        group = make_group(testbed, backend, slots=512,
                           region_size=32 << 20)
    result = throughput_run(group, size, total_bytes, window=256)
    cpu = _replica_cpu_fraction(testbed, group,
                                result["elapsed_ns"], system)
    return {
        "system": system,
        "size": size,
        "kops_per_sec": result["kops_per_sec"],
        "goodput_gbps": result["gbps"],
        "backup_cpu_pct": 100.0 * cpu,
    }


def points(sizes=None, total_bytes: int = None, seed: int = 9,
           backend: str = "hyperloop") -> List[tuple]:
    sizes = sizes or MESSAGE_SIZES
    total_bytes = total_bytes or scaled(48 * MiB, 1024 * MiB)
    return [(system, size, total_bytes, seed, backend)
            for system in ("naive-polling", backend) for size in sizes]


def run(sizes=None, total_bytes: int = None, seed: int = 9,
        backend: str = "hyperloop", jobs: int = 1) -> List[Dict]:
    return sweep(points(sizes, total_bytes, seed, backend), worker,
                 jobs=jobs)


def main(backend: str = "hyperloop", jobs: int = 1) -> List[Dict]:
    rows = run(backend=backend, jobs=jobs)
    print(format_table(
        rows, title="Figure 9 — gWRITE throughput & backup critical-path CPU"))
    naive_cpu = max(r["backup_cpu_pct"] for r in rows
                    if r["system"] == "naive-polling")
    hyper_cpu = max(r["backup_cpu_pct"] for r in rows
                    if r["system"] != "naive-polling")
    print(f"backup CPU: naive-polling up to {naive_cpu:.0f}% of a core "
          f"(paper: ~100%), {backend} up to {hyper_cpu:.1f}% (paper: ~0%)")
    return rows
