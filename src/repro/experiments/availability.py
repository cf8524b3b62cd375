"""Availability timeline: throughput through a crash and repair.

An extension experiment (the paper defers control-path evaluation, §5):
drive a steady durable gWRITE load, crash a replica mid-run, and bucket
completed operations per interval.  The timeline shows the three phases
the §5 recovery design implies:

1. steady state at the offered rate;
2. an outage window = heartbeat detection (miss_threshold × period) plus
   drain grace, election, rebuild and the stalled catch-up copy;
3. full-rate resumption on the repaired group, with every ACKed write
   intact.

The run is the crash cell of the fault grid (:mod:`.fig_faults`) at a
longer horizon: the same writer, :class:`~repro.faults.ReplicaSetManager`
supervisor, spare and :class:`~repro.faults.AckOracle`.  This module only
projects that row onto the timeline's summary.
"""

from __future__ import annotations

from typing import Dict, List

from . import fig_faults
from .common import count_outage_buckets, format_table
from .parallel import sweep

__all__ = ["points", "worker", "run", "main"]


def points(bucket_ms: int = 10, buckets: int = 60, crash_bucket: int = 15,
           ops_per_bucket_target: int = 200, seed: int = 90,
           backend: str = "hyperloop") -> List[tuple]:
    """The fault grid's crash cell at this geometry: a single point."""
    return [("crash", backend, bucket_ms, buckets, crash_bucket,
             ops_per_bucket_target, seed)]


def worker(point) -> Dict:
    """Run the crash cell; project its row onto the timeline's summary."""
    _kind, _backend, bucket_ms, _buckets, crash_bucket, target, _seed = point
    row = fig_faults.worker(point)
    return {
        "timeline": row["timeline"],
        "bucket_ms": bucket_ms,
        "crash_bucket": crash_bucket,
        "outage_ms": row["outage_ms"],
        "detection_ms": row["detection_ms"],
        "outage_buckets": count_outage_buckets(
            row["timeline"], crash_bucket, target // 2),
        "repairs": row["reconfigs"],
        "lost_acked_writes": row["lost_acked_writes"],
    }


def run(bucket_ms: int = 10, buckets: int = 60, crash_bucket: int = 15,
        ops_per_bucket_target: int = 200, seed: int = 90,
        backend: str = "hyperloop") -> Dict:
    """Returns the timeline plus outage statistics."""
    return sweep(points(bucket_ms, buckets, crash_bucket,
                        ops_per_bucket_target, seed, backend), worker)[0]


def main(backend: str = "hyperloop", jobs: int = 1) -> Dict:
    """One point, so ``jobs`` has nothing to fan out."""
    result = run(backend=backend)
    rows = [{"bucket": index,
             "t_ms": index * result["bucket_ms"],
             "ops": count,
             "phase": ("crash" if index == result["crash_bucket"]
                       else "")}
            for index, count in enumerate(result["timeline"])
            if index % 5 == 0 or index == result["crash_bucket"]]
    print(format_table(rows, title="Availability — ops completed per "
                                   f"{result['bucket_ms']} ms bucket"))
    print(f"outage: {result['outage_ms']:.1f} ms total "
          f"(detection: {result['detection_ms']:.1f} ms, "
          f"rebuild + catch-up: "
          f"{result['outage_ms'] - result['detection_ms']:.1f} ms), "
          f"repairs: {result['repairs']}, "
          f"ACKed writes lost: {result['lost_acked_writes']}")
    return result
