"""Fault resilience: availability timelines per fault class, per backend.

The paper defers control-path evaluation ("HyperLoop relies on
traditional mechanisms for failure detection and group reconfiguration",
§5); this extension experiment supplies it.  A closed-loop writer drives
each backend while the scriptable fault layer (:mod:`repro.faults`)
breaks the group in one of five ways:

* ``crash`` — fail-stop of the middle replica;
* ``partition`` — the middle replica is cut off from every other host
  (heartbeats and chain traffic both drop);
* ``straggler`` — the middle replica's NIC inflates its per-message
  processing latency until the watchdog gives up on it;
* ``nvm-power`` — power loss on the middle replica: QPs error out, the
  NIC cache is lost, NVM keeps only persisted bytes;
* ``link-flap`` — a sub-deadline pause on the client's first-hop link:
  frames park and deliver late, detection must NOT trip.

Each run produces an availability timeline (completed ops per bucket,
post-horizon completions dropped, never clamped) plus the fault's
lifecycle split into *detection latency* (injection to watchdog
suspicion) and *total outage* (injection to back-in-service) — the two
respond to different knobs (heartbeat period vs rebuild bandwidth).  An
:class:`~repro.faults.oracle.AckOracle` audits every replica after the
run: an ACKed write missing anywhere is a correctness failure, not a
performance number.

Every sweep point owns its cluster and seeds, so ``--jobs N`` rows are
byte-identical to a serial run.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .. import backend as backend_registry
from ..faults import (
    AckOracle,
    CrashProcess,
    FaultInjector,
    FaultPlan,
    HeartbeatConfig,
    LinkFlap,
    NvmPowerLoss,
    Partition,
    ReplicaFault,
    ReplicaSetManager,
    StragglerNic,
    pack_seq,
)
from ..host import Cluster
from ..sim.units import ms
from .common import bucket_of, format_table, phase_timings, quick_run
from .parallel import sweep

__all__ = ["FAULT_KINDS", "worker", "run", "main"]

#: The fault classes swept, in presentation order.
FAULT_KINDS = ["crash", "partition", "straggler", "nvm-power", "link-flap"]

#: Deterministic host names (plans address targets by name).
_CLIENT = "ft-client"
_REPLICAS = ["ft-replica0", "ft-replica1", "ft-replica2"]
_SPARE = "ft-spare"
#: The middle replica takes the hit: it exercises both chain directions.
_VICTIM = _REPLICAS[1]

#: Region slots the writer cycles through (offset = slot * stride).
_SLOTS = 512
_STRIDE = 16


def _make_plan(kind: str, fault_ns: int, horizon_ns: int) -> FaultPlan:
    """The single-fault plan for one sweep point."""
    if kind == "crash":
        event = CrashProcess(fault_ns, host=_VICTIM)
    elif kind == "partition":
        others = tuple([_CLIENT] + [name for name in _REPLICAS
                                    if name != _VICTIM] + [_SPARE])
        event = Partition(fault_ns, side_a=others, side_b=(_VICTIM,))
    elif kind == "straggler":
        # Inflation large enough that even one heartbeat SEND blows the
        # watchdog deadline — a sick-but-alive NIC must still be evicted.
        event = StragglerNic(fault_ns, host=_VICTIM, factor=50_000.0,
                             duration_ns=max(horizon_ns - fault_ns, ms(1)))
    elif kind == "nvm-power":
        event = NvmPowerLoss(fault_ns, host=_VICTIM)
    elif kind == "link-flap":
        # Shorter than the watchdog deadline: parked frames deliver at
        # heal time, nothing is lost and no reconfiguration may trigger.
        event = LinkFlap(fault_ns, a=_CLIENT, b=_REPLICAS[0],
                         duration_ns=ms(2))
    else:
        raise ValueError(f"unknown fault kind {kind!r}")
    return FaultPlan([event], name=f"fig_faults.{kind}")


def worker(point) -> Dict[str, Any]:
    """One (fault class, backend) cell, on a fresh cluster."""
    (kind, backend, bucket_ms, buckets, fault_bucket, ops_per_bucket,
     seed) = point
    cluster = Cluster(seed=seed)
    client = cluster.add_host(_CLIENT)
    replicas = [cluster.add_host(name) for name in _REPLICAS]
    spare = cluster.add_host(_SPARE)
    sim = cluster.sim
    horizon_ns = ms(bucket_ms) * buckets
    fault_ns = ms(bucket_ms) * fault_bucket

    def make_group(client_host, members):
        return backend_registry.create(backend, client_host, members,
                                       slots=64, region_size=1 << 16)

    manager = ReplicaSetManager(
        client, replicas, make_group, spares=[spare],
        heartbeat=HeartbeatConfig(period_ns=ms(1), miss_threshold=3),
        name=f"ft.{kind}")
    manager.start()
    oracle = AckOracle()
    timeline: List[int] = [0] * buckets
    stats = {"aborted": 0}
    gap_ns = ms(bucket_ms) // ops_per_bucket

    def writer():
        sequence = 0
        while sim.now < horizon_ns:
            group = manager.group
            sequence += 1
            offset = (sequence % _SLOTS) * _STRIDE
            try:
                group.write_local(offset, pack_seq(sequence))
                yield oracle.track(group.gwrite(offset, 8, durable=True),
                                   offset, sequence)
            except (ReplicaFault, RuntimeError):
                stats["aborted"] += 1
                yield manager.wait_healthy()
                continue
            bucket = bucket_of(sim.now, bucket_ms, buckets)
            if bucket >= 0:
                timeline[bucket] += 1
            yield sim.timeout(gap_ns)

    sim.process(writer(), name="ft.writer")
    injector = FaultInjector(cluster, _make_plan(kind, fault_ns, horizon_ns),
                             name="ft.injector")
    injector.start()
    cluster.run(until=horizon_ns + 2 * ms(bucket_ms))

    injected_ns = injector.log[0].fired_ns if injector.log[0].fired else None
    suspected_ns = manager.detections[0][1] if manager.detections else None
    recovered_ns = (manager.reconfigs[0].completed_ns
                    if manager.reconfigs else None)
    phases = phase_timings(injected_ns, suspected_ns, recovered_ns)
    lost = oracle.verify(manager.group)
    return {
        "fault": kind,
        "backend": backend,
        "detection_ms": phases["detection_ms"],
        "outage_ms": phases["outage_ms"],
        "reconfigs": len(manager.reconfigs),
        "ok_ops": oracle.ok_count,
        "aborted_ops": stats["aborted"] + oracle.failed_count,
        "lost_acked_writes": len(lost),
        "duplicate_acks": oracle.duplicates,
        "timeline": timeline,
    }


def _default_fault_bucket() -> int:
    """The bucket the fault fires in when :func:`run` is given none."""
    return 5 if quick_run() else 8


def run(jobs: int = 1, bucket_ms: int = 5,
        buckets: Optional[int] = None, fault_bucket: Optional[int] = None,
        ops_per_bucket: int = 200, seed: int = 91,
        backends: Optional[List[str]] = None,
        kinds: Optional[List[str]] = None) -> List[Dict[str, Any]]:
    """The full (fault class × backend) grid; one row per cell.

    Rates never scale down in quick mode — fault dynamics live in the
    ratio of detection deadline to bucket width — so ``REPRO_QUICK``
    shortens the horizon instead.
    """
    if buckets is None:
        buckets = 16 if quick_run() else 30
    if fault_bucket is None:
        fault_bucket = _default_fault_bucket()
    if backends is None:
        backends = ["hyperloop", "naive", "fanout"]
    if kinds is None:
        kinds = list(FAULT_KINDS)
    points = [(kind, backend, bucket_ms, buckets, fault_bucket,
               ops_per_bucket, seed)
              for backend in backends for kind in kinds]
    return sweep(points, worker, jobs=jobs)


def main(backend: str = "hyperloop", jobs: int = 1) -> List[Dict[str, Any]]:
    """Print the resilience grid; ``--backend`` swaps the offloaded arm."""
    backends = [backend] + [name for name in ("naive", "fanout")
                            if name != backend]
    rows = run(jobs=jobs, backends=backends)

    def _ms(value: Optional[float]) -> str:
        return f"{value:.2f}" if value is not None else "-"

    summary = [{
        "fault": row["fault"],
        "backend": row["backend"],
        "detect_ms": _ms(row["detection_ms"]),
        "outage_ms": _ms(row["outage_ms"]),
        "reconfigs": row["reconfigs"],
        "ok": row["ok_ops"],
        "aborted": row["aborted_ops"],
        "lost_acked": row["lost_acked_writes"],
        "dup_acks": row["duplicate_acks"],
    } for row in rows]
    print(format_table(
        summary, title="Fault resilience — detection vs outage, per "
                       "fault class and backend"))

    primary = [row for row in rows if row["backend"] == backend]
    timeline_rows = []
    for row in primary:
        cells: Dict[str, Any] = {"fault": row["fault"]}
        for index, count in enumerate(row["timeline"]):
            cells[f"b{index}"] = count
        timeline_rows.append(cells)
    print(format_table(
        timeline_rows,
        title=f"\n{backend} — completed ops per bucket "
              f"(fault injected in bucket {_default_fault_bucket()})"))
    lost_total = sum(row["lost_acked_writes"] for row in rows)
    print(f"ACKed writes lost across all cells: {lost_total}")
    return rows
