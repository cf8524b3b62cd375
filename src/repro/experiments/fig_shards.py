"""Scale-out extension: sharded deployments vs shard count.

The paper evaluates one replication group at a time; a storage service
runs many (§2: "the storage frontend partitions the key space …").  This
experiment measures what the cluster layer (:mod:`repro.cluster`) adds on
top of the reproduced single-group results:

* **Scale-out sweep** — a fixed population of closed-loop clients (every
  client owns one key and keeps exactly one write in flight) is routed
  over 1, 2, 4, 8 shards.  Each shard is an independent chain on
  dedicated hosts over the shared fabric, so aggregate throughput should
  scale near-linearly until the fabric or the client pipeline saturates.
  Under ``REPRO_FULL=1`` the population is 10⁵ simulated clients.

* **Rebalance timeline** — the same closed loop, but mid-run the
  deployment splits a shard and then moves one to fresh hosts, both
  online.  The run verifies the deployment's write oracle at the end:
  every acknowledged write must be readable, at the right version, on
  every replica of its key's (possibly new) owner — zero lost writes.

Each sweep point owns its simulator and seed, so points parallelize
(``--jobs``) with rows byte-identical to a serial run.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..cluster import ShardedConfig, ShardedDeployment, build_deployment
from ..sim.stats import LatencyRecorder
from ..sim.units import seconds
from .common import format_table, scaled
from .parallel import sweep

__all__ = ["SHARD_COUNTS", "run", "rebalance_run", "main"]

SHARD_COUNTS = [1, 2, 4, 8]

#: Small records keep the full-scale sweep's touched-page footprint flat
#: (10⁵ clients × 128 B ≈ 13 MB per region, sparsely allocated).
RECORD_SIZE = 128

_DEADLINE = seconds(600)


def _drive_closed_loop(deployment: ShardedDeployment, clients: int,
                       ops_per_client: int, oracle: bool = False,
                       on_progress=None) -> Dict[str, float]:
    """Run ``clients`` one-op-in-flight sessions to completion.

    Sessions are callback-chained rather than one sim process each —
    client *k* writes key *k*, and each completion immediately issues the
    session's next write — so a 10⁵-client population costs 10⁵ chained
    events, not 10⁵ generator stacks.  With ``oracle=True`` writes go
    through :meth:`~repro.cluster.ShardedDeployment.write_record`, arming
    the deployment's acknowledged-write oracle for rebalance checks.
    """
    sim = deployment.sim
    recorder = LatencyRecorder("sharded-writes")
    total = clients * ops_per_client
    state = {"done": 0}
    all_done = sim.event()

    def issue(key: int, seq: int) -> None:
        if oracle:
            event = deployment.write_record(key, seq=seq)
        else:
            event = deployment.submit_write(key, RECORD_SIZE)

        def completed(event) -> None:
            recorder.record(event.value.latency_ns)
            state["done"] += 1
            if on_progress is not None:
                on_progress(state["done"])
            if seq < ops_per_client:
                issue(key, seq + 1)
            elif state["done"] == total:
                all_done.succeed()

        event.add_callback(completed)

    start = sim.now
    for key in range(clients):
        issue(key, 1)
    deployment.run_until(all_done, _DEADLINE)
    if state["done"] < total:
        raise RuntimeError(
            f"closed loop incomplete: {state['done']}/{total} ops "
            f"before the deadline")
    elapsed = sim.now - start
    summary = recorder.summary_us()
    return {
        "ops": total,
        "elapsed_ms": elapsed / 1e6,
        "kops_per_sec": total / (elapsed / 1e9) / 1e3,
        "p50_us": summary["p50_us"],
        "p99_us": summary["p99_us"],
    }


def _make_deployment(shards: int, clients: int, replicas: int, seed: int,
                     backend: str) -> ShardedDeployment:
    return build_deployment(ShardedConfig(
        shards=shards, replicas=replicas, backend=backend, seed=seed,
        record_size=RECORD_SIZE, records_per_shard=clients,
        backend_kwargs={"slots": 1024}))


def _point_worker(point) -> Dict:
    """One shard-count point: fresh deployment, full closed-loop run."""
    shards, clients, ops_per_client, replicas, seed, backend = point
    deployment = _make_deployment(shards, clients, replicas, seed, backend)
    try:
        stats = _drive_closed_loop(deployment, clients, ops_per_client)
    finally:
        deployment.close()
    return {
        "shards": shards,
        "hosts": deployment.config.pool_size(),
        "clients": clients,
        **stats,
    }


def run(shard_counts: Optional[List[int]] = None, clients: int = None,
        ops_per_client: int = 2, replicas: int = 3, seed: int = 21,
        backend: str = "hyperloop", jobs: int = 1) -> List[Dict]:
    """One row per shard count: aggregate closed-loop write throughput.

    The client population is fixed across points (default 2,000; 10⁵
    under ``REPRO_FULL=1``), so ``kops_per_sec`` directly measures
    horizontal scaling as shards — and with them hosts — are added.
    """
    shard_counts = shard_counts or SHARD_COUNTS
    clients = clients or scaled(2_000, 100_000)
    points = [(shards, clients, ops_per_client, replicas, seed, backend)
              for shards in shard_counts]
    return sweep(points, _point_worker, jobs=jobs)


def rebalance_run(shards: int = 2, clients: int = None,
                  ops_per_client: int = 4, replicas: int = 3,
                  seed: int = 22, backend: str = "hyperloop") -> Dict:
    """Closed-loop load with an online split *and* move mid-run.

    A rebalancer process waits for a third of the ops to complete, splits
    a new shard off (drain → copy → epoch flip), waits for two thirds,
    then moves shard 0 to previously unused hosts.  Routing never stops:
    requests arriving at a draining shard park and forward.  Returns one
    summary row; ``lost_writes`` is the deployment oracle's verdict and
    must be 0.
    """
    clients = clients or scaled(600, 10_000)
    # Pool sized for the post-split shard count plus a spare chain, so
    # the move has somewhere disjoint to go.
    config = ShardedConfig(
        shards=shards, replicas=replicas, backend=backend, seed=seed,
        hosts=(shards + 2) * (replicas + 1),
        record_size=RECORD_SIZE, records_per_shard=clients,
        backend_kwargs={"slots": 1024})
    deployment = build_deployment(config)
    sim = deployment.sim
    total = clients * ops_per_client
    epoch_start = deployment.epoch
    timeline: List[Dict] = []

    progress = {"done": 0}

    def on_progress(done: int) -> None:
        progress["done"] = done

    def rebalancer(sim):
        while progress["done"] < total // 3:
            yield 20_000
        new_id = yield from deployment.split_shard()
        timeline.append({"event": "split", "t_ms": sim.now / 1e6,
                         "shard": new_id, "epoch": deployment.epoch})
        while progress["done"] < (2 * total) // 3:
            yield 20_000
        assignment = yield from deployment.move_shard(0)
        timeline.append({"event": "move", "t_ms": sim.now / 1e6,
                         "shard": 0, "epoch": deployment.epoch,
                         "hosts": ",".join(assignment.host_names())})

    sim.process(rebalancer(sim), name="rebalancer")
    try:
        stats = _drive_closed_loop(deployment, clients, ops_per_client,
                                   oracle=True, on_progress=on_progress)
        lost = deployment.verify_records()
    finally:
        deployment.close()
    return {
        "shards_before": shards,
        "shards_after": shards + 1,
        "clients": clients,
        "ops": stats["ops"],
        "kops_per_sec": stats["kops_per_sec"],
        "p99_us": stats["p99_us"],
        "rebalances": len(timeline),
        "epochs": deployment.epoch - epoch_start,
        "lost_writes": len(lost),
        "timeline": timeline,
    }


def main(backend: str = "hyperloop", jobs: int = 1) -> List[Dict]:
    rows = run(backend=backend, jobs=jobs)
    print(format_table(
        rows, title="Scale-out — closed-loop write throughput vs shards "
                     f"({rows[0]['clients']} clients, backend={backend})"))
    base = rows[0]["kops_per_sec"]
    peak = rows[-1]
    print(f"scaling {rows[0]['shards']}→{peak['shards']} shards: "
          f"{peak['kops_per_sec'] / base:.2f}x aggregate throughput")
    rebalance = rebalance_run(backend=backend)
    timeline = rebalance.pop("timeline")
    print(format_table([rebalance],
                       title="Online rebalance under load (split + move)"))
    for entry in timeline:
        print(f"  t={entry['t_ms']:8.3f} ms  {entry['event']:<5} "
              f"shard {entry['shard']}  epoch→{entry['epoch']}"
              + (f"  hosts {entry['hosts']}" if "hosts" in entry else ""))
    if rebalance["lost_writes"]:
        raise RuntimeError(
            f"{rebalance['lost_writes']} acknowledged writes lost "
            "across the rebalance")
    print("zero acknowledged writes lost across split + move")
    return rows
