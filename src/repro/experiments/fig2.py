"""Figure 2: why multi-tenancy inflates MongoDB's latency.

Paper setup (§2.2): 3 MongoDB servers + 3 YCSB client machines; each
partition is a replica-set of one primary and two backups spread over the
3 servers.  (a) sweeps the number of replica-sets (9–27) on 16-core
machines; (b) fixes 18 replica-sets and disables cores (2–16).  Reported:
avg/95th/99th insert+update latency and the (normalized) context-switch
count.

The reproduction runs N MongoDB-like instances over event-based CPU
replication (the native stack: every hop needs the replica process
scheduled).  No artificial tenant load is injected — the co-located
replica handlers *are* the tenants, so CPU contention, context switches
and latency all grow together with the number of replica-sets, exactly the
paper's mechanism.
"""

from __future__ import annotations

from typing import Dict, List

from .. import backend as backend_registry
from ..apps.mongolike import MongoConfig, MongoLikeDB
from ..core.client import StoreConfig, initialize
from ..host import Cluster, HostParams
from ..sim.units import seconds, us
from ..workloads import MongoAdapter, YCSBConfig, YCSBRunner, YCSBWorkload
from .common import format_table, run_until, scaled
from .parallel import sweep

__all__ = ["replica_set_points", "core_points", "worker", "normalize",
           "main"]

REGION = 24 << 20
WAL = 2 << 20

#: MongoDB-class backend service cost per replicated message: document
#: apply, oplog bookkeeping, journal write (§2.1's "heavier operations
#: relative to the network stack").
MONGO_HANDLER_NS = us(200)
MONGO_PARSE_NS = us(25)
#: Concurrent YCSB driver threads per replica-set (the benchmark drives
#: each instance with several client threads).
SESSIONS_PER_SET = 6


def _build_deployment(replica_sets: int, server_cores: int, seed: int,
                      ops_per_set: int, records_per_set: int):
    """N replica-sets over 3 servers + 3 client machines.

    Each set is driven by ``SESSIONS_PER_SET`` concurrent YCSB sessions —
    the closed-loop pressure that makes the servers saturate as sets are
    added, which is the whole point of Figure 2.
    """
    cluster = Cluster(seed=seed)
    clients = [cluster.add_host(f"ycsb{i}") for i in range(3)]
    servers = [cluster.add_host(f"server{i}",
                                HostParams(cores=server_cores))
               for i in range(3)]
    runners: List[YCSBRunner] = []
    processes = []
    ops_per_session = max(1, ops_per_set // SESSIONS_PER_SET)
    for index in range(replica_sets):
        client = clients[index % 3]
        chain = [servers[(index + offset) % 3] for offset in range(3)]
        group = backend_registry.create(
            "naive", client, chain, group_name=f"set{index}",
            slots=64, region_size=REGION, mode="event",
            handler_parse_ns=MONGO_HANDLER_NS, client_mode="event")
        store = initialize(group, StoreConfig(wal_size=WAL))
        db = MongoLikeDB(store, MongoConfig(parse_ns=MONGO_PARSE_NS),
                         name=f"mongo{index}")
        sim = cluster.sim
        # One loader first, then the concurrent sessions.
        load_workload = YCSBWorkload(YCSBConfig(
            workload="A", record_count=records_per_set, field_length=1024,
            seed=seed + index))
        loader = YCSBRunner(load_workload, MongoAdapter(db))
        loaded = sim.event()

        def load_driver(sim=sim, loader=loader, loaded=loaded):
            yield from loader.load_phase(sim)
            loaded.succeed()

        sim.process(load_driver(), name=f"fig2.load{index}")
        for session_idx in range(SESSIONS_PER_SET):
            workload = YCSBWorkload(YCSBConfig(
                workload="A", record_count=records_per_set,
                field_length=1024,
                seed=seed + index * 131 + session_idx))
            runner = YCSBRunner(workload, MongoAdapter(db))
            runners.append(runner)

            def driver(sim=sim, runner=runner, loaded=loaded):
                yield loaded
                yield from runner.run_phase(sim, ops_per_session,
                                            warmup=ops_per_session // 10)

            processes.append(sim.process(
                driver(), name=f"fig2.set{index}.s{session_idx}"))
    return cluster, servers, runners, processes


def worker(point) -> Dict:
    """One (replica-sets, cores) configuration, run to completion."""
    replica_sets, server_cores, seed, ops_per_set, records_per_set = point
    cluster, servers, runners, processes = _build_deployment(
        replica_sets, server_cores, seed, ops_per_set, records_per_set)
    done = cluster.sim.all_of(processes)
    run_until(cluster, done, seconds(3600))
    if not done.triggered:
        raise RuntimeError(
            f"fig2 config ({replica_sets} sets, {server_cores} cores) "
            "did not finish")
    merged = runners[0].stats.writes()
    for runner in runners[1:]:
        merged.merge(runner.stats.writes())
    switches = sum(server.cpu.context_switches.value for server in servers)
    return {
        "replica_sets": replica_sets,
        "cores": server_cores,
        "ops": merged.count,
        "avg_ms": merged.mean_us() / 1000,
        "p95_ms": merged.percentile_us(95) / 1000,
        "p99_ms": merged.percentile_us(99) / 1000,
        "context_switches": switches,
    }


def replica_set_points(counts=None, seed: int = 2) -> List[tuple]:
    """Figure 2(a)'s configurations: 16 cores, ``counts`` replica-sets."""
    return [(count, 16, seed, scaled(120, 3000), scaled(40, 1000))
            for count in counts or [9, 15, 21, 27]]


def core_points(cores=None, replica_sets: int = 18,
                seed: int = 3) -> List[tuple]:
    """Figure 2(b)'s configurations: ``replica_sets`` sets, ``cores``."""
    return [(replica_sets, core_count, seed, scaled(120, 3000),
             scaled(40, 1000)) for core_count in cores or [4, 8, 12, 16]]


def normalize(rows: List[Dict]) -> List[Dict]:
    """Add ``norm_ctxsw``: each row's context switches over the peak's."""
    peak = max(row["context_switches"] for row in rows) or 1
    for row in rows:
        row["norm_ctxsw"] = row["context_switches"] / peak
    return rows


def main(backend: str = "hyperloop", jobs: int = 1) -> Dict[str, List[Dict]]:
    """Both panels.  ``backend`` is ignored: Figure 2 is the baseline's."""
    rows_a = normalize(sweep(replica_set_points(), worker, jobs=jobs))
    print(format_table(rows_a, title="Figure 2(a) — MongoDB latency vs "
                                     "number of replica-sets (3 servers)"))
    rows_b = normalize(sweep(core_points(), worker, jobs=jobs))
    print(format_table(rows_b, title="Figure 2(b) — MongoDB latency vs "
                                     "cores per machine (18 replica-sets)"))
    return {"replica_sets": rows_a, "cores": rows_b}
