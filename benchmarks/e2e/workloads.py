"""The seven end-to-end workloads, their seed-derived inputs and oracles.

Every workload drives the program through public entry points only
(``repro.cluster``, ``repro.experiments``, ``repro.core.client``,
``repro.apps``, ``repro.workloads``) and checks what came back: replicas
are read back byte for byte, experiment oracles must report zero lost or
duplicated ACKs, and the document store must equal an in-benchmark model.

**Two seeds.**  ``--seed`` generates the *inputs* here (op order, offsets,
payload bytes, key order, YCSB keys and value sizes).  Every random stream
*inside* the program (background-tenant bursts, lock back-off jitter, the
hash ring, the storm's arrival process) keeps a fixed per-workload
``env_seed``: tenant noise is tail-dominated, so letting it follow
``--seed`` moves ``sim_kops_per_s`` by ±30 % between seeds at these op
counts and would force bounds too loose to catch anything.  Workloads
whose public entry point takes sizes but no data (``pipelined_64k``,
``fault_reconfig``, ``overload_storm``) therefore do not depend on
``--seed`` at all.

Sizes: ``full`` is what a benchmark run measures; ``tiny`` is the smoke
test's and the discarded warm-up repeat's sizing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.apps.mongolike import MongoConfig, MongoLikeDB
from repro.cluster import (ScenarioConfig, ShardedConfig, build_deployment,
                           build_scenario)
from repro.cluster.deployment import encode_record
from repro.core.client import StoreConfig, initialize
from repro.experiments import fig_faults, fig_overload, fig_shards
from repro.experiments.common import run_until, throughput_run
from repro.sim.stats import LatencyRecorder
from repro.sim.units import seconds
from repro.workloads import MongoAdapter, YCSBConfig, YCSBRunner, YCSBWorkload
from repro.workloads.ycsb import OpType, YCSBOperation, make_value

from .trace import Recorder

__all__ = ["Outcome", "WORKLOADS", "Workload"]

_DEADLINE_NS = seconds(600)
_TENANTS = 160            # 10:1 tenant threads to cores on a 16-core host.

# chain_small / naive_tenants region layout: 64 gCAS words at the region
# head, then 256 op-sized data slots one page in.
_OP_SIZE = 128
_CAS_WORDS = 64
_DATA_BASE = 4096
_DATA_SLOTS = 256


@dataclass
class Outcome:
    """What one measured phase did, and what its oracle found."""

    attempted: int                    # Ops issued (offered, for open loops).
    ok: int                           # Completed in time *and* verified.
    bad: int                          # Oracle failures; healthy trees give 0.
    sim_elapsed_ns: int               # Simulated length of the measured phase.
    latencies: Optional[LatencyRecorder] = None
    backup_cpu_pct: Optional[float] = None     # Middle backup, non-tenant.
    replica_busy_frac: Optional[float] = None  # Middle backup, all threads.
    extras: Dict[str, float] = field(default_factory=dict)


class Workload:
    """One workload: seed -> inputs, inputs -> one timed, verified repeat."""

    name = ""
    why = ""                          # One line; copied into BENCHMARK.json.
    note = ""                         # Printed under the workload's metrics.
    sizes: Dict[str, Dict[str, int]] = {}

    def inputs(self, seed: int, size: Dict[str, int]) -> Any:
        """Everything the repeat needs, as a pure function of ``seed``."""
        return None

    def repeat(self, rec: Recorder, inputs: Any, size: Dict[str, int],
               corrupt: bool = False) -> Outcome:
        raise NotImplementedError

    def finale(self, rec: Recorder,
               size: Dict[str, int]) -> Tuple[int, Dict[str, float]]:
        """A one-off check after the repeats: ``(bad, extras)``."""
        return 0, {}


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------
class _BackupLoad:
    """CPU the middle backup spends between construction and :meth:`stop`,
    from the public ``host.cpu`` accounting."""

    def __init__(self, host) -> None:
        self.host = host
        self._mark = self._read()

    def _read(self) -> Tuple[int, int, int]:
        cpu = self.host.cpu
        own = sum(cpu.thread_cpu_time_ns(thread) for thread in cpu.threads
                  if "tenant" not in thread.name)
        return self.host.sim.now, own, cpu.total_busy_ns()

    def stop(self) -> Tuple[float, float]:
        """``(non-tenant % of one core, all-thread busy fraction)``."""
        now, own, busy = self._read()
        then, own_then, busy_then = self._mark
        elapsed = max(1, now - then)
        return (100.0 * (own - own_then) / elapsed,
                (busy - busy_then) / (elapsed * len(self.host.cpu.cores)))


def _table1_inputs(seed: int, ops: int, kinds: List[str]):
    """A shuffled schedule of Table-1 primitives plus the region image
    every replica must hold once it has run.

    gCAS carries the word's modelled current value as ``old``, so every
    compare succeeds and the returned originals are checkable per op.
    """
    rng = random.Random(seed)
    schedule = [kinds[i % len(kinds)] for i in range(ops)]
    rng.shuffle(schedule)
    slots: Dict[int, bytes] = {}
    words: Dict[int, int] = {}
    program: List[tuple] = []
    for kind in schedule:
        if kind == "gwrite":
            slot = rng.randrange(_DATA_SLOTS)
            slots[slot] = rng.randbytes(_OP_SIZE)
            program.append((kind, _DATA_BASE + slot * _OP_SIZE, slots[slot]))
        elif kind == "gmemcpy":
            src, dst = rng.sample(range(_DATA_SLOTS), 2)
            slots[dst] = slots.get(src, bytes(_OP_SIZE))
            program.append((kind, _DATA_BASE + src * _OP_SIZE,
                            _DATA_BASE + dst * _OP_SIZE))
        elif kind == "gcas":
            word = rng.randrange(_CAS_WORDS)
            new = rng.getrandbits(62) + 1
            program.append((kind, word * 8, words.get(word, 0), new))
            words[word] = new
        else:
            program.append((kind,))
    image = {_DATA_BASE + slot * _OP_SIZE: data
             for slot, data in slots.items()}
    image.update({word * 8: value.to_bytes(8, "little")
                  for word, value in words.items()})
    return program, image


def _drive_table1(scenario, group, program) -> Tuple[LatencyRecorder, int]:
    """One-outstanding closed loop over ``program``; returns the latency
    samples and how many gCAS result maps disagreed with the model."""
    recorder = LatencyRecorder("e2e")
    wrong_maps = [0]
    expect_len = group.group_size

    def driver(sim):
        for op in program:
            kind = op[0]
            if kind == "gwrite":
                group.write_local(op[1], op[2])
                result = yield group.gwrite(op[1], len(op[2]), durable=True)
            elif kind == "gmemcpy":
                result = yield group.gmemcpy(op[1], op[2], _OP_SIZE,
                                             durable=True)
            elif kind == "gcas":
                result = yield group.gcas(op[1], op[2], op[3], durable=True)
                if result.cas_results() != [op[2]] * expect_len:
                    wrong_maps[0] += 1
            else:
                result = yield group.gflush()
            recorder.record(result.latency_ns)

    process = group.sim.process(driver(group.sim), name="e2e.closed-loop")
    run_until(scenario.cluster, process, _DEADLINE_NS)
    if recorder.count < len(program):
        raise RuntimeError(f"closed loop incomplete: {recorder.count}/"
                           f"{len(program)} ops before the deadline")
    return recorder, wrong_maps[0]


def _mismatched_ranges(group, image: Dict[int, bytes]) -> int:
    """Ranges of ``image`` that any replica does not hold byte for byte."""
    return sum(
        1 for offset in sorted(image)
        if any(group.read_replica(hop, offset, len(image[offset]))
               != image[offset] for hop in range(group.group_size)))


def _flip_replica_byte(group, offset: int) -> None:
    """Self-test fault: corrupt one byte of the middle replica's region."""
    replica = group.replicas[1]
    address = replica.region.address + offset
    byte = replica.host.memory.read(address, 1)[0]
    replica.host.memory.write(address, bytes([byte ^ 0xFF]))


class _Table1Workload(Workload):
    """Closed-loop Table-1 primitives against one group of three."""

    backend = "hyperloop"
    backend_kwargs: Dict[str, Any] = {}
    kinds: List[str] = []
    env_seed = 8                      # fig8's seed: same tenants in both arms.

    def inputs(self, seed, size):
        return _table1_inputs(seed, size["ops"], self.kinds)

    def repeat(self, rec, inputs, size, corrupt=False):
        program, image = inputs
        with rec.phase("cluster_build"):
            scenario = build_scenario(ScenarioConfig(
                backend=self.backend, replicas=3, seed=self.env_seed,
                replica_tenants=_TENANTS,
                backend_kwargs={**self.backend_kwargs,
                                "slots": size["slots"],
                                "region_size": size["region_size"]}))
        with rec.phase("group_build"):
            group = scenario.build_group()
        load = _BackupLoad(scenario.replicas[1])
        start = group.sim.now
        with rec.phase("steady"):
            recorder, wrong_maps = _drive_table1(scenario, group, program)
        elapsed = group.sim.now - start
        cpu_pct, busy = load.stop()
        if corrupt:
            _flip_replica_byte(group, min(image))
        with rec.phase("verify"):
            bad = wrong_maps + _mismatched_ranges(group, image)
        with rec.phase("close"):
            group.close()
        return Outcome(attempted=len(program), ok=len(program) - bad,
                       bad=bad, sim_elapsed_ns=elapsed, latencies=recorder,
                       backup_cpu_pct=cpu_pct, replica_busy_frac=busy)


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------
class ChainSmall(_Table1Workload):
    name = "chain_small"
    why = ("steady-state NIC-offload path: closed loop over the four "
           "Table-1 primitives at 128 B under 10:1 tenants; rdma+nvm are "
           "most of the host time, so NIC-model work must show here")
    sizes = {"full": {"ops": 1000, "slots": 1024, "region_size": 32 << 20},
             "tiny": {"ops": 24, "slots": 64, "region_size": 1 << 20}}
    kinds = ["gwrite", "gmemcpy", "gcas", "gflush"]


class NaiveTenants(_Table1Workload):
    name = "naive_tenants"
    why = ("the paper's root-cause arm: CPU-forwarded gWRITE queues behind "
           "tenants on replica cores; sim.engine+sim.cpu dominate, NIC-model "
           "changes should not show")
    sizes = {"full": {"ops": 1000, "slots": 256, "region_size": 32 << 20},
             "tiny": {"ops": 24, "slots": 64, "region_size": 1 << 20}}
    backend = "naive"
    backend_kwargs = {"mode": "event"}
    kinds = ["gwrite"]


class Pipelined64k(Workload):
    name = "pipelined_64k"
    why = ("same rdma/nvm layers used in bulk: window-256 pipelined 64 KB "
           "gWRITE, ring wrap, page-spanning payloads, line-rate bound; a "
           "small-descriptor gain that taxes bulk shows here")
    sizes = {"full": {"ops": 1000, "slots": 1024, "region_size": 32 << 20},
             "tiny": {"ops": 40, "slots": 64, "region_size": 1 << 20}}
    _SIZE = 64 * 1024
    env_seed = 9                      # fig9's seed; no randomness consumed.

    def repeat(self, rec, inputs, size, corrupt=False):
        with rec.phase("cluster_build"):
            scenario = build_scenario(ScenarioConfig(
                backend="hyperloop", replicas=3, seed=self.env_seed,
                backend_kwargs={"slots": size["slots"],
                                "region_size": size["region_size"]}))
        with rec.phase("group_build"):
            group = scenario.build_group()
        load = _BackupLoad(scenario.replicas[1])
        with rec.phase("steady"):
            stats = throughput_run(
                group, self._SIZE, self._SIZE * size["ops"],
                window=min(256, size["slots"] // 4))
        cpu_pct, busy = load.stop()
        if corrupt:
            _flip_replica_byte(group, 0)
        with rec.phase("verify"):
            # throughput_run's payload is part of its public contract.
            bad = _mismatched_ranges(group, {0: b"\xCD" * self._SIZE})
        with rec.phase("close"):
            group.close()
        ops = int(stats["ops"])
        return Outcome(attempted=ops, ok=ops if not bad else 0,
                       bad=ops if bad else 0,
                       sim_elapsed_ns=int(stats["elapsed_ns"]),
                       backup_cpu_pct=cpu_pct, replica_busy_frac=busy)


class ShardBuild(Workload):
    name = "shard_build"
    why = ("set-up dominates by design: 8 shards x 1024 pre-posted slots, "
           "then one routed write per client; the only place encode-once or "
           "lazy pre-posting can show, in setup_s and peak_rss_mb")
    sizes = {"full": {"shards": 8, "slots": 1024, "clients": 400,
                      "rebalance_clients": 100},
             "tiny": {"shards": 2, "slots": 64, "clients": 24,
                      "rebalance_clients": 32}}
    env_seed = 21                     # fig_shards' seed (cluster + ring).

    def inputs(self, seed, size):
        # Dense key set in a seed-shuffled issue order: the per-shard load
        # (which sets simulated elapsed time) is the same for every seed.
        keys = list(range(size["clients"]))
        random.Random(seed).shuffle(keys)
        return keys

    def repeat(self, rec, inputs, size, corrupt=False):
        keys = inputs
        record_size = fig_shards.RECORD_SIZE
        with rec.phase("group_build"):
            deployment = build_deployment(ShardedConfig(
                shards=size["shards"], replicas=3, backend="hyperloop",
                seed=self.env_seed, record_size=record_size,
                records_per_shard=len(keys),
                backend_kwargs={"slots": size["slots"]}))
        sim = deployment.sim
        load = _BackupLoad(deployment.handles[0].group.replicas[1].host)
        recorder = LatencyRecorder("e2e")
        all_done = sim.event()

        def completed(event) -> None:
            recorder.record(event.value.latency_ns)
            if recorder.count == len(keys):
                all_done.succeed()

        start = sim.now
        with rec.phase("steady"):
            for key in keys:
                deployment.submit_write(
                    key, payload=encode_record(key, 1, record_size)
                ).add_callback(completed)
            deployment.run_until(all_done, _DEADLINE_NS)
        if recorder.count < len(keys):
            raise RuntimeError(f"shard closed loop incomplete: "
                               f"{recorder.count}/{len(keys)}")
        elapsed = sim.now - start
        cpu_pct, busy = load.stop()
        if corrupt:
            handle = deployment.handle_of(keys[0])
            _flip_replica_byte(handle.group, handle.offset_of(keys[0]))
        with rec.phase("verify"):
            bad = 0
            for key in keys:
                want = encode_record(key, 1, record_size)
                copies = [deployment.read_record(key)] + [
                    deployment.read_record_replica(key, hop)
                    for hop in range(3)]
                bad += any(copy != want for copy in copies)
        with rec.phase("close"):
            deployment.close()
        return Outcome(attempted=len(keys), ok=len(keys) - bad, bad=bad,
                       sim_elapsed_ns=elapsed, latencies=recorder,
                       backup_cpu_pct=cpu_pct, replica_busy_frac=busy)

    def finale(self, rec, size):
        """Online split + move under load; the deployment's own oracle
        (``verify_records``) must report zero lost writes."""
        with rec.phase("verify"):
            # Eight ops per client leave the rebalancer room to finish the
            # split and still start the move before the load runs out.
            row = fig_shards.rebalance_run(
                clients=size["rebalance_clients"], ops_per_client=8,
                seed=self.env_seed)
        bad = int(row["lost_writes"]) + (row["rebalances"] < 1)
        return bad, {
            "cluster.rebalance_sim_ms": max(
                (entry["t_ms"] for entry in row["timeline"]), default=0.0),
            "cluster.lost_writes": float(row["lost_writes"]),
        }


class FaultReconfig(Workload):
    name = "fault_reconfig"
    why = ("control path: heartbeats, watchdog, election, rebuild and "
           "catch-up copy across crash / nvm-power / link-flap on two "
           "backends; aborted in-flight ops repeat exactly")
    sizes = {"full": {"bucket_ms": 2, "buckets": 8, "fault_bucket": 1,
                      "ops_per_bucket": 80},
             "tiny": {"bucket_ms": 1, "buckets": 9, "fault_bucket": 1,
                      "ops_per_bucket": 8}}
    _KINDS = ["crash", "nvm-power", "link-flap"]
    _BACKENDS = ["hyperloop", "naive"]
    env_seed = 91                     # fig_faults' seed.

    def repeat(self, rec, inputs, size, corrupt=False):
        if corrupt:
            raise ValueError(f"{self.name}: the cluster lives inside "
                             "fig_faults.run(); nothing to corrupt")
        with rec.phase("steady"):
            rows = fig_faults.run(kinds=self._KINDS, backends=self._BACKENDS,
                                  jobs=1, seed=self.env_seed, **size)
        ok = sum(row["ok_ops"] for row in rows)
        aborted = sum(row["aborted_ops"] for row in rows)
        lost = sum(row["lost_acked_writes"] for row in rows)
        duplicates = sum(row["duplicate_acks"] for row in rows)
        failovers = [row for row in rows if row["outage_ms"] is not None]
        horizon_ns = size["bucket_ms"] * size["buckets"] * 1_000_000
        return Outcome(
            attempted=ok + aborted, ok=ok - lost, bad=lost + duplicates,
            sim_elapsed_ns=horizon_ns * len(rows),
            extras={
                "faults.detect_ms": max(
                    (row["detection_ms"] for row in failovers), default=0.0),
                "faults.outage_ms": max(
                    (row["outage_ms"] for row in failovers), default=0.0),
                "faults.reconfigs": sum(row["reconfigs"] for row in rows),
                "faults.aborted_ops": aborted,
                "faults.lost_acked_writes": lost,
                "faults.duplicate_acks": duplicates,
            })


class OverloadStorm(Workload):
    name = "overload_storm"
    why = ("the only open loop: 600 k simulated ops/s over 4 tenants through "
           "token bucket, bounded admission, shed and back-off, one timeout "
           "per attempt; wasted work shows as retries per good op")
    note = ("open loop: arrivals are scheduled in simulated time, so "
            "generator lateness is zero by construction")
    sizes = {"full": {"bucket_ms": 1, "buckets": 6, "stall_bucket": 2,
                      "stall_buckets": 2, "rate_ops": 600_000},
             "tiny": {"bucket_ms": 1, "buckets": 3, "stall_bucket": 1,
                      "stall_buckets": 1, "rate_ops": 40_000}}
    env_seed = 42                     # run_retry_storm's seed (arrivals).

    def repeat(self, rec, inputs, size, corrupt=False):
        if corrupt:
            raise ValueError(f"{self.name}: the cluster lives inside "
                             "run_retry_storm(); nothing to corrupt")
        with rec.phase("steady"):
            rows = fig_overload.run_retry_storm(jobs=1, seed=self.env_seed,
                                                **size)
        offered = sum(row["offered"] for row in rows)
        good = sum(row["good"] for row in rows)
        retries = sum(row["retries"] for row in rows)
        shed = sum(row["shed"] for row in rows)
        lost = sum(row["lost_acked_writes"] for row in rows)
        horizon_ns = size["bucket_ms"] * size["buckets"] * 1_000_000
        return Outcome(
            attempted=offered, ok=good - lost, bad=lost,
            sim_elapsed_ns=horizon_ns * len(rows),
            extras={
                "traffic.shed_frac": shed / max(1, offered + retries),
                "traffic.retries_per_good": retries / max(1, good),
                "traffic.goodput_frac": good / max(1, offered),
                "traffic.recovery_ratio": float(rows[-1]["recovery_ratio"]),
            })


class _ScriptedYCSB(YCSBWorkload):
    """A YCSB workload that replays operations generated here."""

    def __init__(self, config: YCSBConfig, script: List[YCSBOperation]):
        super().__init__(config)
        self._script = script

    def operations(self, count: int):
        return iter(self._script[:count])


class YcsbMongo(Workload):
    name = "ycsb_mongo"
    why = ("reads beside writes through apps/storage/core.readpath: WAL "
           "append, ExecuteAndAdvance, gCAS locks and one-sided READs on "
           "YCSB-A then YCSB-B; guards the read path against write-path "
           "gains")
    sizes = {"full": {"records": 100, "ops_per_mix": 150,
                      "region_size": 16 << 20, "wal_size": 4 << 20},
             "tiny": {"records": 12, "ops_per_mix": 10,
                      "region_size": 2 << 20, "wal_size": 1 << 20}}
    _MIXES = (("A", 50), ("B", 5))    # (letter, % updates; rest reads).
    _FIELD = 1024
    _READ_HOP = 1                     # Reads are served by the middle backup.
    env_seed = 13                     # fig12's seed.

    def inputs(self, seed, size):
        """Per mix: exact read/update counts in seed-shuffled order, zipf
        keys from YCSB's own chooser, update sizes drawn here so a lost
        update is visible in the final state."""
        rng = random.Random(seed)
        model = {key: self._FIELD for key in range(size["records"])}
        scripts = []
        for letter, update_pct in self._MIXES:
            chooser = YCSBWorkload(YCSBConfig(
                workload=letter, record_count=size["records"],
                field_length=self._FIELD, seed=seed))
            updates = size["ops_per_mix"] * update_pct // 100
            kinds = [OpType.UPDATE] * updates + \
                [OpType.READ] * (size["ops_per_mix"] - updates)
            rng.shuffle(kinds)
            script = []
            for kind in kinds:
                key = chooser.next_key()
                if kind is OpType.UPDATE:
                    model[key] = rng.randrange(256, self._FIELD + 1, 8)
                    script.append(YCSBOperation(kind, key,
                                                value_size=model[key]))
                else:
                    script.append(YCSBOperation(kind, key))
            scripts.append((letter, script))
        return scripts, model

    def repeat(self, rec, inputs, size, corrupt=False):
        scripts, model = inputs
        with rec.phase("cluster_build"):
            scenario = build_scenario(ScenarioConfig(
                backend="hyperloop", replicas=3, seed=self.env_seed,
                replica_tenants=_TENANTS,
                backend_kwargs={"slots": 256,
                                "region_size": size["region_size"]}))
        with rec.phase("group_build"):
            group = scenario.build_group()
            store = initialize(group,
                               StoreConfig(wal_size=size["wal_size"]))
            db = MongoLikeDB(store, MongoConfig())
            adapter = MongoAdapter(db, read_hop=self._READ_HOP)
        sim = scenario.cluster.sim
        config = YCSBConfig(record_count=size["records"],
                            field_length=self._FIELD)

        def run(generator) -> None:
            process = sim.process(generator, name="e2e.ycsb")
            run_until(scenario.cluster, process, _DEADLINE_NS)
            if not process.triggered:
                raise RuntimeError("ycsb phase missed its deadline")
            if not process.ok:
                raise process.value

        runners = [YCSBRunner(_ScriptedYCSB(config, script), adapter)
                   for _letter, script in scripts]
        with rec.phase("preload"):
            run(runners[0].load_phase(sim))
        load = _BackupLoad(scenario.replicas[1])
        start = sim.now
        with rec.phase("steady"):
            for runner, (_letter, script) in zip(runners, scripts):
                run(runner.run_phase(sim, len(script)))
        elapsed = sim.now - start
        cpu_pct, busy = load.stop()
        recorder = LatencyRecorder("e2e")
        for runner in runners:
            recorder.merge(runner.stats.overall)
        attempted = sum(len(script) for _letter, script in scripts)
        if corrupt:
            # First byte of the database area: record 0's header.
            _flip_replica_byte(group, store.layout.db_offset)
        wrong: List[int] = []

        def check(sim):
            session = adapter.session
            for key in sorted(model):
                want = make_value(key, model[key])
                primary = yield from session.find(key)
                backup = yield from session.find(key, hop=self._READ_HOP)
                if primary != want or backup != want:
                    wrong.append(key)

        with rec.phase("verify"):
            run(check(sim))
            bad = len(wrong) + (recorder.count != attempted)
        with rec.phase("close"):
            group.close()
        return Outcome(attempted=attempted, ok=attempted - bad, bad=bad,
                       sim_elapsed_ns=elapsed, latencies=recorder,
                       backup_cpu_pct=cpu_pct, replica_busy_frac=busy)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        ChainSmall(), NaiveTenants(), Pipelined64k(), ShardBuild(),
        FaultReconfig(), OverloadStorm(), YcsbMongo())}
