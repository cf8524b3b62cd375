"""Overload & metastable failure: traffic that misbehaves, per backend.

The paper's multi-tenant claim (§6.3) is infrastructure isolation —
replication work never touches replica CPUs.  This extension experiment
asks the complementary production question: what happens when the
*traffic* misbehaves?  Three scripted scenarios drive the traffic layer
(:mod:`repro.traffic`) against replication groups:

* **Retry storm** (:func:`run_retry_storm`) — a transient replica stall
  under steady multi-tenant load.  The naive arm (CPU-forwarded
  backend, unbounded queueing, immediate retries) collapses into
  *metastable* overload: the backlog keeps queueing delay above the
  latency budget, every op times out, timeouts spawn retries, and the
  amplified arrival rate sustains the backlog long after the stall has
  cleared — goodput never recovers.  The HyperLoop arm with a bounded
  admission queue and capped exponential backoff sheds the excess
  cheaply and returns to pre-stall goodput within a couple of windows.
  An acked-write oracle (monotone per-tenant sequence payloads) proves
  that no acknowledged write is lost in either arm, storm or not.

* **Tenant burst** (:func:`run_tenant_burst`) — one tenant offers 10×
  its provisioned rate mid-run.  Without quotas the burst drags every
  tenant's goodput down (shared-queue interference); with per-tenant
  token buckets the burster is throttled at the edge and the victims
  never notice.

* **Hotspot shift** (:func:`run_hotspot_shift`) — zipf-skewed traffic
  over a sharded deployment, with the hot key set hopping to a
  different shard mid-run.  Per-shard admission confines shedding to
  whichever shard is currently hot; the timeline shows the shed load
  migrating with the hotspot while aggregate goodput holds.

Determinism: every sweep point owns its cluster and derives all
randomness from named :class:`~repro.sim.rng.RandomStreams`, so
``--jobs N`` rows are byte-identical to a serial run.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from .. import backend as backend_registry
from ..cluster import ShardedConfig, build_deployment
from ..faults import SEQ_BYTES, AckOracle, pack_seq
from ..host import Cluster
from ..sim.rng import ZipfianGenerator
from ..sim.units import ms
from ..traffic import (
    AdmissionConfig,
    AdmissionQueue,
    ExponentialBackoff,
    ImmediateRetry,
    NoRetry,
    RetryPolicy,
    SLOTracker,
    TenantQuota,
    TrafficShaper,
)
from ..workloads.tenants import Surge, TenantSpec, tenant_arrivals
from .common import default_bucket_ms, format_table, quick_run, window_mean
from .parallel import sweep

__all__ = ["STORM_ARMS", "run_retry_storm", "run_tenant_burst",
           "run_hotspot_shift", "main"]

#: The two retry-storm arms: (arm label, backend, retry policy, admission).
STORM_ARMS = [
    ("naive", "naive", "immediate", 0),
    ("hyperloop+admission", "hyperloop", "backoff", 1),
]

#: Bytes reserved per tenant in the replicated region (one oracle slot).
_TENANT_STRIDE = 64


def _make_retry(kind: str, budget_ns: int) -> RetryPolicy:
    if kind == "immediate":
        return ImmediateRetry(max_attempts=4)
    if kind == "backoff":
        return ExponentialBackoff(base_ns=budget_ns // 4,
                                  cap_ns=4 * budget_ns,
                                  max_attempts=6, jitter=0.5)
    if kind == "none":
        return NoRetry()
    raise ValueError(f"unknown retry kind {kind!r}")


# ----------------------------------------------------------------------
# Scenario 1 — retry storm after a transient replica stall
# ----------------------------------------------------------------------
def _storm_worker(point) -> Dict[str, Any]:
    """One arm of the retry-storm scenario, on a fresh cluster."""
    (arm, backend, retry_kind, use_admission, rate_ops, bucket_ms,
     buckets, stall_bucket, stall_buckets, tenants, seed) = point
    cluster = Cluster(seed=seed)
    client = cluster.add_host("ov-client")
    replicas = cluster.add_hosts(3, prefix="ov-replica")
    group = backend_registry.create(backend, client, replicas,
                                    slots=256, region_size=1 << 16)
    sim = cluster.sim
    budget_ns = ms(bucket_ms)        # Per-op SLO budget: one bucket.
    horizon_ns = ms(bucket_ms) * buckets
    slo = SLOTracker(budget_ns=budget_ns, bucket_ns=ms(bucket_ms),
                     buckets=buckets)
    admission = None
    if use_admission:
        # depth/service ≈ 0.22 ms at the measured ~1.15 Mops/s chain
        # capacity — well under the budget, so admitted ops stay good.
        admission = AdmissionQueue(sim, AdmissionConfig(depth=256,
                                                        window=64))
    shaper = TrafficShaper(sim, admission=admission, slo=slo)
    retry = _make_retry(retry_kind, budget_ns)
    retry_rng = cluster.rng.stream("overload.retry")

    # Acked-write oracle: tenant i owns one region slot; every dispatched
    # attempt writes the tenant's next monotone sequence number.  Dispatch
    # order equals group-FIFO submission order, so each replica's stored
    # sequence must end >= the highest acked one.
    dispatch_seq = [0] * tenants
    oracle = AckOracle()

    def _make_issue(tenant_index: int) -> Callable:
        offset = tenant_index * _TENANT_STRIDE

        def issue():
            dispatch_seq[tenant_index] += 1
            seq = dispatch_seq[tenant_index]
            group.write_local(offset, pack_seq(seq))
            return oracle.track(group.gwrite(offset, SEQ_BYTES), offset, seq)

        return issue

    def _one_op(tenant_index: int):
        yield from shaper.perform(
            f"t{tenant_index}", _make_issue(tenant_index),
            retry=retry, rng=retry_rng, timeout_ns=budget_ns)

    def _on_arrival(spec: TenantSpec, _now: int,
                    tenant_index: int = 0) -> None:
        sim.process(_one_op(tenant_index))

    per_tenant_rate = rate_ops / tenants
    for index in range(tenants):
        spec = TenantSpec(name=f"t{index}",
                          rate_ops_per_sec=per_tenant_rate)
        rng = cluster.rng.stream(f"overload.arrivals.{index}")
        sim.process(tenant_arrivals(
            sim, spec, rng, horizon_ns,
            lambda s, now, index=index: _on_arrival(s, now, index)))

    def _stall_trigger():
        yield ms(bucket_ms) * stall_bucket
        group.stall(ms(bucket_ms) * stall_buckets)

    sim.process(_stall_trigger())
    cluster.run(until=horizon_ns + 2 * ms(bucket_ms))

    timeline = slo.timeline()
    stall_end = stall_bucket + stall_buckets
    goodput = [float(row["goodput_kops"]) for row in timeline]
    pre_kops = window_mean(goodput, 1, stall_bucket)
    post_kops = window_mean(goodput, stall_end + 1, len(goodput))
    tenant_rows = slo.tenant_rows()
    return {
        "arm": arm,
        "backend": backend,
        "retry": retry_kind,
        "admission": bool(use_admission),
        "pre_kops": round(pre_kops, 2),
        "post_kops": round(post_kops, 2),
        "recovery_ratio": round(post_kops / pre_kops, 4) if pre_kops
        else 0.0,
        "offered": sum(int(row["offered"]) for row in tenant_rows),
        "good": sum(int(row["good"]) for row in tenant_rows),
        "retries": sum(int(row["retries"]) for row in tenant_rows),
        "shed": sum(int(row["shed"]) for row in tenant_rows),
        "throttled": sum(int(row["throttled"]) for row in tenant_rows),
        "lost_acked_writes": oracle.lost_count(group),
        "timeline": timeline,
    }


def run_retry_storm(jobs: int = 1, rate_ops: int = 600_000,
                    bucket_ms: Optional[int] = None,
                    buckets: Optional[int] = None,
                    stall_bucket: Optional[int] = None,
                    stall_buckets: Optional[int] = None,
                    tenants: int = 4, seed: int = 42,
                    backend: str = "hyperloop") -> List[Dict[str, Any]]:
    """Both storm arms; one row per arm, timeline embedded.

    ``rate_ops`` (aggregate, split across ``tenants``) sits at ~52% of
    the offloaded chain's capacity and ~66% of the naive baseline's —
    comfortably stable, until immediate retries multiply it by the
    4-attempt budget and push the naive arm past saturation for good.
    ``backend`` swaps the replication backend of the admission arm.
    """
    bucket_ms = bucket_ms or default_bucket_ms()
    if buckets is None:
        buckets = 12 if quick_run() else 20
    if stall_bucket is None:
        stall_bucket = 3 if quick_run() else 5
    if stall_buckets is None:
        stall_buckets = 3 if quick_run() else 4
    points = []
    for arm, arm_backend, retry_kind, use_admission in STORM_ARMS:
        if use_admission and backend != "hyperloop":
            arm = f"{backend}+admission"
            arm_backend = backend
        points.append((arm, arm_backend, retry_kind, use_admission,
                       rate_ops, bucket_ms, buckets, stall_bucket,
                       stall_buckets, tenants, seed))
    return sweep(points, _storm_worker, jobs=jobs)


# ----------------------------------------------------------------------
# Scenario 2 — 10×-quota tenant burst
# ----------------------------------------------------------------------
def _burst_worker(point) -> Dict[str, Any]:
    """One arm (quotas on/off) of the tenant-burst scenario."""
    (arm, use_quotas, backend, rate_per_tenant, burst_multiplier,
     bucket_ms, buckets, tenants, seed) = point
    cluster = Cluster(seed=seed)
    client = cluster.add_host("tb-client")
    replicas = cluster.add_hosts(3, prefix="tb-replica")
    group = backend_registry.create(backend, client, replicas,
                                    slots=256, region_size=1 << 16)
    sim = cluster.sim
    budget_ns = ms(bucket_ms)
    horizon_ns = ms(bucket_ms) * buckets
    slo = SLOTracker(budget_ns=budget_ns, bucket_ns=ms(bucket_ms),
                     buckets=buckets)
    quotas = None
    admission = None
    if use_quotas:
        # Quota = the provisioned rate (with a one-bucket burst credit);
        # admission backstops what the per-tenant buckets let through.
        quotas = {f"t{i}": TenantQuota(rate_per_tenant * 1.25, burst=32.0)
                  for i in range(tenants)}
        admission = AdmissionQueue(sim, AdmissionConfig(depth=256,
                                                        window=64))
    shaper = TrafficShaper(sim, admission=admission, quotas=quotas,
                           slo=slo)
    retry = NoRetry()
    retry_rng = cluster.rng.stream("burst.retry")
    payload = b"\xAB" * 8

    def _make_issue(tenant_index: int) -> Callable:
        offset = tenant_index * _TENANT_STRIDE

        def issue():
            group.write_local(offset, payload)
            return group.gwrite(offset, 8)

        return issue

    def _one_op(tenant_index: int):
        yield from shaper.perform(
            f"t{tenant_index}", _make_issue(tenant_index),
            retry=retry, rng=retry_rng, timeout_ns=4 * budget_ns)

    # The last tenant bursts to burst_multiplier× for the middle third.
    surge = Surge(start_ns=horizon_ns // 3, duration_ns=horizon_ns // 3,
                  multiplier=float(burst_multiplier))
    for index in range(tenants):
        surges = (surge,) if index == tenants - 1 else ()
        spec = TenantSpec(name=f"t{index}",
                          rate_ops_per_sec=rate_per_tenant,
                          surges=surges)
        rng = cluster.rng.stream(f"burst.arrivals.{index}")
        sim.process(tenant_arrivals(
            sim, spec, rng, horizon_ns,
            lambda s, now, index=index: sim.process(_one_op(index))))

    cluster.run(until=horizon_ns + 2 * ms(bucket_ms))
    rows = []
    for row in slo.tenant_rows():
        rows.append({"arm": arm, **row})
    return {"arm": arm, "tenants": rows}


def run_tenant_burst(jobs: int = 1, rate_per_tenant: int = 150_000,
                     burst_multiplier: int = 10,
                     bucket_ms: Optional[int] = None,
                     buckets: Optional[int] = None,
                     tenants: int = 4, seed: int = 43,
                     backend: str = "hyperloop") -> List[Dict[str, Any]]:
    """Quota arm vs no-quota arm; per-tenant rows embedded per arm.

    At the default rates the steady fleet offers ~52% of chain capacity;
    the 10× burst pushes the aggregate to ~1.7× capacity, so without
    quotas the shared pipeline backlog blows every tenant's budget.
    """
    bucket_ms = bucket_ms or default_bucket_ms()
    if buckets is None:
        buckets = 9 if quick_run() else 15
    points = [
        ("no-quota", 0, backend, rate_per_tenant, burst_multiplier,
         bucket_ms, buckets, tenants, seed),
        ("quota+admission", 1, backend, rate_per_tenant, burst_multiplier,
         bucket_ms, buckets, tenants, seed),
    ]
    return sweep(points, _burst_worker, jobs=jobs)


# ----------------------------------------------------------------------
# Scenario 3 — zipf hotspot shifting mid-run over a sharded deployment
# ----------------------------------------------------------------------
def run_hotspot_shift(rate_ops: int = 1_000_000, hot_fraction: float = 0.7,
                      shards: int = 4, hot_keys: int = 32,
                      bucket_ms: Optional[int] = None,
                      buckets: Optional[int] = None,
                      theta: float = 0.99, seed: int = 44,
                      backend: str = "hyperloop") -> Dict[str, Any]:
    """Zipf hotspot on one shard, hopping to another mid-run.

    ``hot_fraction`` of arrivals target a zipf-weighted hot key set that
    lives entirely on one shard (keys are picked by probing the ring);
    the rest spread uniformly.  At half-horizon the hot set moves to a
    different shard.  A small per-shard admission window keeps the hot
    shard's effective service rate below the hot load, so it sheds —
    and the shedding must follow the hotspot while the cold shards stay
    clean.
    """
    bucket_ms = bucket_ms or default_bucket_ms()
    if buckets is None:
        buckets = 10 if quick_run() else 16
    # A deliberately tight dispatch window caps each shard's effective
    # service rate below the hot-spot load, so overload concentrates as
    # shed on whichever shard currently hosts the hot keys.
    deployment = build_deployment(ShardedConfig(
        shards=shards, replicas=3, backend=backend, seed=seed,
        record_size=_TENANT_STRIDE, records_per_shard=1024,
        admission_depth=64, admission_window=2,
        backend_kwargs={"slots": 256}))
    sim = deployment.sim
    budget_ns = ms(bucket_ms)
    horizon_ns = ms(bucket_ms) * buckets
    slo = SLOTracker(budget_ns=budget_ns, bucket_ns=ms(bucket_ms),
                     buckets=buckets)

    # Probe the ring for per-shard key sets (keys route by hash, so
    # "hot keys on shard S" must be discovered, not assigned).
    keys_by_shard: Dict[int, List[int]] = {s: [] for s in range(shards)}
    probe = 0
    while any(len(keys) < hot_keys for keys in keys_by_shard.values()):
        keys_by_shard[deployment.shard_of(probe)].append(probe)
        probe += 1
    hot_shards = (0, 1 % shards)     # Hot set lives here, then hops.
    shift_ns = horizon_ns // 2
    zipf = ZipfianGenerator(hot_keys, theta=theta,
                            rng=deployment.cluster.rng.stream(
                                "hotspot.zipf"))
    pick_rng = deployment.cluster.rng.stream("hotspot.pick")
    payload = b"\xCD" * 8
    shed_by_phase = [[0] * shards, [0] * shards]

    def _submit(now_ns: int) -> None:
        hot_shard = hot_shards[0] if now_ns < shift_ns else hot_shards[1]
        phase = 0 if now_ns < shift_ns else 1
        if pick_rng.random() < hot_fraction:
            key = keys_by_shard[hot_shard][zipf.next() % hot_keys]
        else:
            shard = pick_rng.randrange(shards)
            key = keys_by_shard[shard][pick_rng.randrange(hot_keys)]
        shard_id = deployment.shard_of(key)
        tenant = f"shard{shard_id}"
        slo.record_offered(tenant, now_ns)
        slo.record_attempt(tenant, 1)
        event = deployment.submit_write(key, 8, payload=payload)

        def _finish(ev, tenant=tenant, offered=now_ns,
                    phase=phase, shard_id=shard_id) -> None:
            if ev.ok:
                slo.record_done(tenant, offered, sim.now)
            else:
                slo.record_shed(tenant, sim.now, "queue-full")
                shed_by_phase[phase][shard_id] += 1

        event.add_callback(_finish)

    spec = TenantSpec(name="aggregate", rate_ops_per_sec=float(rate_ops))
    arrival_rng = deployment.cluster.rng.stream("hotspot.arrivals")
    sim.process(tenant_arrivals(
        sim, spec, arrival_rng, horizon_ns,
        lambda _spec, now: _submit(now)))
    deployment.cluster.run(until=horizon_ns + 2 * ms(bucket_ms))
    shard_rows = deployment.shard_rows()
    deployment.close()
    return {
        "hot_shards": list(hot_shards),
        "shift_ms": round(shift_ns / 1e6, 3),
        "shed_before_shift": shed_by_phase[0],
        "shed_after_shift": shed_by_phase[1],
        "tenants": slo.tenant_rows(),
        "timeline": slo.timeline(),
        "shards": shard_rows,
    }


# ----------------------------------------------------------------------
# CLI entry point
# ----------------------------------------------------------------------
def main(backend: str = "hyperloop", jobs: int = 1) -> List[Dict[str, Any]]:
    storm = run_retry_storm(jobs=jobs, backend=backend)
    summary = [{key: value for key, value in row.items()
                if key != "timeline"} for row in storm]
    print(format_table(
        summary, title="Retry storm — transient stall, per arm"))
    for row in storm:
        print(f"  {row['arm']} goodput timeline (kops per bucket):")
        print("    " + " ".join(
            f"{float(bucket['goodput_kops']):.0f}"
            for bucket in row["timeline"]))
    naive_row = storm[0]
    admit_row = storm[1]
    verdict = ("metastable" if naive_row["recovery_ratio"] < 0.5
               else "recovered")
    print(f"naive: post-stall goodput {naive_row['post_kops']:.0f} kops "
          f"vs pre {naive_row['pre_kops']:.0f} kops "
          f"(recovery {naive_row['recovery_ratio']:.2f}) — {verdict}")
    print(f"{admit_row['arm']}: recovery "
          f"{admit_row['recovery_ratio']:.2f} "
          f"(shed {admit_row['shed']}, retries {admit_row['retries']})")
    total_lost = sum(int(row["lost_acked_writes"]) for row in storm)
    if total_lost:
        raise RuntimeError(
            f"{total_lost} acknowledged writes lost during the storm")
    print("zero acknowledged writes lost in either arm")

    burst = run_tenant_burst(jobs=jobs, backend=backend)
    for arm_result in burst:
        print(format_table(
            arm_result["tenants"],
            title=f"Tenant burst (10× quota) — arm: {arm_result['arm']}"))

    hotspot = run_hotspot_shift(backend=backend)
    print(format_table(hotspot["tenants"],
                       title="Hotspot shift — per-shard SLO accounting"))
    print(f"hot shard {hotspot['hot_shards'][0]} -> "
          f"{hotspot['hot_shards'][1]} at {hotspot['shift_ms']:.1f} ms; "
          f"shed before: {hotspot['shed_before_shift']}, "
          f"after: {hotspot['shed_after_shift']}")
    return storm


if __name__ == "__main__":
    main()
