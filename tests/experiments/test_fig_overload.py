"""Acceptance tests for the overload / metastable-failure experiment.

These pin the headline claims at test-scale parameters (same arrival and
service rates as the real figure — only the horizon shrinks, because the
overload dynamics live in the offered-load/capacity ratio):

* the swept scenarios are byte-deterministic, serial vs ``jobs=2``;
* no arm ever loses an ACKed write, even while shedding thousands;
* the naive immediate-retry arm is metastable — goodput stays collapsed
  after the stall clears — while admission + backoff recovers.
"""

import json

import pytest

from repro.experiments.fig_overload import (run_hotspot_shift,
                                            run_retry_storm,
                                            run_tenant_burst)

# One shared cut-down parameter set so each expensive sweep runs once per
# mode (serial / parallel), with every assertion reading from the same
# rows.
STORM_KW = dict(rate_ops=400_000, bucket_ms=1, buckets=8, stall_bucket=2,
                stall_buckets=2, tenants=2, seed=42)
BURST_KW = dict(rate_per_tenant=150_000, bucket_ms=1, buckets=6,
                tenants=3, seed=43)


@pytest.fixture(scope="module")
def storm_rows():
    """The serial retry-storm rows, shared by this module's tests."""
    return run_retry_storm(**STORM_KW)


@pytest.fixture(scope="module")
def burst_rows():
    """The serial tenant-burst rows, shared by this module's tests."""
    return run_tenant_burst(**BURST_KW)


class TestRetryStorm:
    def test_separation_determinism_and_no_lost_writes(self, storm_rows):
        serial = storm_rows
        parallel = run_retry_storm(jobs=2, **STORM_KW)
        # Byte-identical rows regardless of worker fan-out.
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            parallel, sort_keys=True)

        by_arm = {row["arm"]: row for row in serial}
        naive = by_arm["naive"]
        admitted = by_arm["hyperloop+admission"]

        # Durability oracle: shedding and timeouts never lose an ACK.
        assert naive["lost_acked_writes"] == 0
        assert admitted["lost_acked_writes"] == 0

        # Metastability: after the transient stall clears, the naive
        # arm's goodput stays >=50% below its pre-stall level forever
        # (here: it flatlines), while admission + backoff recovers to
        # >=90% of pre-stall within the measured window.
        assert naive["pre_kops"] > 0
        assert naive["recovery_ratio"] <= 0.5
        assert admitted["recovery_ratio"] >= 0.9

        # The mechanism is retry amplification, and admission converts
        # queueing into explicit sheds instead of silent latency.
        assert naive["retries"] > admitted["retries"]
        assert admitted["shed"] > 0 and naive["shed"] == 0

    def test_timeline_shape(self, storm_rows):
        rows = storm_rows
        for row in rows:
            timeline = row["timeline"]
            assert len(timeline) == STORM_KW["buckets"]
            # Pre-stall buckets carry real goodput in both arms.
            assert timeline[1]["goodput_kops"] > 100
        naive = next(r for r in rows if r["arm"] == "naive")
        # Goodput collapses once the stall lands (the stall bucket itself
        # may catch a few completions issued just before onset) and never
        # comes back — the signature of the metastable state.
        assert all(bucket["goodput_kops"] < 10
                   for bucket in naive["timeline"][STORM_KW["stall_bucket"]:])


class TestTenantBurst:
    def test_quotas_isolate_victims(self, burst_rows):
        arms = {arm["arm"]: arm["tenants"] for arm in burst_rows}

        # Without quotas the burster's backlog blows every victim's SLO.
        victims = [t for t in arms["no-quota"]
                   if t["tenant"] != f"t{BURST_KW['tenants'] - 1}"]
        assert all(t["violation_ms"] > 0 for t in victims)
        assert all(t["p99_us"] > 1000 for t in victims)  # Budget is 1 ms.

        # With quotas + admission the victims sail through untouched and
        # only the burster pays (throttled at its own quota edge).
        shielded = [t for t in arms["quota+admission"]
                    if t["tenant"] != f"t{BURST_KW['tenants'] - 1}"]
        burster = next(t for t in arms["quota+admission"]
                       if t["tenant"] == f"t{BURST_KW['tenants'] - 1}")
        assert all(t["goodput_ratio"] >= 0.99 for t in shielded)
        assert all(t["violation_ms"] == 0 for t in shielded)
        assert all(t["p99_us"] < 100 for t in shielded)
        assert burster["throttled"] > 0

    def test_burst_sweep_deterministic(self, burst_rows):
        serial = burst_rows
        parallel = run_tenant_burst(jobs=2, **BURST_KW)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            parallel, sort_keys=True)


class TestHotspotShift:
    def test_shed_follows_the_hot_shard(self):
        result = run_hotspot_shift(rate_ops=600_000, shards=2, hot_keys=16,
                                   bucket_ms=1, buckets=8, seed=44)
        first, second = result["hot_shards"]
        before = result["shed_before_shift"]
        after = result["shed_after_shift"]
        # Overload is localized to whichever shard currently holds the
        # hotspot; the cold shard barely sheds at all.
        assert before[first] > 100
        assert before[second] < before[first] * 0.1
        assert after[second] > 100
        assert after[first] < after[second] * 0.1
