"""Smoke tests for the experiment harness (tiny parameterizations).

The full-size runs and their shape bounds live in
:mod:`repro.experiments.claims`; these verify that every experiment
module executes end to end and emits sane rows.
"""

import pytest

from repro.experiments import fig8, fig9, fig10, fig11, fig12, table2
from repro.experiments.common import (build_testbed, format_table, full_run, latency_sweep, make_hyperloop, scaled, throughput_run)
from repro.sim.units import MiB


class TestCommonHelpers:
    def test_scaled_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert not full_run()
        assert scaled(10, 100) == 10
        monkeypatch.setenv("REPRO_FULL", "1")
        assert full_run()
        assert scaled(10, 100) == 100

    def test_build_testbed_shape(self):
        testbed = build_testbed(replica_count=2, seed=5, cores=8,
                                replica_tenants=4)
        assert len(testbed.replicas) == 2
        assert len(testbed.replicas[0].cpu.cores) == 8
        assert testbed.client.name == "client"

    def test_latency_sweep_counts(self):
        testbed = build_testbed(3, seed=6)
        group = make_hyperloop(testbed, slots=32)
        recorder = latency_sweep(group, "gwrite", 256, 50)
        assert recorder.count == 50
        assert recorder.mean_us() > 0

    def test_latency_sweep_rejects_unknown_op(self):
        testbed = build_testbed(3, seed=6)
        group = make_hyperloop(testbed, slots=32)
        with pytest.raises(Exception):
            latency_sweep(group, "gnonsense", 256, 5)

    def test_throughput_run(self):
        testbed = build_testbed(3, seed=7)
        group = make_hyperloop(testbed, slots=64)
        result = throughput_run(group, 4096, 2 * MiB, window=32)
        assert result["ops"] == 512
        assert result["kops_per_sec"] > 0
        assert 0 < result["gbps"] < 56

    def test_format_table(self):
        text = format_table([{"a": 1, "b": 2.5}], title="T")
        assert "T" in text and "2.5" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])


class TestMicrobenchModules:
    def test_fig8_tiny(self):
        rows = fig8.run(op="gwrite", sizes=[256], count=120, seed=3)
        assert len(rows) == 2
        systems = {row["system"] for row in rows}
        assert systems == {"naive", "hyperloop"}
        ratios = fig8.speedups(rows)
        assert ratios[256]["p99_x"] > 1

    def test_table2_tiny(self):
        rows = table2.run(count=120, seed=4)
        by_system = {row["system"]: row for row in rows}
        assert by_system["hyperloop"]["p99_us"] \
            < by_system["naive"]["p99_us"]

    def test_fig9_tiny(self):
        rows = fig9.run(sizes=[8192], total_bytes=2 * MiB, seed=5)
        assert len(rows) == 2
        hyper = next(r for r in rows if r["system"] == "hyperloop")
        assert hyper["backup_cpu_pct"] < 2

    def test_fig10_tiny(self):
        rows = fig10.run(group_sizes=[3, 5], sizes=[512], count=100, seed=6)
        assert len(rows) == 4
        assert fig10.tail_growth(rows, "hyperloop") < 5


class TestAppModules:
    def test_fig11_tiny(self):
        rows = fig11.run(op_count=60, record_count=30, seed=7)
        assert {row["system"] for row in rows} == set(fig11.SYSTEMS)
        assert all(row["ops"] > 0 for row in rows)

    def test_fig12_tiny(self):
        rows = fig12.run(workloads=["A"], op_count=40, record_count=20,
                         seed=8)
        assert len(rows) == 2
        native = next(r for r in rows if r["system"] == "native")
        hyper = next(r for r in rows if r["system"] == "hyperloop")
        assert native["avg_ms"] > 0 and hyper["avg_ms"] > 0

    def test_fig12_gap_reduction_helper(self):
        rows = [
            {"system": "native", "workload": "A", "avg_ms": 2.0,
             "p99_ms": 10.0},
            {"system": "hyperloop", "workload": "A", "avg_ms": 1.0,
             "p99_ms": 2.0},
        ]
        gaps = fig12.tail_gap_reduction(rows)
        assert gaps["A"] == pytest.approx(1 - (1.0 / 8.0))


class TestCalibration:
    def test_point_to_point_rtt_in_connectx3_range(self):
        from repro.experiments import calibration
        row = calibration.point_to_point_write_rtt(samples=50)
        assert 1.0 < row["avg_us"] < 6.0

    def test_chain_latency_grows_linearly_with_hops(self):
        from repro.experiments import calibration
        rows = calibration.chain_latency_by_group(sizes=(1, 3), count=60)
        one, three = rows[0]["avg_us"], rows[1]["avg_us"]
        # Two extra hops cost roughly two per-hop increments.
        assert three > one
        per_hop = (three - one) / 2
        assert 1.0 < per_hop < 6.0

    def test_wakeup_quantiles_monotonic_in_load(self):
        from repro.experiments import calibration
        rows = calibration.wakeup_quantiles(tenant_counts=(0, 160),
                                            samples=100)
        assert rows[0]["p99_us"] < rows[1]["p99_us"]


class TestAvailability:
    def test_tiny_timeline(self):
        from repro.experiments import availability
        result = availability.run(bucket_ms=5, buckets=20, crash_bucket=6,
                                  ops_per_bucket_target=40, seed=91)
        assert result["repairs"] == 1
        assert result["lost_acked_writes"] == 0
        assert result["outage_ms"] is not None
        # Detection latency (crash -> supervisor notices) is surfaced
        # separately and is a strict part of the total outage.
        assert result["detection_ms"] is not None
        assert 0 < result["detection_ms"] <= result["outage_ms"]

    def test_final_bucket_not_inflated_by_drain_window(self):
        """Post-horizon completions are dropped, not clamped.

        The run gives the sim two grace windows past the measured
        horizon; clamping those completions into the last bucket used to
        roughly triple it relative to steady state.
        """
        from repro.experiments import availability
        result = availability.run(bucket_ms=5, buckets=12, crash_bucket=4,
                                  ops_per_bucket_target=40, seed=92)
        timeline = result["timeline"]
        assert len(timeline) == 12
        steady = max(timeline[1:result["crash_bucket"]])
        assert timeline[-1] <= steady * 1.5
