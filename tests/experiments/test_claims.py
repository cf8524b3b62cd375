"""The claims table: its shape, its runner, its exit code, and a quick subset.

The full scorecard runs at default scale (``python -m repro.experiments
claims``, a few minutes); here the subset whose bounds also hold at
``REPRO_QUICK`` scale runs for real.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import claims
from repro.experiments.__main__ import main as cli_main
from repro.experiments.claims import CLAIMS, FIGURES, Claim
from repro.experiments.common import format_table

#: Figures cheap enough for tier-1 whose claims hold at REPRO_QUICK scale.
#: Left out: fig2 (12 s even at that scale), availability (8 s; its run
#: does not scale) and fig12 (workload D measures about one insert).
QUICK_FIGURES = {"fig8a", "fig8b", "table2", "fig9", "fig10", "fig11",
                 "flush_cost", "flush_durability", "fanout_latency",
                 "fanout_goodput", "load"}
#: At 75 ops per rate the open loop delivers 118 kops/s of 100 offered.
QUICK_SKIPPED = {"load.delivered_error"}

#: The assertions of the former paper-claims integration test, by the
#: rows that now check them; every one is in the quick subset.
FOLDED = ["fig8a.hyperloop_p99_us", "fig8a.naive_p99_us",
          "fig8a.p99_reduction_x", "fig8a.avg_reduction_x",
          "fig9.hyperloop_backup_cpu_pct", "fig9.naive_backup_cpu_pct",
          "fig9.throughput_ratio_min", "fig9.throughput_ratio_max",
          "fig9.hyperloop_gbps",
          "fig10.hyperloop_p99_us", "fig10.hyperloop_growth_x",
          "flush.durable_survives_power_loss",
          "flush.volatile_survives_power_loss"]


def _quick_subset():
    return [claim for claim in CLAIMS if claim.figure in QUICK_FIGURES
            and claim.id not in QUICK_SKIPPED]


def _stub(monkeypatch, table, figures):
    monkeypatch.setattr(claims, "CLAIMS", table)
    monkeypatch.setattr(claims, "FIGURES", figures)


class TestTable:
    def test_ids_unique_and_every_figure_read(self):
        ids = [claim.id for claim in CLAIMS]
        assert len(ids) == len(set(ids))
        assert {claim.figure for claim in CLAIMS} == set(FIGURES)

    def test_every_bound_parses(self):
        for claim in CLAIMS:
            claims.holds(0.0, claim.bound)

    def test_folded_rows_keep_the_tighter_bounds(self):
        by_id = {claim.id: claim for claim in CLAIMS}
        subset = {claim.id for claim in _quick_subset()}
        assert set(FOLDED) <= subset
        assert by_id["fig8a.hyperloop_p99_us"].bound == "< 50"
        assert by_id["fig8a.p99_reduction_x"].bound == "> 50"
        assert by_id["fig8a.avg_reduction_x"].bound == "> 5"
        assert by_id["fig9.hyperloop_backup_cpu_pct"].bound == "== 0"
        assert by_id["fig9.throughput_ratio_min"].bound == "> 0.5"
        assert by_id["fig10.hyperloop_p99_us"].bound == "< 100"

    def test_package_import_does_not_load_claims(self):
        code = ("import sys, repro.experiments, repro.experiments.__main__; "
                "print('repro.experiments.claims' in sys.modules)")
        src_root = Path(claims.__file__).resolve().parents[2]
        probe = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src_root)})
        assert probe.stdout.strip() == "False", probe.stderr


class TestCheck:
    def test_each_figure_runs_once(self, monkeypatch):
        calls = {key: [] for key in FIGURES}
        figures = {key: (lambda jobs, key=key: calls[key].append(jobs))
                   for key in FIGURES}
        table = [Claim(claim.id, claim.paper, claim.figure, "> 0",
                       lambda result: 1.0) for claim in CLAIMS]
        _stub(monkeypatch, table, figures)
        rows = claims.check(jobs=3)
        assert len(rows) == len(CLAIMS)
        assert calls == {key: [3] for key in FIGURES}

    def test_scorecard_row(self, monkeypatch):
        _stub(monkeypatch, [Claim("stub.p99", "14", "stub", "< 50",
                                  lambda rows: rows[0] * 2)],
              {"stub": lambda jobs: [6.0]})
        assert claims.check() == [{"claim": "stub.p99", "paper": "14",
                                   "measured": "12", "bound": "< 50",
                                   "ok": "yes"}]

    @pytest.mark.parametrize("value, bound, ok", [
        (0.0, "== 0", True), (1e-9, "== 0", False), (5.0, "> 5", False),
        (5.0, ">= 5", True), (-0.04, "> -0.05", True), (2.0, "<= 1", False),
    ])
    def test_holds(self, value, bound, ok):
        assert claims.holds(value, bound) is ok


class TestCli:
    def test_violated_bound_exits_1(self, monkeypatch, capsys):
        _stub(monkeypatch,
              [Claim("stub.ok", "-", "stub", "> 1", lambda value: value),
               Claim("stub.bad", "-", "stub", "< 1", lambda value: value)],
              {"stub": lambda jobs: 5.0})
        assert cli_main(["claims"]) == 1
        out = capsys.readouterr().out
        assert "stub.bad" in out and "NO" in out and "1/2 claims hold" in out

    def test_all_bounds_met_exits_0_and_passes_jobs(self, monkeypatch):
        seen = []
        _stub(monkeypatch,
              [Claim("stub.ok", "-", "stub", "> 1", lambda value: value)],
              {"stub": lambda jobs: seen.append(jobs) or 5.0})
        assert cli_main(["claims", "--jobs", "2"]) == 0
        assert seen == [2]

    def test_claims_runs_alone(self, monkeypatch, capsys):
        _stub(monkeypatch, [], {})
        assert cli_main(["claims", "fig8"]) == 2
        assert "claims runs alone" in capsys.readouterr().err


def test_quick_subset_holds(monkeypatch):
    monkeypatch.delenv("REPRO_FULL", raising=False)
    monkeypatch.setenv("REPRO_QUICK", "1")
    monkeypatch.setattr(claims, "CLAIMS", _quick_subset())
    rows = claims.check()
    failed = [row for row in rows if row["ok"] != "yes"]
    assert not failed, format_table(failed)
