"""Smoke test of the end-to-end benchmark (tiny op counts, a few seconds).

Run with ``pytest benchmarks/e2e``.  It checks the instrument, not the
program: the contract file is well formed and agrees with the harness, every
workload reports every metric and repeats exactly, an injected replica
corruption fails the run, and a probe on a function that no longer exists
degrades to ``null`` instead of raising.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
for entry in (str(REPO / "src"), str(HERE.parent)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from e2e import harness, run, trace  # noqa: E402
from e2e.workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
CONTRACT = json.loads((REPO / "BENCHMARK.json").read_text())


def _cli(*args: str, cwd: Path = REPO, script: Path = HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def _last_line(done) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# The contract file
# ----------------------------------------------------------------------
def test_contract_is_well_formed():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert CONTRACT["command"][-1] == "benchmarks/e2e/run.py"
    assert 1 <= CONTRACT["run_seconds"] <= 60
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in CONTRACT[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])
    assert len((REPO / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_contract_agrees_with_the_harness():
    assert [(w["name"], w["why"]) for w in CONTRACT["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    for metric in CONTRACT["end_to_end"]:
        unit, _clock, better = harness.END_TO_END[metric["name"]]
        assert (metric["unit"], metric["better"]) == (unit, better)
    assert {m["name"]: (m["unit"], m["better"])
            for m in CONTRACT["per_layer"]} == \
        {name: (unit, better)
         for name, (unit, _clock, better) in harness.PER_LAYER.items()}


# ----------------------------------------------------------------------
# Every workload, in process, at smoke size
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_reports_every_metric_and_repeats_exactly(name):
    result = harness.measure(name, seed=3, seconds=0, import_s=0.0,
                             tiny=True)
    # measure() ran MIN_REPEATS repeats of one seed and compared every
    # simulated value and count between them.
    assert result["repeats"] == harness.MIN_REPEATS
    assert result["problems"] == [] and result["correct"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(harness.END_TO_END)
    for gated in CONTRACT["end_to_end"]:
        value = result["metrics"][gated["name"]]["value"]
        assert value is not None and value > 0, gated["name"]


def test_exact_counts_repeat_between_two_traced_runs():
    first = harness.measure_traced("chain_small", seed=3, import_s=0.0,
                                   tiny=True)
    second = harness.measure_traced("chain_small", seed=3, import_s=0.0,
                                    tiny=True)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(harness.PER_LAYER)
    assert abs(first["layer_fraction_sum"] - 1.0) <= 0.01
    exact = [name for name, entry in first["metrics"].items()
             if entry["clock"] != "host"]
    assert "rdma.wqe.decodes_per_op" in exact and "sim_p99_us" in exact
    for name in exact:
        assert first["metrics"][name]["value"] == \
            second["metrics"][name]["value"], name
    assert first["metrics"]["rdma.wqe.encodes_setup"]["value"] > 0
    assert first["chrome_trace"]["traceEvents"]


def test_missing_probe_is_null_not_an_exception(monkeypatch):
    monkeypatch.setitem(trace.PROBES, "decodes",
                        "repro.rdma.wqe:renamed_by_a_later_refactor")
    result = harness.measure_traced("naive_tenants", seed=3, import_s=0.0,
                                    tiny=True)
    assert result["correct"]
    assert result["metrics"]["rdma.wqe.decodes_per_op"]["value"] is None
    assert result["probes_missing"] == [
        "repro.rdma.wqe:renamed_by_a_later_refactor"]
    assert result["metrics"]["rdma.wqe.encodes_per_op"]["value"] > 0


def test_corrupted_replica_byte_fails_the_run():
    result = harness.measure("chain_small", seed=3, seconds=0, import_s=0.0,
                             tiny=True, corrupt=True)
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["op_fail_frac"]["value"] > 0


# ----------------------------------------------------------------------
# The command line
# ----------------------------------------------------------------------
def test_cli_prints_the_contract_line_for_both_trace_modes():
    for flag, section in (("0", "end_to_end"), ("1", "per_layer")):
        done = _cli("--workload", "overload_storm", "--seed", "5", "--tiny",
                    "--seconds", "0", "--trace", flag)
        assert done.returncode == 0, done.stderr
        line = _last_line(done)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert list(line["metrics"]) == \
            [metric["name"] for metric in CONTRACT[section]]
        for metric in line["metrics"].values():
            assert isinstance(metric["value"], (int, float))
            assert UNIT.match(metric["unit"])


def test_cli_exits_nonzero_on_injected_corruption():
    done = _cli("--workload", "chain_small", "--tiny", "--seconds", "0",
                "--inject-corruption")
    assert done.returncode != 0
    assert _last_line(done)["correct"] is False


def test_cli_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _cli("--workload", "chain_small", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path,
                script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_compare_applies_the_contract_bounds(tmp_path, capsys):
    def result_file(path, host_us_per_op, p99):
        runs = [{"workload": "chain_small", "seed": seed, "metrics": {
            "host_us_per_op": {"value": host_us_per_op + seed, "unit":
                               "us/op", "clock": "host"},
            "sim_p99_us": {"value": p99, "unit": "us", "clock": "sim"},
        }} for seed in (1, 2, 3, 4)]
        path.write_text(json.dumps({"runs": runs}))
        return str(path)

    base = result_file(tmp_path / "a.json", 1000.0, 12.0)
    same = result_file(tmp_path / "b.json", 1001.0, 12.0)
    slow = result_file(tmp_path / "c.json", 1500.0, 12.0)
    tail = result_file(tmp_path / "d.json", 1000.0, 13.0)
    assert run.main(["--compare", base, same]) == 0
    report = capsys.readouterr().out
    assert "unchanged" in report and "identical" in report
    assert run.main(["--compare", base, slow]) == 1
    assert "worse" in capsys.readouterr().out
    assert run.main(["--compare", base, tail]) == 1
    assert run.main(["--compare", slow, base]) == 0
    assert "better" in capsys.readouterr().out
