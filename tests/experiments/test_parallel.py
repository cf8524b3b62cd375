"""Sweep-engine correctness: nothing is allowed to change any row.

Every sweep point owns its simulator and seed, so fanning points out
over worker processes is pure scheduling — the rows must come back in
point order and byte-identical to a serial run.  The same invariant
extends to every engine mode: cache cold or warm, full grid or resumed
partial grid.  A sweep optimization that changes results is worse than
no optimization at all, so this file pins the whole matrix.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.experiments import fig8, fig_shards
from repro.experiments import __main__ as cli
from repro.experiments.parallel import SweepOptions, last_stats, sweep
from repro.experiments.parallel import engine
from repro.experiments.parallel.cache import CODE_VERSION
from repro.sim.engine import Simulator
from repro.sim.stats import LatencyRecorder


def _square(point):
    return point * point


def _crash_in_pool_worker(point):
    """Die hard (like an OOM kill) inside pool workers only.

    ``parent_process()`` is None in the main process, so the serial
    fallback re-run computes real results.
    """
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return point * 10


def _marking_row(point):
    """Cacheable row that leaves a file per execution, so tests can
    prove a warm cache ran zero workers (not just claimed to)."""
    base, scale, mark_dir = point
    (Path(mark_dir) / f"{base}x{scale}").touch()
    return {"base": base, "value": base * scale,
            "mean": base / max(1, scale)}


def _summary_row(point):
    """Worker that summarizes a latency distribution into its row."""
    index, count = point
    recorder = LatencyRecorder(f"pt-{index}")
    for i in range(count):
        recorder.record(index * 1_000 + i * 7)
    return {"index": index, "count": recorder.count,
            "p99_us": recorder.percentile_us(99)}


class TestSweep:
    def test_serial_preserves_order(self):
        assert sweep([3, 1, 2], _square, jobs=1) == [9, 1, 4]

    def test_parallel_preserves_order(self):
        assert sweep(list(range(8)), _square, jobs=4) == \
            [i * i for i in range(8)]

    def test_empty_points(self):
        assert sweep([], _square, jobs=4) == []

    def test_single_point_stays_in_process(self):
        seen = []
        # A closure is unpicklable — proving the single-point path never
        # touches the process pool.
        assert sweep([5], lambda p: seen.append(p) or p, jobs=8) == [5]
        assert seen == [5]

    def test_crashed_worker_falls_back_serial(self, capsys):
        """A worker dying mid-sweep raises BrokenProcessPool (a
        RuntimeError, not an OSError) — the sweep must re-run serially
        instead of propagating it."""
        assert sweep([1, 2, 3], _crash_in_pool_worker, jobs=2) == [10, 20, 30]
        assert "running serially" in capsys.readouterr().err


class TestSweepCache:
    """Resumable config-hash cache: same rows, zero recomputation."""

    @staticmethod
    def _setup(tmp_path):
        marks = tmp_path / "marks"
        marks.mkdir()
        points = [(i, 3, str(marks)) for i in range(4)]
        opts = SweepOptions(cache_dir=str(tmp_path / "cache"), resume=True)
        return marks, points, opts

    def test_warm_cache_identical_rows_zero_workers(self, tmp_path):
        marks, points, opts = self._setup(tmp_path)
        cold = sweep(points, _marking_row, jobs=1, sweep_options=opts)
        assert last_stats().computed == 4
        assert last_stats().journaled == 4
        assert len(list(marks.iterdir())) == 4
        warm = sweep(points, _marking_row, jobs=1, sweep_options=opts)
        assert warm == cold
        assert last_stats().cache_hits == 4
        assert last_stats().computed == 0
        # The real proof: no worker left a new mark.
        assert len(list(marks.iterdir())) == 4

    def test_cache_dir_without_resume_journals_but_recomputes(self, tmp_path):
        marks, points, _ = self._setup(tmp_path)
        opts = SweepOptions(cache_dir=str(tmp_path / "cache"), resume=False)
        first = sweep(points, _marking_row, jobs=1, sweep_options=opts)
        assert last_stats().journaled == 4
        second = sweep(points, _marking_row, jobs=1, sweep_options=opts)
        assert second == first
        assert last_stats().cache_hits == 0
        assert last_stats().computed == 4

    def test_grown_grid_computes_only_new_points(self, tmp_path):
        marks, points, opts = self._setup(tmp_path)
        cold = sweep(points, _marking_row, jobs=1, sweep_options=opts)
        grown = points + [(9, 3, str(marks)), (10, 3, str(marks))]
        rows = sweep(grown, _marking_row, jobs=1, sweep_options=opts)
        assert rows[:4] == cold
        assert last_stats().cache_hits == 4
        assert last_stats().computed == 2

    def test_changed_point_tuple_misses(self, tmp_path):
        marks, points, opts = self._setup(tmp_path)
        sweep(points, _marking_row, jobs=1, sweep_options=opts)
        changed = [(base, 5, mark) for base, _scale, mark in points]
        sweep(changed, _marking_row, jobs=1, sweep_options=opts)
        assert last_stats().cache_hits == 0
        assert last_stats().computed == 4

    def test_changed_salt_invalidates(self, tmp_path, monkeypatch):
        marks, points, opts = self._setup(tmp_path)
        sweep(points, _marking_row, jobs=1, sweep_options=opts)
        monkeypatch.setattr(
            "repro.experiments.parallel.cache.CODE_VERSION",
            CODE_VERSION + "+bump")
        sweep(points, _marking_row, jobs=1, sweep_options=opts)
        assert last_stats().cache_hits == 0
        assert last_stats().computed == 4
        # ... and the original code version still hits.
        monkeypatch.setattr(
            "repro.experiments.parallel.cache.CODE_VERSION", CODE_VERSION)
        sweep(points, _marking_row, jobs=1, sweep_options=opts)
        assert last_stats().cache_hits == 4

    def test_corrupt_journal_lines_recompute_not_crash(self, tmp_path,
                                                       capsys):
        marks, points, opts = self._setup(tmp_path)
        cold = sweep(points, _marking_row, jobs=1, sweep_options=opts)
        journals = list((tmp_path / "cache").glob("*.jsonl"))
        assert len(journals) == 1
        # Torn write, wrong shape, and plain garbage — every malformation
        # must be skipped, keeping the valid lines usable.
        with journals[0].open("a") as fh:
            fh.write('{"key": "abc123", "row": {"tru\n')
            fh.write('{"row": {"no": "key"}}\n')
            fh.write("not json at all\n")
        warm = sweep(points, _marking_row, jobs=1, sweep_options=opts)
        assert warm == cold
        assert last_stats().computed == 0
        assert "skip" in capsys.readouterr().err
        # A journal that is pure garbage recomputes everything.
        journals[0].write_text("garbage\n")
        rows = sweep(points, _marking_row, jobs=1, sweep_options=opts)
        assert rows == cold
        assert last_stats().computed == 4

    def test_warm_parallel_mix_keeps_slots_and_recorders(self, tmp_path):
        points = [(i, 40) for i in range(3)]
        opts = SweepOptions(cache_dir=str(tmp_path / "cache"), resume=True)
        cold = sweep(points, _summary_row, jobs=1, sweep_options=opts)
        grown = points + [(7, 40), (8, 40)]
        rows = sweep(grown, _summary_row, jobs=2, sweep_options=opts)
        assert rows[:3] == cold
        assert rows[3:] == [_summary_row(point) for point in grown[3:]]
        assert last_stats().cache_hits == 3
        assert last_stats().computed == 2


class TestPublishedRecorders:
    """Recorder publishing is retired with the other sweep knobs: rows
    are a sweep's only result."""

    POINTS = [(i, 50) for i in range(6)]

    def test_retired_knobs_are_gone_or_ignored(self, monkeypatch, tmp_path):
        """The scheduler and transport selectors, the sweep salt, the
        recorder hand-off and the job-count variable are removed: passing
        them fails loudly, and the retired environment variables, if
        still set, change nothing."""
        baseline = sweep(self.POINTS, _summary_row, jobs=2)
        journal_dir = tmp_path / "journal"
        monkeypatch.setenv("REPRO_SCHEDULER", "wheel")
        monkeypatch.setenv("REPRO_SWEEP_SHM", "0")
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(journal_dir))
        monkeypatch.setenv("REPRO_SWEEP_RESUME", "1")
        monkeypatch.setenv("REPRO_SWEEP_SALT", "v2")
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert Simulator().scheduler == "heap"
        assert not hasattr(SweepOptions, "from_env")
        assert sweep(self.POINTS, _summary_row, jobs=2) == baseline
        assert not journal_dir.exists()
        seen_jobs = []
        probe = SimpleNamespace(
            __doc__="Records --jobs.",
            main=lambda backend, jobs: seen_jobs.append(jobs))
        monkeypatch.setitem(cli.EXPERIMENTS, "probe", probe)
        assert cli.main(["probe"]) == 0
        assert seen_jobs == [1]
        # The ambient options are built at import: a fresh interpreter
        # started with the variables set still gets the defaults.
        src_root = Path(engine.__file__).resolve().parents[3]
        probe = subprocess.run(
            [sys.executable, "-c",
             "from repro.experiments.parallel import SweepOptions, options; "
             "print(options() == SweepOptions())"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src_root)})
        assert probe.stdout.strip() == "True", probe.stderr
        with pytest.raises(TypeError):
            Simulator(scheduler="wheel")
        with pytest.raises(TypeError):
            SweepOptions(shm=False)
        with pytest.raises(TypeError):
            SweepOptions(salt="v2")
        with pytest.raises(TypeError):
            sweep(self.POINTS, _summary_row, jobs=1, recorders=[])


class TestFig8Parallel:
    def test_rows_identical_serial_vs_parallel(self):
        """The acceptance gate: fig8 at jobs=2 is byte-identical to
        jobs=1 (same floats, same order)."""
        kwargs = dict(op="gwrite", sizes=[256, 1024], count=80, seed=3)
        serial = fig8.run(jobs=1, **kwargs)
        parallel = fig8.run(jobs=2, **kwargs)
        assert serial == parallel

    def test_row_matrix_byte_identical(self, tmp_path, monkeypatch):
        """The full engine-mode matrix on a real figure sweep: jobs x
        cache state all reproduce the jobs=1 rows exactly."""
        kwargs = dict(op="gwrite", sizes=[256], count=60, seed=3)
        baseline = fig8.run(jobs=1, **kwargs)
        cache_dir = str(tmp_path / "cache")
        matrix = [
            SweepOptions(),
            SweepOptions(cache_dir=cache_dir, resume=True),  # cold
            SweepOptions(cache_dir=cache_dir, resume=True),  # warm
        ]
        for variant in matrix:
            monkeypatch.setattr(engine, "_options", variant)
            assert fig8.run(jobs=2, **kwargs) == baseline
        assert last_stats().computed == 0  # the warm pass replayed rows


class TestFigShardsResume:
    def test_warm_rerun_executes_zero_point_workers(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr(
            engine, "_options",
            SweepOptions(cache_dir=str(tmp_path), resume=True))
        kwargs = dict(shard_counts=[1, 2], clients=24, ops_per_client=2,
                      seed=5)
        cold = fig_shards.run(jobs=1, **kwargs)
        assert last_stats().computed == 2
        warm = fig_shards.run(jobs=1, **kwargs)
        assert warm == cold
        assert last_stats().computed == 0
        assert last_stats().cache_hits == 2
