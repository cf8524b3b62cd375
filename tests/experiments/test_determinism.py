"""Determinism regression: fig8/fig9 rows are byte-identical per seed.

The simulator promises reproducibility: same seed, same rows, across
processes and platforms (stream seeds derive from an FNV-1a hash of the
stream name, never from Python's salted ``hash()``).  These goldens pin
the full experiment pipeline — scenario construction through the backend
registry, group wiring, tenant load, and the latency/throughput drivers.
Exact float equality is intentional: any drift in simulation-event
ordering shows up here first, before it silently changes every figure.
The goldens are also recomputed in subprocesses under hostile
``PYTHONHASHSEED`` values, so hash order reaching anything a figure reads
fails here too.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import fig8, fig9

FIG8_GOLDEN = [
    {"system": "naive", "size": 256,
     "avg_us": 258.63689999999997, "p95_us": 1852.0180999999982,
     "p99_us": 3867.449649999984},
    {"system": "naive", "size": 1024,
     "avg_us": 259.20966500000003, "p95_us": 1852.2128499999985,
     "p99_us": 3867.449649999984},
    {"system": "hyperloop", "size": 256,
     "avg_us": 9.434, "p95_us": 9.424, "p99_us": 9.424},
    {"system": "hyperloop", "size": 1024,
     "avg_us": 9.578, "p95_us": 9.568, "p99_us": 9.568},
]

FIG9_GOLDEN = [
    {"system": "naive-polling", "size": 4096,
     "kops_per_sec": 749.7119027014521, "goodput_gbps": 24.566559627721183,
     "backup_cpu_pct": 100.0},
    {"system": "hyperloop", "size": 4096,
     "kops_per_sec": 1085.2516003221842, "goodput_gbps": 35.56152443935733,
     "backup_cpu_pct": 0.0},
]


def test_fig8_rows_match_golden():
    rows = fig8.run(op="gwrite", sizes=[256, 1024], count=200, seed=3)
    assert rows == FIG8_GOLDEN


def test_fig9_rows_match_golden():
    rows = fig9.run(sizes=[4096], total_bytes=2 * (1 << 20), seed=5)
    assert rows == FIG9_GOLDEN


_GOLDENS_SNIPPET = """\
import json
from repro.experiments import fig8, fig9
print(json.dumps([
    fig8.run(op="gwrite", sizes=[256, 1024], count=200, seed=3),
    fig9.run(sizes=[4096], total_bytes=2 * (1 << 20), seed=5)]))
"""


@pytest.mark.parametrize("hashseed", ["0", "12345"])
def test_goldens_hold_under_any_hash_seed(hashseed):
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    output = subprocess.run(
        [sys.executable, "-c", _GOLDENS_SNIPPET], env=env,
        capture_output=True, text=True, check=True).stdout
    fig8_rows, fig9_rows = json.loads(output)
    assert fig8_rows == FIG8_GOLDEN
    assert fig9_rows == FIG9_GOLDEN


def test_same_seed_same_rows_within_process():
    first = fig8.run(op="gwrite", sizes=[512], count=100, seed=42)
    second = fig8.run(op="gwrite", sizes=[512], count=100, seed=42)
    assert first == second


def test_different_seed_different_rows():
    base = fig8.run(op="gwrite", sizes=[512], count=100, seed=42)
    other = fig8.run(op="gwrite", sizes=[512], count=100, seed=43)
    assert base != other
