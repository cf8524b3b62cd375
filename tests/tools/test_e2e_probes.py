"""The names ``benchmarks/e2e`` reaches into ``src/`` by must resolve.

The benchmark cannot be edited to follow a rename: a probe whose target
is gone degrades to ``null`` plus a ``probes_missing`` entry instead of
failing, so a refactor under ``src/`` could silently blind a per-layer
metric.  This test makes that rename fail tier-1 instead.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.sim.engine import Simulator

REPO_ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "e2e_trace", REPO_ROOT / "benchmarks" / "e2e" / "trace.py")
trace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trace)


@pytest.mark.parametrize("name", sorted(trace.PROBES))
def test_probe_resolves_to_a_callable(name):
    # ``resolve_probe`` returns the target's code object (so: a Python
    # function) or None — None is exactly what lands in probes_missing.
    assert trace.resolve_probe(trace.PROBES[name]) is not None


def test_scheduler_provenance_is_a_string():
    assert isinstance(Simulator().scheduler, str)
