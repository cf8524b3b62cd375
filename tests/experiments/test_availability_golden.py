"""Golden regression: availability.run() is pinned byte-for-byte.

The run is the fault grid's crash cell (:mod:`repro.experiments.
fig_faults`) at availability's geometry, so the golden records
:class:`~repro.faults.ReplicaSetManager`'s recovery: a 1 ms heartbeat
with a 4 ms deadline, drain grace, bully election and a stalled catch-up,
audited by :class:`~repro.faults.AckOracle`.  Any run-to-run drift also
fails this comparison; serial == ``--jobs`` for the same worker is
pinned in ``test_fig_faults.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments import availability

_GOLDEN = Path(__file__).parent / "golden" / "availability.json"


def test_single_replica_kill_matches_golden():
    result = availability.run()
    assert json.dumps(result, sort_keys=True) == _GOLDEN.read_text().strip()
