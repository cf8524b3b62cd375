"""Figure 2 at REPRO_QUICK scale: its sweep, its shape, serial == jobs."""

from repro.experiments import fig2
from repro.experiments.parallel import sweep


def _rows(jobs):
    points = fig2.core_points([4], replica_sets=3) \
        + fig2.core_points([4], replica_sets=6)
    return fig2.normalize(sweep(points, fig2.worker, jobs=jobs))


def test_quick_sweep_shape_and_jobs_identity(monkeypatch):
    monkeypatch.delenv("REPRO_FULL", raising=False)
    monkeypatch.setenv("REPRO_QUICK", "1")
    rows = _rows(jobs=1)
    assert [(row["replica_sets"], row["cores"]) for row in rows] \
        == [(3, 4), (6, 4)]
    assert all(row["ops"] > 0 for row in rows)
    assert rows[1]["context_switches"] > rows[0]["context_switches"]
    assert max(row["norm_ctxsw"] for row in rows) == 1
    assert _rows(jobs=2) == rows
