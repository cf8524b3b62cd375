"""Sweep engine: ordered point grids with caching.

Every figure experiment is an embarrassingly parallel sweep: each
(system, message-size, …) point builds its *own* testbed and its own
:class:`~repro.sim.engine.Simulator`, runs to completion, and emits one
row.  Points share nothing — the simulation seed is part of the point —
so they can run in worker processes with no coordination and, crucially,
**no change in results**: a sweep at ``jobs=N`` must produce rows
identical to ``jobs=1``, cold cache or warm
(``tests/experiments/test_parallel.py`` pins the whole matrix).

Workers must be module-level functions (picklable) taking a single
point.  Each figure module that the claims table reads has the same
three parts: ``points(...)`` builds its picklable grid, ``worker(point)``
computes one row from the point alone, and ``run(...)`` reduces
``sweep(points, worker)`` to the figure's result.

With a cache directory configured (:func:`configure` or the CLI's
``--cache-dir``), every completed row is
journaled under a config hash (:mod:`.cache`); with ``resume`` on, hits
are replayed instead of recomputed, so a grown grid only pays for its
new points.

``sweep`` degrades gracefully: ``jobs<=1``, a single point, or an
environment where process pools cannot start (sandboxes without working
semaphores) fall back to in-process serial execution — same rows in all
cases.
"""

from __future__ import annotations

import gc
import sys
from collections.abc import Sequence as AbcSequence
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Iterable, List, Optional, Sequence, TypeVar

from .cache import MISS, SweepCache

__all__ = ["sweep", "configure", "options", "last_stats", "SweepOptions",
           "SweepStats"]

P = TypeVar("P")
R = TypeVar("R")


# ----------------------------------------------------------------------
# Ambient options (CLI flags)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepOptions:
    """Engine-wide knobs, settable per-call or ambiently via
    :func:`configure` (which the experiment CLI's ``--cache-dir`` /
    ``--resume`` flags drive)."""

    #: Directory for per-worker JSONL journals; None disables caching.
    cache_dir: Optional[str] = None
    #: Replay journaled rows instead of recomputing them.  Off by
    #: default: ``--cache-dir`` alone records without skipping.
    resume: bool = False


_options: SweepOptions = SweepOptions()


def configure(**kwargs: Any) -> SweepOptions:
    """Update the ambient :class:`SweepOptions` (returns the result)."""
    global _options
    _options = replace(_options, **kwargs)
    return _options


def options() -> SweepOptions:
    """The current ambient options."""
    return _options


@dataclass
class SweepStats:
    """What the most recent :func:`sweep` actually did (see
    :func:`last_stats`) — the observability hook the resumable-sweep CI
    smoke and the warm-cache tests assert against."""

    points: int = 0
    cache_hits: int = 0
    computed: int = 0
    journaled: int = 0
    transport: str = "serial"  # serial | pickle


_last_stats = SweepStats()


def last_stats() -> SweepStats:
    """Stats for the most recent ``sweep()`` in this process."""
    return _last_stats


def _run_point(worker: Callable[[P], R], point: P) -> R:
    """In-process execution of one point.

    A finished point's cluster is a web of reference cycles; collecting
    it here keeps the next point from growing the heap beside it."""
    try:
        return worker(point)
    finally:
        gc.collect()


# ----------------------------------------------------------------------
# The sweep itself
# ----------------------------------------------------------------------
def sweep(points: Iterable[P], worker: Callable[[P], R], jobs: int = 1, *,
          sweep_options: Optional[SweepOptions] = None) -> List[R]:
    """Run ``worker(point)`` for every point, in submission order.

    ``jobs > 1`` fans the points out over a ``ProcessPoolExecutor``;
    results come back in point order regardless of completion order, so
    callers see exactly the rows a serial loop would have produced.
    ``sweep_options`` overrides the ambient :func:`configure` state for
    this call.
    """
    global _last_stats
    opts = sweep_options if sweep_options is not None else _options
    stats = SweepStats()
    _last_stats = stats

    # Figure grids arrive as lists already — reuse them instead of
    # copying (the serial path used to materialize the list twice).
    items: Sequence[P] = points if isinstance(points, AbcSequence) \
        else list(points)
    stats.points = len(items)

    cache = _open_cache(opts, worker)
    rows: List[Any] = [None] * len(items)
    if cache is not None and opts.resume:
        misses = []
        for index, point in enumerate(items):
            hit = cache.lookup(point)
            if hit is MISS:
                misses.append((index, point))
            else:
                rows[index] = hit
                stats.cache_hits += 1
    else:
        misses = list(enumerate(items))
    stats.computed = len(misses)

    def record(point: P, row: R) -> None:
        if cache is not None and cache.record(point, row):
            stats.journaled += 1

    def run_serially() -> None:
        for index, point in misses:
            row = _run_point(worker, point)
            rows[index] = row
            record(point, row)
        stats.transport = "serial"

    if jobs <= 1 or len(misses) <= 1:
        run_serially()
        _report(cache, stats)
        return rows

    task = partial(_run_point, worker)
    try:
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(misses))) as pool:
            # One point per task: points cost from milliseconds to a
            # minute, and a chunk would pin neighbouring heavy points
            # onto one worker while the others idle.
            results = pool.map(task, [point for _index, point in misses])
            for (index, point), row in zip(misses, results):
                rows[index] = row
                record(point, row)
        stats.transport = "pickle"
    except (OSError, BrokenExecutor) as exc:
        # Two distinct failure shapes, one recovery: restricted
        # environments (seccomp'd semaphores) cannot start worker
        # processes at all, and a worker dying mid-sweep (OOM kill, hard
        # crash) surfaces as BrokenProcessPool — a RuntimeError
        # subclass the OSError net never caught.  Points share nothing,
        # so re-running the misses serially is always safe (the cache
        # may re-journal early rows; last line wins).
        print(f"[sweep] process pool unavailable ({exc!r}); "
              "running serially", file=sys.stderr)
        run_serially()
    _report(cache, stats)
    return rows


def _open_cache(opts: SweepOptions,
                worker: Callable[..., Any]) -> Optional[SweepCache]:
    if opts.cache_dir is None:
        return None
    return SweepCache.for_worker(opts.cache_dir, worker)


def _report(cache: Optional[SweepCache], stats: SweepStats) -> None:
    """One observability line per cached sweep (the CI resume-smoke job
    greps ``computed=0`` out of this)."""
    if cache is not None:
        print(f"[sweep] {cache.label}: points={stats.points} "
              f"hits={stats.cache_hits} computed={stats.computed} "
              f"journaled={stats.journaled} transport={stats.transport}",
              file=sys.stderr)
