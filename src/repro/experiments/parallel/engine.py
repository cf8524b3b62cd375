"""Sweep engine: ordered point grids with caching and full-distribution results.

Every figure experiment is an embarrassingly parallel sweep: each
(system, message-size, …) point builds its *own* testbed and its own
:class:`~repro.sim.engine.Simulator`, runs to completion, and emits one
row.  Points share nothing — the simulation seed is part of the point —
so they can run in worker processes with no coordination and, crucially,
**no change in results**: a sweep at ``jobs=N`` must produce rows
identical to ``jobs=1``, cold cache or warm
(``tests/experiments/test_parallel.py`` pins the whole matrix).

Workers must be module-level functions (picklable) taking a single
point tuple; each figure module defines a ``_point_worker`` next to its
``run()``.  A worker may additionally hand its full latency distribution
to the engine with :func:`publish_recorder`; the samples then ride the
result pipe back to the parent as one packed int64 ``bytes`` blob, and
callers who pass ``recorders=[...]`` get reconstructed
:class:`~repro.sim.stats.LatencyRecorder`\\ s, one per point.

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
import os
import sys
from collections.abc import Sequence as AbcSequence
from dataclasses import dataclass, replace
from typing import (Any, Callable, Iterable, List, Optional, Sequence,
                    Tuple, TypeVar)

from ...sim.stats import LatencyRecorder
from .cache import MISS, SweepCache

__all__ = ["sweep", "default_jobs", "publish_recorder", "configure",
           "options", "last_stats", "SweepOptions", "SweepStats"]

P = TypeVar("P")
R = TypeVar("R")


def default_jobs() -> int:
    """Job count from ``REPRO_JOBS`` (or 1 — parallelism is opt-in)."""
    raw = os.environ.get("REPRO_JOBS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        # A typo'd CI config silently dropping to serial is the kind of
        # wall-clock regression nobody notices for months — say so.
        print(f"[sweep] ignoring malformed REPRO_JOBS={raw!r}; "
              "running with 1 job", file=sys.stderr)
        return 1


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
    raw_deposits: int = 0
    journaled: int = 0
    transport: str = "serial"  # serial | pickle


_last_stats = SweepStats()


def last_stats() -> SweepStats:
    """Stats for the most recent ``sweep()`` in this process."""
    return _last_stats


# ----------------------------------------------------------------------
# Publish channel: worker-side recorder hand-off
# ----------------------------------------------------------------------
class _Sink:
    """Holds the recorder the current point's worker published."""

    __slots__ = ("recorder",)

    def __init__(self) -> None:
        self.recorder: Optional[LatencyRecorder] = None


_active_sink: Optional[_Sink] = None


def publish_recorder(recorder: LatencyRecorder) -> None:
    """Hand the current point's full latency recorder to the engine.

    Inside a pool worker the samples are packed into a bytes blob and
    ride the result pipe back to the parent; on the serial path the
    recorder object is kept as-is.  Outside any sweep this is a no-op,
    so ``_point_worker`` functions stay directly callable.  One
    recorder per point: publishing again replaces the previous one.
    """
    if _active_sink is not None:
        _active_sink.recorder = recorder


def _run_point(worker: Callable[[P], R], point: P) \
        -> Tuple[R, Optional[LatencyRecorder]]:
    """In-process execution of one point, capturing its publish.

    A finished point's cluster is a web of reference cycles; collecting
    it here keeps the next point from growing the heap beside it."""
    global _active_sink
    sink = _Sink()
    _active_sink = sink
    try:
        row = worker(point)
    finally:
        _active_sink = None
        gc.collect()
    return row, sink.recorder


# ----------------------------------------------------------------------
# Pool-side task
# ----------------------------------------------------------------------
#: What a pool worker sends back for a published recorder: the packed
#: int64 samples and the recorder's name.
_Deposit = Tuple[bytes, str]


class _PoolTask:
    """Picklable per-point task: run the user worker, return
    ``(row, deposit)``.

    ``want_deposits=False`` (the caller passed no ``recorders`` list)
    drops the published recorder instead of shipping a sample blob
    nobody will read.
    """

    __slots__ = ("worker", "want_deposits")

    def __init__(self, worker: Callable[[P], R], want_deposits: bool) -> None:
        self.worker = worker
        self.want_deposits = want_deposits

    def __call__(self, point: P) -> Tuple[R, Optional[_Deposit]]:
        row, recorder = _run_point(self.worker, point)
        if recorder is None or not self.want_deposits:
            return row, None
        return row, (recorder.samples.tobytes(), recorder.name)


def _reconstruct(deposit: Optional[_Deposit],
                 stats: SweepStats) -> Optional[LatencyRecorder]:
    """Parent-side recorder rebuild from a worker's deposit."""
    if deposit is None:
        return None
    data, name = deposit
    recorder = LatencyRecorder(name)
    recorder.samples.frombytes(data)
    stats.raw_deposits += 1
    return recorder


# ----------------------------------------------------------------------
# The sweep itself
# ----------------------------------------------------------------------
def sweep(points: Iterable[P], worker: Callable[[P], R], jobs: int = 1, *,
          recorders: Optional[List[Optional[LatencyRecorder]]] = None,
          sweep_options: Optional[SweepOptions] = None) -> List[R]:
    """Run ``worker(point)`` for every point, in submission order.

    ``jobs > 1`` fans the points out over a ``ProcessPoolExecutor``;
    results come back in point order regardless of completion order, so
    callers see exactly the rows a serial loop would have produced.

    ``recorders``, if given, is cleared and filled with one entry per
    point: the recorder that point's worker :func:`publish_recorder`-ed,
    or ``None`` (nothing published, or the row came from the cache — the
    journal stores rows only).  ``sweep_options`` overrides the ambient
    :func:`configure` state for this call.
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
    if recorders is not None:
        recorders.clear()
        recorders.extend([None] * len(items))

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
            row, recorder = _run_point(worker, point)
            rows[index] = row
            if recorders is not None:
                recorders[index] = recorder
            record(point, row)
        stats.transport = "serial"

    if jobs <= 1 or len(misses) <= 1:
        run_serially()
        _report(cache, stats)
        return rows

    task = _PoolTask(worker, want_deposits=recorders is not None)
    # One IPC round-trip per point (chunksize=1, the default) dominates
    # small-point sweeps; ~4 chunks per worker balances batching against
    # tail-straggler idling.
    chunksize = max(1, len(misses) // (jobs * 4))
    try:
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(misses))) as pool:
            results = pool.map(task, [point for _index, point in misses],
                               chunksize=chunksize)
            for (index, point), (row, deposit) in zip(misses, results):
                rows[index] = row
                if recorders is not None:
                    recorders[index] = _reconstruct(deposit, stats)
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
