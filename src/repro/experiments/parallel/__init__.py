"""Sweep-engine package: parallel point grids, resumable.

Layering (see ``docs/INTERNALS.md`` §11):

``engine``
    :func:`sweep` itself — ordering, the serial/pool decision,
    cache-hit skipping, worker wrapping, the recorder hand-off, and the
    serial fallback.
``cache``
    The resumable-sweep journal: completed rows keyed by an FNV-1a
    config hash, appended as JSON lines, replayed on ``--resume``.

The public surface (``sweep``, ``default_jobs``) is unchanged from the
old single-module ``parallel.py``; everything new is additive.
"""

from . import cache, engine
from .engine import (
    SweepOptions,
    SweepStats,
    configure,
    default_jobs,
    last_stats,
    options,
    publish_recorder,
    sweep,
)

__all__ = [
    "sweep",
    "default_jobs",
    "publish_recorder",
    "configure",
    "options",
    "last_stats",
    "SweepOptions",
    "SweepStats",
    "cache",
    "engine",
]
