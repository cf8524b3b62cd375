"""Sweep-engine package: parallel point grids, resumable.

Layering (see ``docs/INTERNALS.md`` §11):

``engine``
    :func:`sweep` itself — ordering, the serial/pool decision,
    cache-hit skipping, worker wrapping and the serial fallback.
``cache``
    The resumable-sweep journal: completed rows keyed by an FNV-1a
    config hash, appended as JSON lines, replayed on ``--resume``.
"""

from . import cache, engine
from .engine import (
    SweepOptions,
    SweepStats,
    configure,
    last_stats,
    options,
    sweep,
)

__all__ = [
    "sweep",
    "configure",
    "options",
    "last_stats",
    "SweepOptions",
    "SweepStats",
    "cache",
    "engine",
]
