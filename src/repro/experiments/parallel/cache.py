"""Resumable sweep cache: per-point rows journaled under a config hash.

Growing a 10⁶-client grid across CI shards or successive local runs used
to mean recomputing every point from scratch.  The cache makes completed
points durable:

* **Key** — FNV-1a (64-bit, via :func:`repro.sim.rng.fnv_hash_str`, the
  same PYTHONHASHSEED-independent hash the simulator seeds streams
  with) over the *canonicalized* point tuple plus a salt.  The salt
  folds in the cache schema, a code-version tag
  (:data:`CODE_VERSION`) and the worker's identity — so a changed point
  grid, a changed worker, or a bumped code version all miss cleanly
  instead of resurrecting stale rows.
* **Journal** — one JSON line per completed point, appended (and
  flushed) the moment the row arrives, so a sweep interrupted at point
  k keeps its first k results.  Loading tolerates truncated or
  corrupted lines: a bad line is skipped (recompute, not crash), which
  is exactly the torn-final-line shape a killed run leaves behind.
* **Fidelity** — a row is only journaled if it survives a JSON
  round-trip *unchanged* (types included).  That is what lets the
  sweep engine promise warm-cache rows byte-identical to cold-run rows.

The cache stores **rows only**, never raw sample arrays: replaying a
cache hit yields the row but no
:class:`~repro.sim.stats.LatencyRecorder` (the transport's side channel
is recompute-only by design — caching multi-megabyte sample blobs would
turn the journal into the bottleneck it exists to remove).
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from ...sim.rng import fnv_hash_str

__all__ = ["SweepCache", "point_key", "worker_salt", "CACHE_SCHEMA",
           "CODE_VERSION", "MISS"]

#: Journal format version: part of every key, so a format change
#: invalidates rather than misreads.
CACHE_SCHEMA = 1

#: Code-version salt.  Bump whenever simulation semantics change in a
#: way that should invalidate previously journaled rows (the figure
#: goldens in ``tests/experiments/test_determinism.py`` are the signal:
#: if they moved, bump this).
CODE_VERSION = "sim-2026.1"

#: Sentinel for "no journaled row" — rows themselves may be any JSON
#: value, including ``None``.
MISS = object()

_FILENAME_SAFE = re.compile(r"[^A-Za-z0-9_.-]+")


def _canonical(value: Any) -> str:
    """Deterministic text form of a point for hashing and debugging.

    JSON with sorted keys and fixed separators when the point is
    JSON-representable (tuples canonicalize to lists); ``repr`` as the
    escape hatch for exotic points — stable enough in practice since
    points are built from primitives, and a false miss only costs a
    recompute.
    """
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError):
        return repr(value)


def point_key(point: Any, salt: str) -> str:
    """16-hex-digit FNV-1a key of ``salt`` + canonicalized ``point``."""
    keyed = salt + "\x00" + _canonical(point)
    return f"{fnv_hash_str(keyed):016x}"


def worker_salt(worker: Callable[..., Any]) -> str:
    """Compose the full salt for a sweep worker's cache.

    Includes schema, code version and the worker's import identity —
    change any one and every key misses.
    """
    identity = f"{getattr(worker, '__module__', '?')}." \
               f"{getattr(worker, '__qualname__', repr(worker))}"
    return f"{CACHE_SCHEMA}:{CODE_VERSION}:{identity}"


def cache_filename(worker: Callable[..., Any]) -> str:
    """Stable per-worker journal filename inside a cache directory."""
    identity = f"{getattr(worker, '__module__', 'worker')}." \
               f"{getattr(worker, '__qualname__', 'point')}"
    return _FILENAME_SAFE.sub("_", identity) + ".jsonl"


class SweepCache:
    """Append-only JSON-lines journal of completed sweep rows.

    One instance per ``sweep()`` call; the parent process is the only
    writer, so appends never interleave.  Duplicate keys are legal (a
    re-run without ``resume`` re-journals) — the last line wins on load.
    """

    def __init__(self, path: Path, salt: str, label: str = "") -> None:
        self.path = Path(path)
        self.salt = salt
        self.label = label or self.path.stem
        self.corrupt_lines = 0
        self._rows: Dict[str, Any] = {}
        self._warned_unjournalable = False
        self._load()

    def _load(self) -> None:
        try:
            text = self.path.read_text()
        except (OSError, UnicodeDecodeError):
            return
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                key = entry["key"]
                row = entry["row"]
            except (json.JSONDecodeError, TypeError, KeyError):
                # Torn final line of a killed run, or hand-editing
                # damage: skip it — the point simply recomputes.
                self.corrupt_lines += 1
                continue
            if isinstance(key, str):
                self._rows[key] = row
            else:
                self.corrupt_lines += 1
        if self.corrupt_lines:
            print(f"[sweep] cache {self.path}: skipped "
                  f"{self.corrupt_lines} corrupt line(s); those points "
                  "will recompute", file=sys.stderr)

    def __len__(self) -> int:
        return len(self._rows)

    def key(self, point: Any) -> str:
        return point_key(point, self.salt)

    def lookup(self, point: Any) -> Any:
        """The journaled row for ``point``, or :data:`MISS`."""
        return self._rows.get(self.key(point), MISS)

    def record(self, point: Any, row: Any) -> bool:
        """Journal one completed row; returns False if it can't be
        stored faithfully (non-JSON types, lossy round-trip)."""
        try:
            encoded = json.dumps({"key": self.key(point),
                                  "point": _canonical(point), "row": row},
                                 separators=(",", ":"))
            survives = json.loads(encoded)["row"] == row
        except (TypeError, ValueError):
            survives = False
        if not survives:
            if not self._warned_unjournalable:
                self._warned_unjournalable = True
                print(f"[sweep] cache {self.label}: row is not "
                      "JSON-faithful; not journaling (rows stay "
                      "recompute-only)", file=sys.stderr)
            return False
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            fh.write(encoded + "\n")
            fh.flush()
        self._rows[self.key(point)] = row
        return True

    @classmethod
    def for_worker(cls, cache_dir: str,
                   worker: Callable[..., Any]) -> "SweepCache":
        """The journal for ``worker`` inside ``cache_dir``."""
        identity = f"{getattr(worker, '__module__', 'worker')}" \
                   f".{getattr(worker, '__qualname__', 'point')}"
        label = identity.rsplit("repro.experiments.", 1)[-1]
        return cls(Path(cache_dir) / cache_filename(worker),
                   worker_salt(worker), label=label)
