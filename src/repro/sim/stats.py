"""Measurement utilities: latency recorders, counters and utilization probes.

Every experiment in the reproduction reports one or more of:

* latency distributions (average / 95th / 99th percentile), matching the
  metrics in Figures 2, 8, 10, 11, 12 and Table 2 of the paper;
* throughput (operations per second over a simulated interval), Figure 9;
* CPU utilization and context-switch counts, Figures 2 and 9.

The recorders here store raw samples and compute percentiles with linear
interpolation, the same convention as ``numpy.percentile``'s default.
Samples live in a compact ``array('q')`` rather than a list — at the
scale-out experiments' volumes (10⁵ clients × several ops each, per sweep
point) that is 8 bytes per sample instead of a ~28-byte boxed int plus
pointer, with identical append/extend behaviour.

**Vectorized summaries** — when numpy is importable and the recorder
holds at least :data:`NUMPY_MIN_SAMPLES` samples, sorting and summing go
through numpy.  The percentile formula itself stays the shared
pure-Python :func:`_percentile` (values are coerced back to Python ints
before any float arithmetic), so both paths are **bit-identical** —
``tests/sim/test_stats.py`` pins them equal at float tolerance 0.
"""

from __future__ import annotations

import importlib
import math
from array import array
from typing import Any, Dict, Optional, Sequence

from .units import to_us

#: numpy, imported by the first summary big enough to use it (the import
#: is ~140 ms and most processes never get there); ``None`` when it is not
#: installed — the fallback keeps the recorders usable regardless.
_UNLOADED = object()
_numpy: Any = _UNLOADED

__all__ = [
    "LatencyRecorder",
    "Counter",
    "UtilizationTracker",
    "summarize_us",
    "NUMPY_MIN_SAMPLES",
]

#: Sample-count crossover below which ``sorted()`` beats the round-trip
#: into an ndarray.  Module-level (not per-instance) so tests can force
#: either path; the two paths are pinned bit-identical regardless.
NUMPY_MIN_SAMPLES = 2048


def _percentile(sorted_samples: "Sequence[int]", pct: float) -> float:
    """Linear-interpolated percentile of pre-sorted samples.

    Accepts any int64 sequence (``array`` or ndarray); indexed values
    are coerced to Python ints *before* the float arithmetic so the
    result is bit-identical across storage backends.
    """
    if not len(sorted_samples):
        raise ValueError("no samples recorded")
    if len(sorted_samples) == 1:
        return int(sorted_samples[0])
    rank = (pct / 100.0) * (len(sorted_samples) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return int(sorted_samples[low])
    frac = rank - low
    return int(sorted_samples[low]) * (1 - frac) + \
        int(sorted_samples[high]) * frac


class LatencyRecorder:
    """Collects latency samples (nanoseconds) and reports statistics.

    Storage is a signed-64-bit ``array('q')``: dense, cache-friendly, and
    still list-shaped (``append``/``extend``/iteration/indexing), so the
    public surface — :attr:`samples`, :meth:`record`, :meth:`merge`, the
    percentile accessors — is unchanged from the list-backed version.
    The sorted view is computed lazily and cached; any mutation
    (:meth:`record` or :meth:`merge`) invalidates the cache.
    """

    __slots__ = ("name", "samples", "_sorted")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.samples: "array[int]" = array("q")
        self._sorted: Optional[Any] = None

    def record(self, latency_ns: int) -> None:
        if latency_ns < 0:
            raise ValueError(f"negative latency sample: {latency_ns}")
        self.samples.append(latency_ns)
        self._sorted = None

    def merge(self, other: "LatencyRecorder") -> None:
        """Append ``other``'s samples (one memcpy-like extend)."""
        self.samples.extend(other.samples)
        self._sorted = None

    def __len__(self) -> int:
        return len(self.samples)

    def _use_numpy(self) -> bool:
        global _numpy
        if len(self.samples) < NUMPY_MIN_SAMPLES:
            return False
        if _numpy is _UNLOADED:
            try:
                _numpy = importlib.import_module("numpy")
            except ImportError:  # pragma: no cover - exercised via monkeypatch
                _numpy = None
        return _numpy is not None

    def _ensure_sorted(self) -> "Sequence[int]":
        if self._sorted is None:
            if self._use_numpy():
                # One C memcpy out of the buffer, one C sort.  Sorting
                # dominates summary cost at scale-out sample counts; the
                # values (and hence every percentile) are identical to
                # the sorted() path — only the algorithm changes.
                self._sorted = _numpy.sort(
                    _numpy.frombuffer(self.samples, dtype=_numpy.int64))
            else:
                self._sorted = array("q", sorted(self.samples))
        return self._sorted  # type: ignore[no-any-return]

    @property
    def count(self) -> int:
        return len(self.samples)

    def mean(self) -> float:
        if not len(self.samples):
            raise ValueError("no samples recorded")
        return self._exact_sum() / len(self.samples)

    def _exact_sum(self) -> int:
        """Integer sample sum, vectorized when provably overflow-free.

        ``numpy.sum`` accumulates in int64; Python's ``sum`` is exact at
        any magnitude.  Samples are non-negative (``record`` enforces
        it), so ``count * max <= 2**62`` guarantees the int64 path can't
        wrap and both paths return the same integer.
        """
        if self._use_numpy():
            arr = _numpy.frombuffer(self.samples, dtype=_numpy.int64)
            peak = int(arr.max())
            if peak >= 0 and len(arr) * max(peak, 1) <= (1 << 62):
                return int(arr.sum())
        return sum(self.samples)

    def percentile(self, pct: float) -> float:
        return _percentile(self._ensure_sorted(), pct)

    def min(self) -> int:
        return int(self._ensure_sorted()[0])

    def max(self) -> int:
        return int(self._ensure_sorted()[-1])

    def mean_us(self) -> float:
        return to_us(self.mean())

    def percentile_us(self, pct: float) -> float:
        return to_us(self.percentile(pct))

    def summary_us(self) -> Dict[str, float]:
        """Average / p95 / p99 in microseconds — the paper's metric triple."""
        return {
            "count": self.count,
            "avg_us": self.mean_us(),
            "p50_us": self.percentile_us(50),
            "p95_us": self.percentile_us(95),
            "p99_us": self.percentile_us(99),
            "max_us": to_us(self.max()),
        }


def summarize_us(samples_ns: Sequence[int]) -> Dict[str, float]:
    """One-shot summary for a raw list of nanosecond samples."""
    recorder = LatencyRecorder()
    for sample in samples_ns:
        recorder.record(sample)
    return recorder.summary_us()


class Counter:
    """A named monotonic counter (context switches, messages, bytes...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> int:
        value, self.value = self.value, 0
        return value


class UtilizationTracker:
    """Tracks busy time of a resource to report fractional utilization.

    Components call :meth:`add_busy` with each busy interval; utilization over
    a window is busy-time / window.  Values can legitimately exceed 1.0 only
    if the caller double-books the resource, so we clamp and flag.
    """

    __slots__ = ("name", "busy_ns")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.busy_ns = 0

    def add_busy(self, duration_ns: int) -> None:
        if duration_ns < 0:
            raise ValueError("negative busy duration")
        self.busy_ns += duration_ns

    def utilization(self, window_ns: int) -> float:
        if window_ns <= 0:
            raise ValueError("window must be positive")
        return min(1.0, self.busy_ns / window_ns)

    def reset(self) -> None:
        self.busy_ns = 0
