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
pointer, with identical append/extend behaviour.  Summaries sort with
``sorted()`` and sum with ``sum()``, so means are exact at any magnitude.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, Optional, Sequence

from .units import to_us

__all__ = [
    "LatencyRecorder",
    "Counter",
    "UtilizationTracker",
    "summarize_us",
]


def _percentile(sorted_samples: "Sequence[int]", pct: float) -> float:
    """Linear-interpolated percentile of pre-sorted samples."""
    if not len(sorted_samples):
        raise ValueError("no samples recorded")
    if len(sorted_samples) == 1:
        return sorted_samples[0]
    rank = (pct / 100.0) * (len(sorted_samples) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return sorted_samples[low]
    frac = rank - low
    return sorted_samples[low] * (1 - frac) + sorted_samples[high] * frac


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
        self._sorted: "Optional[array[int]]" = None

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

    def _ensure_sorted(self) -> "array[int]":
        if self._sorted is None:
            self._sorted = array("q", sorted(self.samples))
        return self._sorted

    @property
    def count(self) -> int:
        return len(self.samples)

    def mean(self) -> float:
        if not len(self.samples):
            raise ValueError("no samples recorded")
        return sum(self.samples) / len(self.samples)

    def percentile(self, pct: float) -> float:
        return _percentile(self._ensure_sorted(), pct)

    def min(self) -> int:
        return self._ensure_sorted()[0]

    def max(self) -> int:
        return self._ensure_sorted()[-1]

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
