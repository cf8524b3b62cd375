"""Per-tenant SLO accounting: goodput vs offered, p99 budget, violations.

Overload is invisible to mean-throughput metrics — a retry storm can
keep the pipes full while *useful* work drops to zero.  The tracker
therefore distinguishes:

* **offered** — logical operations the tenant asked for (first attempts;
  retries are amplification, counted separately);
* **good** — operations completed within the latency ``budget_ns``,
  measured from the *first* attempt's arrival (a retry that eventually
  lands outside the budget is late: real work, no user value);
* **late / failed / shed / throttled** — the non-good outcomes, each
  attributed so an experiment can say *where* load was lost.

Two bucketing conventions coexist, deliberately:

* the aggregate :meth:`SLOTracker.timeline` buckets completions by
  **completion time** — it answers "what did goodput look like at time
  t", the recovery curve the overload figures plot;
* per-tenant violation accounting buckets good completions by **offer
  time** — it answers "of the work offered in this window, how much met
  its SLO", which is what time-in-violation means contractually.

Samples landing after the configured horizon are **dropped, not
clamped** — clamping would silently inflate the final bucket (the rule
:func:`repro.experiments.common.bucket_of` applies to fault timelines).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim.stats import LatencyRecorder

__all__ = ["TenantStats", "SLOTracker"]


class TenantStats:
    """Counters for one tenant (see module docstring for the taxonomy)."""

    __slots__ = ("tenant", "offered", "attempts", "retries", "good",
                 "late", "failed", "shed", "throttled", "recorder",
                 "offered_by_bucket", "good_by_bucket")

    def __init__(self, tenant: str, buckets: int) -> None:
        self.tenant = tenant
        self.offered = 0
        self.attempts = 0
        self.retries = 0
        self.good = 0
        self.late = 0
        self.failed = 0
        self.shed = 0
        self.throttled = 0
        self.recorder = LatencyRecorder(f"slo-{tenant}")
        self.offered_by_bucket = [0] * buckets
        self.good_by_bucket = [0] * buckets


class SLOTracker:
    """Windowed per-tenant SLO bookkeeping for one experiment run.

    ``budget_ns`` is the per-op latency budget (measured from first
    arrival, so client-side queueing and retries count against it).
    ``bucket_ns`` × ``buckets`` is the measurement horizon; later
    samples are dropped and tallied in :attr:`dropped`.
    ``goodput_floor`` is the violation threshold: a bucket where a
    tenant's good completions fall below ``floor × offered`` counts
    toward its time-in-violation.
    """

    __slots__ = ("budget_ns", "bucket_ns", "buckets", "goodput_floor",
                 "dropped", "_tenants", "_offered", "_done", "_good",
                 "_shed", "_recorders")

    def __init__(self, budget_ns: int, bucket_ns: int, buckets: int,
                 goodput_floor: float = 0.9) -> None:
        if budget_ns <= 0:
            raise ValueError(f"budget_ns must be positive, got {budget_ns}")
        if bucket_ns <= 0:
            raise ValueError(f"bucket_ns must be positive, got {bucket_ns}")
        if buckets < 1:
            raise ValueError(f"need >= 1 bucket, got {buckets}")
        if not 0 < goodput_floor <= 1:
            raise ValueError(
                f"goodput_floor must be in (0, 1], got {goodput_floor}")
        self.budget_ns = budget_ns
        self.bucket_ns = bucket_ns
        self.buckets = buckets
        self.goodput_floor = goodput_floor
        self.dropped = 0
        self._tenants: Dict[str, TenantStats] = {}
        self._offered = [0] * buckets
        self._done = [0] * buckets
        self._good = [0] * buckets
        self._shed = [0] * buckets
        self._recorders = [LatencyRecorder(f"bucket-{i}")
                           for i in range(buckets)]

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def tenant(self, name: str) -> TenantStats:
        """Get-or-create the stats record for ``name``."""
        stats = self._tenants.get(name)
        if stats is None:
            stats = TenantStats(name, self.buckets)
            self._tenants[name] = stats
        return stats

    def _bucket_of(self, now_ns: int) -> Optional[int]:
        """Bucket index for ``now_ns``, or None past the horizon.

        Post-horizon samples are dropped — never clamped into the final
        bucket, which would inflate it.
        """
        index = now_ns // self.bucket_ns
        if index >= self.buckets:
            self.dropped += 1
            return None
        return int(index)

    def record_offered(self, tenant: str, now_ns: int) -> None:
        """A new logical op arrived (first attempt only, not retries)."""
        stats = self.tenant(tenant)
        stats.offered += 1
        bucket = self._bucket_of(now_ns)
        if bucket is not None:
            stats.offered_by_bucket[bucket] += 1
            self._offered[bucket] += 1

    def record_attempt(self, tenant: str, attempt: int) -> None:
        """Attempt number ``attempt`` (1-based) was issued."""
        stats = self.tenant(tenant)
        stats.attempts += 1
        if attempt > 1:
            stats.retries += 1

    def record_done(self, tenant: str, offered_ns: int,
                    now_ns: int) -> None:
        """The op offered at ``offered_ns`` completed at ``now_ns``."""
        stats = self.tenant(tenant)
        latency = now_ns - offered_ns
        good = latency <= self.budget_ns
        if good:
            stats.good += 1
        else:
            stats.late += 1
        stats.recorder.record(latency)
        done_bucket = self._bucket_of(now_ns)
        if done_bucket is not None:
            self._done[done_bucket] += 1
            self._recorders[done_bucket].record(latency)
            if good:
                self._good[done_bucket] += 1
        if good:
            offer_bucket = self._bucket_of(offered_ns)
            if offer_bucket is not None:
                stats.good_by_bucket[offer_bucket] += 1

    def record_shed(self, tenant: str, now_ns: int,
                    reason: str = "queue-full") -> None:
        """The op was rejected at an edge (``queue-full``/``throttled``)."""
        stats = self.tenant(tenant)
        if reason == "throttled":
            stats.throttled += 1
        else:
            stats.shed += 1
        bucket = self._bucket_of(now_ns)
        if bucket is not None:
            self._shed[bucket] += 1

    def record_failed(self, tenant: str) -> None:
        """The client gave up on the op (retry budget exhausted)."""
        self.tenant(tenant).failed += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def timeline(self) -> List[Dict[str, object]]:
        """Aggregate per-bucket rows — the goodput/p99 recovery curve."""
        rows: List[Dict[str, object]] = []
        for index in range(self.buckets):
            recorder = self._recorders[index]
            rows.append({
                "t_ms": round(index * self.bucket_ns / 1e6, 3),
                "offered": self._offered[index],
                "done": self._done[index],
                "good": self._good[index],
                "shed": self._shed[index],
                "goodput_kops": round(
                    self._good[index] / (self.bucket_ns / 1e9) / 1e3, 2),
                "p99_us": round(recorder.percentile_us(99), 2)
                if recorder.count else 0.0,
            })
        return rows

    def tenant_rows(self) -> List[Dict[str, object]]:
        """Per-tenant summary rows, sorted by tenant name."""
        rows: List[Dict[str, object]] = []
        for name in sorted(self._tenants):
            stats = self._tenants[name]
            rows.append({
                "tenant": name,
                "offered": stats.offered,
                "attempts": stats.attempts,
                "retries": stats.retries,
                "good": stats.good,
                "late": stats.late,
                "failed": stats.failed,
                "shed": stats.shed,
                "throttled": stats.throttled,
                "goodput_ratio": round(stats.good / stats.offered, 4)
                if stats.offered else 0.0,
                "p99_us": round(stats.recorder.percentile_us(99), 2)
                if stats.recorder.count else 0.0,
                "violation_ms": round(
                    self._violation_ns(stats) / 1e6, 3),
            })
        return rows

    def _violation_ns(self, stats: TenantStats) -> int:
        """Σ bucket time where good completions missed the floor."""
        total = 0
        for index in range(self.buckets):
            offered = stats.offered_by_bucket[index]
            if offered and stats.good_by_bucket[index] \
                    < self.goodput_floor * offered:
                total += self.bucket_ns
        return total
