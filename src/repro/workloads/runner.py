"""Closed-loop workload execution against the case-study stores.

A :class:`YCSBRunner` drives one adapter (one client session) with a stream
of YCSB operations, recording per-operation latency by type — the
measurement loop behind Figures 2, 11 and 12.  Multiple runners can share a
store (multi-threaded YCSB clients) by giving each its own adapter/session.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..apps.mongolike import MongoLikeDB
from ..apps.rockskv import ReplicatedRocksKV
from ..sim.stats import LatencyRecorder
from .ycsb import OpType, YCSBOperation, YCSBWorkload, make_value

__all__ = ["MongoAdapter", "RocksAdapter", "RunStats", "YCSBRunner"]


class MongoAdapter:
    """Drives a :class:`MongoSession` with YCSB operations."""

    def __init__(self, db: MongoLikeDB, read_hop: Optional[int] = None):
        self.db = db
        self.session = db.session()
        self.read_hop = read_hop

    def load(self, key: int, size: int):
        yield from self.session.insert(key, make_value(key, size))

    def execute(self, op: YCSBOperation):
        session = self.session
        if op.op is OpType.READ:
            yield from session.find(op.key, hop=self.read_hop)
        elif op.op is OpType.UPDATE:
            yield from session.update(op.key, make_value(op.key, op.value_size))
        elif op.op is OpType.INSERT:
            yield from session.insert(op.key, make_value(op.key, op.value_size))
        elif op.op is OpType.MODIFY:
            yield from session.read_modify_write(
                op.key, make_value(op.key, op.value_size))
        elif op.op is OpType.SCAN:
            yield from session.scan(op.key, op.scan_length,
                                    hop=self.read_hop)
        else:
            raise ValueError(f"unhandled op {op.op}")


class RocksAdapter:
    """Drives a :class:`ReplicatedRocksKV` with YCSB operations."""

    def __init__(self, kv: ReplicatedRocksKV):
        self.kv = kv

    @staticmethod
    def _key(key: int) -> bytes:
        return f"user{key:026d}"[:32].encode()  # 32-byte keys, §6.2.

    def load(self, key: int, size: int):
        yield from self.kv.put(self._key(key), make_value(key, size))

    def execute(self, op: YCSBOperation):
        kv = self.kv
        if op.op is OpType.READ:
            # Served from the client-side memtable — no replication traffic.
            kv.get(self._key(op.key))
        elif op.op in (OpType.UPDATE, OpType.INSERT, OpType.MODIFY):
            if op.op is OpType.MODIFY:
                kv.get(self._key(op.key))
            yield from kv.put(self._key(op.key),
                              make_value(op.key, op.value_size))
        else:
            raise ValueError(f"RocksKV adapter does not implement {op.op}")


@dataclass
class RunStats:
    """Latency recorders per op type plus an aggregate."""

    overall: LatencyRecorder = field(default_factory=lambda:
                                     LatencyRecorder("overall"))
    by_type: Dict[OpType, LatencyRecorder] = field(default_factory=dict)

    def record(self, op_type: OpType, latency_ns: int) -> None:
        self.overall.record(latency_ns)
        if op_type not in self.by_type:
            self.by_type[op_type] = LatencyRecorder(op_type.value)
        self.by_type[op_type].record(latency_ns)

    def writes(self) -> LatencyRecorder:
        """Merged update+insert+modify latencies (the paper's focus)."""
        merged = LatencyRecorder("writes")
        for op_type in (OpType.UPDATE, OpType.INSERT, OpType.MODIFY):
            recorder = self.by_type.get(op_type)
            if recorder is not None:
                merged.merge(recorder)
        return merged


class YCSBRunner:
    """Runs load + operation phases against one adapter, closed loop."""

    def __init__(self, workload: YCSBWorkload, adapter,
                 stats: Optional[RunStats] = None):
        self.workload = workload
        self.adapter = adapter
        self.stats = stats or RunStats()

    def load_phase(self, sim, limit: Optional[int] = None):
        """Insert the initial records (not measured)."""
        keys = self.workload.load_keys()
        if limit is not None:
            keys = range(min(limit, len(keys)))
        for key in keys:
            yield from self.adapter.load(key,
                                         self.workload.config.field_length)

    def run_phase(self, sim, op_count: int, warmup: int = 0):
        """Execute ``op_count`` operations, recording all but ``warmup``."""
        executed = 0
        for op in self.workload.operations(op_count):
            start = sim.now
            result = self.adapter.execute(op)
            if result is not None:
                yield from result
            executed += 1
            if executed > warmup:
                self.stats.record(op.op, sim.now - start)
        return self.stats
