"""The HyperLoop storage API (§5).

This is the layer the paper's case studies program against:

* ``Initialize`` — set up the replicated region (lock table + write-ahead
  log + database area) over a group: any
  :class:`~repro.backend.base.GroupBase` (see ``repro.backend.names()``)
  whose ``primitives`` cover the calls made — the case-study applications
  are backend-agnostic, exactly as the paper's APIs are.
* ``Append(log_record)`` — replicate a redo record to every replica's WAL,
  durably, "implemented using gWRITE and gFLUSH operations".
* ``ExecuteAndAdvance`` — process the record at the WAL head: one
  gMEMCPY + gFLUSH per entry to move payloads from the log into the
  database area, then a gWRITE + gFLUSH advancing the head pointer
  (log truncation).
* ``wrLock/wrUnlock`` and ``rdLock/rdUnlock`` — group locking via gCAS
  (delegated to :class:`~repro.storage.locktable.GroupLockTable`).

All mutating methods are simulation generators; drive them with
``yield from`` (or wrap in ``sim.process``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..sim.engine import Event
from ..storage.layout import RegionLayout
from ..storage.locktable import GroupLockTable
from ..storage.wal import (
    ENTRY_DESC_SIZE,
    HEADER_SIZE,
    LogEntry,
    LogRecord,
    RecordKind,
    WalFullError,
    WalRing,
)

__all__ = ["StoreConfig", "ReplicatedStore", "initialize", "recover"]


@dataclass
class StoreConfig:
    """Configuration for :func:`initialize` (the paper's config object)."""

    num_locks: int = 1024
    wal_size: int = 4 << 20
    durable: bool = True       # Interleave gFLUSH on the data path.


def initialize(group, config: Optional[StoreConfig] = None) -> "ReplicatedStore":
    """Create a replicated store over an existing group (§5 ``Initialize``).

    The group carries the region size and connections; this function lays
    out locks/WAL/database inside it and returns the store handle.
    """
    return ReplicatedStore(group, config or StoreConfig())


def recover(group, config: Optional[StoreConfig] = None,
            source_hop: int = 0,
            decisions: Optional[Dict[int, "RecordKind"]] = None):
    """Rebuild a store after the *coordinator* crashed (generator).

    §5.1's recovery direction, applied to the client side: a restarted
    coordinator holds no state, but every replica's NVM does.  This pulls
    the surviving region image from ``source_hop`` via one-sided READs
    (no replica CPU), reseats the client's local copy, re-derives the next
    sequence number by scanning the WAL (CRC rejects any torn tail
    record), re-registers known 2PC ``decisions`` (from the coordinator's
    durable decision log), and returns a working :class:`ReplicatedStore`.

    In-doubt PREPARE records — transactions with no recorded decision —
    stay pinned at the WAL head until :meth:`ReplicatedStore.
    register_decision` resolves them, exactly as before the crash.
    """
    store = ReplicatedStore(group, config or StoreConfig())
    # Stream the authoritative replica image into the client's copy.
    chunk = 32 * 1024
    region_size = group.config.region_size
    offset = 0
    while offset < region_size:
        span = min(chunk, region_size - offset)
        data = yield group.remote_read(source_hop, offset, span)
        group.write_local(offset, data)
        offset += span
    records = store.ring.scan()
    store._next_seq = store.ring.last_seq + 1
    store.appended_records = len(records)
    for txn_id, decision in (decisions or {}).items():
        store.register_decision(txn_id, decision)
    return store


class ReplicatedStore:
    """A replicated, transactional region: WAL + database + group locks."""

    def __init__(self, group, config: StoreConfig):
        self.group = group
        self.config = config
        self.sim = group.sim
        self.layout = RegionLayout(region_size=group.config.region_size,
                                   num_locks=config.num_locks,
                                   wal_size=config.wal_size)
        self.ring = WalRing(self.layout.wal_offset, self.layout.wal_size,
                            read=group.read_local, write=group.write_local)
        rng = group.client_host.cluster.rng.stream(f"{group.name}.locks")
        self.locks = GroupLockTable(group, self.layout, rng)
        self._next_seq = 1
        self.appended_records = 0
        self.executed_records = 0
        # Two-phase-commit state: decisions fed by the coordinator, and
        # prepared records awaiting one.
        self._txn_decisions: Dict[int, RecordKind] = {}

    # ------------------------------------------------------------------
    # Log replication (§5 "Log Replication")
    # ------------------------------------------------------------------
    def append(self, entries: Sequence[LogEntry],
               kind: RecordKind = RecordKind.DATA, txn_id: int = 0):
        """Append one redo record and replicate it durably to all WALs.

        Generator; returns the :class:`LogRecord` written.  Raises
        :class:`WalFullError` when the ring needs truncation first (call
        :meth:`execute_and_advance`).
        """
        record = LogRecord(seq=self._next_seq, entries=tuple(entries),
                           kind=kind, txn_id=txn_id)
        data = record.encode()
        region_offset, new_tail, wrapped = self.ring.place(len(data))
        group = self.group
        acks: List[Event] = []
        if wrapped:
            self.ring.write_wrap_marker(self.ring.tail)
            marker_offset = self.ring.ring_offset + self.ring.tail
            acks.append(group.gwrite(marker_offset, 4,
                                     durable=self.config.durable))
        group.write_local(region_offset, data)
        acks.append(group.gwrite(region_offset, len(data),
                                 durable=self.config.durable))
        # The tail pointer (and the monotonic sequence high-water mark,
        # adjacent to it) only move after the record bytes are durable
        # everywhere; chain FIFO ordering makes the second gWRITE arrive
        # after the first at every hop.
        self.ring.write_tail(new_tail)
        self.ring.write_last_seq(record.seq)
        acks.append(group.gwrite(self.ring.tail_pointer_offset, 16,
                                 durable=self.config.durable))
        self._next_seq += 1
        self.appended_records += 1
        for ack in acks:
            yield ack
        return record

    def append_blocking_truncate(self, entries: Sequence[LogEntry]):
        """Like :meth:`append` but truncates (executes) when the ring fills."""
        while True:
            try:
                record = yield from self.append(entries)
                return record
            except WalFullError:
                executed = yield from self.execute_and_advance()
                if executed is None:
                    raise

    # ------------------------------------------------------------------
    # Log processing (§5 "Log Processing")
    # ------------------------------------------------------------------
    def register_decision(self, txn_id: int, decision: RecordKind) -> None:
        """Record a 2PC outcome so a pending PREPARE can be resolved."""
        if decision not in (RecordKind.COMMIT, RecordKind.ABORT):
            raise ValueError(f"decision must be COMMIT or ABORT, "
                             f"got {decision}")
        self._txn_decisions[txn_id] = decision

    def execute_and_advance(self):
        """Process the record at the WAL head on *all* replicas.

        For each (data, len, offset) entry, a gMEMCPY copies the payload
        from the log area into the database area — on every node, with no
        replica CPU — followed (when durable) by the interleaved flush.
        Finally the head pointer advances: log truncation.

        Two-phase-commit handling: a PREPARE record applies only once its
        transaction's decision is COMMIT; with an ABORT decision it is
        skipped; with no decision yet the head cannot advance and the
        method returns None (in-doubt transactions pin the log, exactly as
        in real write-ahead logging).

        Generator; returns the processed :class:`LogRecord`, or None when
        the log is empty or blocked on an in-doubt transaction.
        """
        head, tail = self.ring.head, self.ring.tail
        if head == tail:
            return None
        record, region_offset, next_pos = self.ring.record_at(head)
        apply_entries = record.kind is RecordKind.DATA
        if record.kind is RecordKind.PREPARE:
            decision = self._txn_decisions.get(record.txn_id)
            if decision is None:
                return None  # In-doubt: the log cannot truncate past it.
            apply_entries = decision is RecordKind.COMMIT
        group = self.group
        acks: List[Event] = []
        if apply_entries:
            payload_cursor = (region_offset + HEADER_SIZE
                              + ENTRY_DESC_SIZE * len(record.entries))
            for entry in record.entries:
                dst = self.layout.db_address(entry.db_offset, entry.length)
                acks.append(group.gmemcpy(payload_cursor, dst, entry.length,
                                          durable=self.config.durable))
                payload_cursor += entry.length
        self.ring.write_head(next_pos)
        acks.append(group.gwrite(self.ring.head_pointer_offset, 8,
                                 durable=self.config.durable))
        self.executed_records += 1
        for ack in acks:
            yield ack
        return record

    def drain(self):
        """Execute every outstanding record (used before reads/recovery)."""
        processed = []
        while True:
            record = yield from self.execute_and_advance()
            if record is None:
                return processed
            processed.append(record)

    # ------------------------------------------------------------------
    # Locking (§5 "Locking and Isolation")
    # ------------------------------------------------------------------
    def wr_lock(self, lock_id: int):
        yield from self.locks.wr_lock(lock_id)

    def wr_unlock(self, lock_id: int):
        yield from self.locks.wr_unlock(lock_id)

    def rd_lock(self, lock_id: int, hop: int):
        yield from self.locks.rd_lock(lock_id, hop)

    def rd_unlock(self, lock_id: int, hop: int):
        yield from self.locks.rd_unlock(lock_id, hop)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def db_read_local(self, db_offset: int, size: int) -> bytes:
        """Read the client's own copy of the database area (no network)."""
        return self.group.read_local(self.layout.db_address(db_offset, size),
                                     size)

    def db_read(self, hop: int, db_offset: int, size: int) -> Event:
        """One-sided read of the database area on replica ``hop``."""
        return self.group.remote_read(
            hop, self.layout.db_address(db_offset, size), size)

    # ------------------------------------------------------------------
    # Transactions: the §3.1 five-step recipe in one call
    # ------------------------------------------------------------------
    def transaction(self, lock_id: int, entries: Sequence[LogEntry],
                    execute: bool = True):
        """Run one replicated ACID transaction:

        1. replicate the redo record to all WALs (Append),
        2. acquire the group write lock,
        3. execute the record (gMEMCPY per entry),
        4. durably flush (interleaved gFLUSH),
        5. release the lock.

        Generator; returns the :class:`LogRecord`.
        """
        record = yield from self.append_blocking_truncate(entries)
        yield from self.wr_lock(lock_id)
        try:
            if execute:
                yield from self.execute_and_advance()
        finally:
            yield from self.wr_unlock(lock_id)
        return record
