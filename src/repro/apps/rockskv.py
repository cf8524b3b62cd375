"""Replicated RocksDB-like key-value store (§5.1 case study).

RocksDB serves requests from an in-memory structure (the memtable) and a
durable write-ahead log; the paper's port replaces the log's storage with
NVM and its append with HyperLoop ``Append``, turning the unreplicated
store into a replicated one "with only a few modifications":

* ``put``/``delete`` — serialize the change, ``Append`` it to the replicated
  WAL (one durable gWRITE chain — the only critical-path work), then update
  the client-side memtable;
* a periodic **flusher** (off the critical path) processes accumulated log
  records with ``ExecuteAndAdvance`` — gMEMCPY moving values into the
  database area on every node — and thereby truncates the log;
* each replica runs a low-frequency **sync thread** that replays its local
  NVM copy of the WAL into an in-memory table, giving the eventually-
  consistent replica reads §5.1 describes ("Replicas need to wake up
  periodically off the critical path to bring the in-memory snapshot in
  sync with NVM").

Works unchanged over any :class:`~repro.backend.base.GroupBase` that
declares all five ``primitives`` — every registered backend
(``repro.backend.names()``) provides the same write/append/gCAS/flush/read
surface.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.client import ReplicatedStore
from ..sim.units import ms
from ..storage.wal import LogEntry, WalRing

__all__ = ["RocksConfig", "ReplicatedRocksKV"]

_SLOT_HEADER = struct.Struct("<HI")  # key_len u16, value_len u32 (0 = tombstone)


def encode_kv(key: bytes, value: Optional[bytes]) -> bytes:
    if len(key) > 0xFFFF:
        raise ValueError("key too long")
    if value is None:
        return _SLOT_HEADER.pack(len(key), 0xFFFFFFFF) + key
    return _SLOT_HEADER.pack(len(key), len(value)) + key + value


def decode_kv(data: bytes) -> Tuple[bytes, Optional[bytes]]:
    key_len, value_len = _SLOT_HEADER.unpack_from(data, 0)
    key = bytes(data[_SLOT_HEADER.size:_SLOT_HEADER.size + key_len])
    if value_len == 0xFFFFFFFF:
        return key, None
    start = _SLOT_HEADER.size + key_len
    return key, bytes(data[start:start + value_len])


@dataclass
class RocksConfig:
    flush_period_ns: int = ms(10)        # Off-critical-path log processing.
    replica_sync_period_ns: int = ms(10)  # Replica memtable refresh.
    replica_sync_cpu_per_record_ns: int = 1_500
    client_put_cpu_ns: int = 800          # Serialize + memtable update.


class ReplicatedRocksKV:
    """An embedded KV store replicated through the group primitives."""

    def __init__(self, store: ReplicatedStore, config: Optional[RocksConfig]
                 = None, name: str = "rockskv", client_thread=None,
                 start_background: bool = True):
        self.store = store
        self.config = config or RocksConfig()
        self.name = name
        self.sim = store.sim
        self.memtable: Dict[bytes, Optional[bytes]] = {}
        self._index: Dict[bytes, Tuple[int, int]] = {}  # key -> (db_off, len)
        self._alloc = 0
        self.thread = client_thread or \
            store.group.client_host.spawn_thread(f"{name}.fe")
        self.puts = 0
        self.gets = 0
        self._replica_tables: Dict[int, Dict[bytes, Optional[bytes]]] = {
            hop: {} for hop in range(store.group.group_size)}
        if start_background:
            self.sim.process(self._flusher(), name=f"{name}.flusher")
            for hop in range(store.group.group_size):
                self.sim.process(self._replica_sync(hop),
                                 name=f"{name}.sync{hop}")

    # ------------------------------------------------------------------
    # Critical-path operations
    # ------------------------------------------------------------------
    def put(self, key: bytes, value: bytes):
        """Durable replicated write; generator, returns when replicated."""
        yield from self._log_change(key, value)

    def delete(self, key: bytes):
        """Durable replicated tombstone."""
        yield from self._log_change(key, None)

    def _log_change(self, key: bytes, value: Optional[bytes]):
        payload = encode_kv(key, value)
        slot = self._place(key, len(payload))
        yield self.thread.run(self.config.client_put_cpu_ns)
        yield from self.store.append_blocking_truncate(
            [LogEntry(slot, payload)])
        self.memtable[key] = value
        self.puts += 1

    def get(self, key: bytes) -> Optional[bytes]:
        """Read from the client-side memtable (the primary's view)."""
        self.gets += 1
        return self.memtable.get(key)

    def get_from_replica(self, hop: int, key: bytes) -> Optional[bytes]:
        """Eventually-consistent read from a replica's synced memtable."""
        self.gets += 1
        return self._replica_tables[hop].get(key)

    def _place(self, key: bytes, size: int) -> int:
        """Database-area slot for a key (in place when the size still fits)."""
        existing = self._index.get(key)
        if existing is not None and existing[1] >= size:
            return existing[0]
        offset = self._alloc
        if offset + size > self.store.layout.db_size:
            raise MemoryError(f"{self.name}: database area exhausted")
        self._alloc += (size + 7) & ~7
        self._index[key] = (offset, size)
        return offset

    # ------------------------------------------------------------------
    # Off-critical-path background work
    # ------------------------------------------------------------------
    def _flusher(self):
        """Periodically process + truncate the WAL (client coordinates;
        replicas' NICs do the copying via gMEMCPY)."""
        while True:
            yield self.sim.timeout(self.config.flush_period_ns)
            yield from self.store.drain()

    def _replica_sync(self, hop: int):
        """Replica-side: replay the local WAL copy into an in-memory table.

        Eventual consistency: a put is visible here one sync period after
        its log record reached this replica's NVM.
        """
        replica = self.store.group.replicas[hop]
        host = replica.host
        thread = host.spawn_thread(f"{self.name}.sync{hop}")
        layout = self.store.layout
        base = replica.region.address

        def read(offset: int, size: int) -> bytes:
            return host.memory.read(base + offset, size)

        ring = WalRing(layout.wal_offset, layout.wal_size, read,
                       lambda *_: None)
        table = self._replica_tables[hop]
        seen_seq = 0
        while True:
            yield self.sim.timeout(self.config.replica_sync_period_ns)
            if host.crashed:
                return
            records = ring.scan()
            fresh = [record for record, _off in records if record.seq > seen_seq]
            if not fresh:
                continue
            yield thread.run(len(fresh)
                             * self.config.replica_sync_cpu_per_record_ns)
            for record in fresh:
                for entry in record.entries:
                    key, value = decode_kv(entry.data)
                    table[key] = value
                seen_seq = max(seen_seq, record.seq)
