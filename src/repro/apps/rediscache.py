"""Replicated Memcache/Redis-like cache (§7, weaker consistency models).

The paper notes that its fully-ACID primitives subsume weaker modes: "by
not using the log processing and durability in the critical path, systems
can get replicated Memcache or Redis like semantics."  This cache is that
configuration:

* ``set``/``delete`` — one *non-durable* gWRITE straight into the data
  region: no write-ahead log, no ExecuteAndAdvance, no gFLUSH.  An ACK
  means all replicas have the value in (volatile-cache-backed) memory —
  cache semantics, lowest latency;
* ``get`` — served from the client's copy, or via a one-sided READ from
  any replica (scale-out reads with zero replica CPU);
* ``incr``/``decr`` — an atomic counter implemented with a gCAS retry
  loop: the result map returns each replica's observed value on a miss,
  so no separate read is ever needed;
* TTLs — every value carries an absolute expiry timestamp checked lazily
  on read (and swept by an optional janitor process).

Values never survive power failure — by design; see
:class:`~repro.apps.rockskv.ReplicatedRocksKV` for the durable
configuration of the same machinery.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..sim.units import seconds

__all__ = ["CacheConfig", "ReplicatedCache"]

_SLOT_HEADER = struct.Struct("<HIQ")  # key_len, value_len, expiry_ns
_TOMBSTONE = 0xFFFFFFFF


@dataclass
class CacheConfig:
    default_ttl_ns: Optional[int] = None     # None = no expiry.
    counter_area: int = 4096                 # Bytes reserved for counters.
    janitor_period_ns: int = seconds(1)
    client_op_cpu_ns: int = 400


class ReplicatedCache:
    """A replication-group-backed cache with Redis-flavoured operations.

    ``group`` is any :class:`~repro.backend.base.GroupBase` whose
    ``primitives`` include gWRITE, gCAS and READ.
    """

    def __init__(self, group, config: Optional[CacheConfig] = None,
                 name: str = "cache", start_janitor: bool = False):
        self.group = group
        self.config = config or CacheConfig()
        self.name = name
        self.sim = group.sim
        if self.config.counter_area % 8:
            raise ValueError("counter area must be 8-byte aligned")
        self._counter_index: Dict[bytes, int] = {}
        self._next_counter = 0
        self._index: Dict[bytes, Tuple[int, int]] = {}  # key -> (off, size)
        self._alloc = self.config.counter_area
        self.thread = group.client_host.spawn_thread(f"{name}.fe")
        self.sets = 0
        self.hits = 0
        self.misses = 0
        self.expirations = 0
        if start_janitor:
            self.sim.process(self._janitor(), name=f"{name}.janitor")

    # ------------------------------------------------------------------
    # Values
    # ------------------------------------------------------------------
    def set(self, key: bytes, value: bytes, ttl_ns: Optional[int] = None):
        """Replicate a value to every node; generator.

        Non-durable by construction: the ACK means in-memory replication,
        the cache contract.
        """
        effective_ttl = ttl_ns if ttl_ns is not None \
            else self.config.default_ttl_ns
        expiry = self.sim.now + effective_ttl if effective_ttl else 0
        payload = _SLOT_HEADER.pack(len(key), len(value), expiry) \
            + key + value
        offset = self._place(key, len(payload))
        yield self.thread.run(self.config.client_op_cpu_ns)
        self.group.write_local(offset, payload)
        yield self.group.gwrite(offset, len(payload), durable=False)
        self.sets += 1

    def delete(self, key: bytes):
        """Replicated tombstone; generator."""
        entry = self._index.get(key)
        if entry is None:
            return
        offset, _size = entry
        header = _SLOT_HEADER.pack(len(key), _TOMBSTONE, 0)
        yield self.thread.run(self.config.client_op_cpu_ns)
        self.group.write_local(offset, header)
        yield self.group.gwrite(offset, _SLOT_HEADER.size, durable=False)
        del self._index[key]

    def get(self, key: bytes) -> Optional[bytes]:
        """Local read from the client's replica of the cache."""
        entry = self._index.get(key)
        if entry is None:
            self.misses += 1
            return None
        offset, size = entry
        return self._decode(key, self.group.read_local(offset, size))

    def get_from_replica(self, hop: int, key: bytes):
        """One-sided READ from a chosen replica; generator → value/None."""
        entry = self._index.get(key)
        if entry is None:
            self.misses += 1
            return None
        offset, size = entry
        raw = yield self.group.remote_read(hop, offset, size)
        return self._decode(key, raw)

    def _decode(self, key: bytes, raw: bytes) -> Optional[bytes]:
        key_len, value_len, expiry = _SLOT_HEADER.unpack_from(raw, 0)
        if value_len == _TOMBSTONE:
            self.misses += 1
            return None
        if expiry and self.sim.now >= expiry:
            self.expirations += 1
            self.misses += 1
            return None
        start = _SLOT_HEADER.size + key_len
        self.hits += 1
        return bytes(raw[start:start + value_len])

    def _place(self, key: bytes, size: int) -> int:
        existing = self._index.get(key)
        if existing is not None and existing[1] >= size:
            self._index[key] = (existing[0], size)
            return existing[0]
        offset = self._alloc
        if offset + size > self.group.config.region_size - 64:
            raise MemoryError(f"{self.name}: cache region exhausted")
        self._alloc += (size + 7) & ~7
        self._index[key] = (offset, size)
        return offset

    # ------------------------------------------------------------------
    # Counters (INCR/DECR à la Redis)
    # ------------------------------------------------------------------
    def _counter_offset(self, key: bytes) -> int:
        slot = self._counter_index.get(key)
        if slot is None:
            slot = self._next_counter
            if (slot + 1) * 8 > self.config.counter_area:
                raise MemoryError(f"{self.name}: counter area exhausted")
            self._next_counter += 1
            self._counter_index[key] = slot
        return slot * 8

    def incr(self, key: bytes, delta: int = 1):
        """Atomically add ``delta`` on every replica; generator → new value.

        A gCAS retry loop: a failed compare returns the observed value in
        the result map, so each retry costs exactly one group operation.
        """
        offset = self._counter_offset(key)
        expected = int.from_bytes(self.group.read_local(offset, 8), "little")
        while True:
            yield self.thread.run(self.config.client_op_cpu_ns)
            new_value = (expected + delta) % (1 << 64)
            result = yield self.group.gcas(offset, expected, new_value)
            observed = result.cas_results()
            if all(value == expected for value in observed):
                self.group.write_local(offset,
                                       new_value.to_bytes(8, "little"))
                return new_value
            expected = max(observed)

    def decr(self, key: bytes, delta: int = 1):
        value = yield from self.incr(key, -delta % (1 << 64))
        return value

    def counter_value(self, key: bytes) -> int:
        offset = self._counter_offset(key)
        return int.from_bytes(self.group.read_local(offset, 8), "little")

    # ------------------------------------------------------------------
    # Expiry janitor
    # ------------------------------------------------------------------
    def _janitor(self):
        """Periodically drop expired keys from the client index."""
        while True:
            yield self.sim.timeout(self.config.janitor_period_ns)
            now = self.sim.now
            doomed = []
            for key, (offset, _size) in self._index.items():
                raw = self.group.read_local(offset, _SLOT_HEADER.size)
                _klen, value_len, expiry = _SLOT_HEADER.unpack_from(raw, 0)
                if value_len != _TOMBSTONE and expiry and now >= expiry:
                    doomed.append(key)
            for key in doomed:
                self.expirations += 1
                yield from self.delete(key)
