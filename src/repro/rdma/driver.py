"""The userspace NIC driver — including HyperLoop's modifications.

The stock driver behaviour (mirroring ``libmlx4``):

* work queues are rings of fixed-size WQE descriptors in *host memory*;
* ``post`` serializes a :class:`~repro.rdma.wqe.WorkRequest` into the next
  ring slot and hands **ownership** to the NIC, after which the descriptor
  must not be touched by software.

HyperLoop modifies 58 lines of this driver in the paper; here the analogous
changes are:

* :meth:`WorkQueue.post` takes ``owned=False`` so a WQE can be pre-posted
  *without* yielding ownership — the NIC will stall at it until some DMA
  (local or remote) flips the ownership bit in ring memory;
* :meth:`WorkQueue.slot_address` / :meth:`WorkQueue.field_address` expose
  descriptor addresses so the ring can be registered as an RDMA-writable
  memory region and patched by a remote peer ("remote work request
  manipulation", §4.1);
* safety check: a ring registered for remote access only accepts scatter
  writes that stay inside the ring allocation (enforced by the MR bounds in
  :mod:`repro.rdma.verbs`).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..nvm.memory import Allocation, MemoryDevice
from .wqe import (
    WQE_SIZE,
    DecodedWQE,
    Opcode,
    WorkRequest,
    WQEFlags,
    decode_wqe,
    encode_wqe,
)

__all__ = ["WorkQueue", "RingFullError"]

#: Parses of the distinct descriptor images the NIC has seen, keyed by the
#: raw bytes — so there is nothing to invalidate: a changed byte is a
#: different key.  Bounded by a constant; the oldest image is evicted.
_PARSE_MEMO_ENTRIES = 512
_parse_memo: Dict[bytes, DecodedWQE] = {}

# Plain ints, for comparing against raw ring bytes.
_OWNED = int(WQEFlags.OWNED)
_STATIC = int(WQEFlags.STATIC)
_STAYS_ARMED = (int(Opcode.WAIT), int(Opcode.RECV))


class RingFullError(Exception):
    """Posting would overwrite a descriptor the NIC has not consumed yet."""


class WorkQueue:
    """A ring of WQE descriptors in host memory.

    ``tail`` is the software producer index (absolute, monotonically
    increasing); ``head`` is the NIC consumer index.  Slot ``i`` lives at
    ``ring.address + (i % num_slots) * WQE_SIZE``.
    """

    __slots__ = ("memory", "ring", "name", "num_slots", "head", "tail",
                 "cyclic")

    def __init__(self, memory: MemoryDevice, ring: Allocation, name: str = "wq",
                 cyclic: bool = False) -> None:
        if ring.size % WQE_SIZE:
            raise ValueError("ring size must be a multiple of WQE_SIZE")
        self.memory = memory
        self.ring = ring
        self.name = name
        self.num_slots = ring.size // WQE_SIZE
        self.head = 0  # NIC consumer (absolute index).
        self.tail = 0  # Software producer (absolute index).
        #: HyperLoop driver modification: a cyclic ring re-arms each
        #: descriptor when the NIC consumes it (the NIC clears the
        #: ownership bit on write-back, except for static WAIT entries), so
        #: a slot pattern pre-posted once serves unboundedly many
        #: operations with ZERO recurring CPU — each reuse is re-activated
        #: by the next incoming metadata scatter.
        self.cyclic = cyclic

    # ------------------------------------------------------------------
    # Software (driver) side
    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        return self.tail - self.head

    @property
    def free_slots(self) -> int:
        return self.num_slots - self.outstanding

    def slot_address(self, index: int) -> int:
        """Host-memory address of the descriptor for absolute slot ``index``."""
        return self.ring.address + (index % self.num_slots) * WQE_SIZE

    def field_address(self, index: int, field_offset: int) -> int:
        """Address of one descriptor field — the target of remote patching."""
        if not 0 <= field_offset < WQE_SIZE:
            raise ValueError(f"field offset {field_offset} outside descriptor")
        return self.slot_address(index) + field_offset

    def post(self, wr: WorkRequest, owned: bool = True) -> int:
        """Serialize ``wr`` into the next slot; returns its absolute index.

        ``owned=False`` is the HyperLoop driver modification: the descriptor
        is written but the NIC will not execute it until its ownership bit is
        set by a later DMA write (remote manipulation) or :meth:`grant`.
        """
        if self.free_slots <= 0:
            raise RingFullError(f"{self.name}: ring full ({self.num_slots} slots)")
        index = self.tail
        self.memory.write(self.slot_address(index), encode_wqe(wr, owned=owned))
        self.tail += 1
        return index

    def grant(self, index: int) -> None:
        """Set the ownership bit of a previously posted descriptor."""
        addr = self.field_address(index, 1)  # OFF_FLAGS
        flags = self.memory.read(addr, 1)[0]
        self.memory.write(addr, bytes([flags | _OWNED]))

    # ------------------------------------------------------------------
    # NIC side
    # ------------------------------------------------------------------
    def peek_head(self) -> Optional[DecodedWQE]:
        """Parse the descriptor at the consumer head, or None if empty.

        The NIC re-reads ring memory on every peek, so descriptor bytes
        patched by an incoming scatter DMA genuinely take effect; only the
        parse of an image already seen is reused.
        """
        if self.head >= self.tail:
            return None
        raw = self.memory.read(self.slot_address(self.head), WQE_SIZE)
        wqe = _parse_memo.get(raw)
        if wqe is None:
            if len(_parse_memo) >= _PARSE_MEMO_ENTRIES:
                del _parse_memo[next(iter(_parse_memo))]
            wqe = _parse_memo[raw] = decode_wqe(raw)
        return wqe

    def advance_head(self) -> None:
        if self.head >= self.tail:
            raise RuntimeError(f"{self.name}: advancing past tail")
        if self.cyclic:
            # NIC write-back: clear ownership so the stale descriptor stalls
            # the queue until the next scatter re-activates it.  WAIT and
            # RECV descriptors, and anything marked STATIC, stay armed —
            # they serve every reuse of their slot unchanged.
            addr = self.slot_address(self.head)
            opcode, flags = self.memory.read(addr, 2)  # OFF_OPCODE, OFF_FLAGS
            if opcode not in _STAYS_ARMED and not flags & _STATIC:
                self.memory.write(addr + 1, bytes([flags & ~_OWNED]))
            self.tail += 1  # Re-arm the slot at the ring tail.
        self.head += 1

    def reset(self) -> None:
        """Drop all outstanding descriptors (QP teardown / error flush)."""
        self.head = self.tail
