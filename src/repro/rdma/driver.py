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

from typing import Dict, Iterator, Optional, Sequence, Tuple

from ..nvm.memory import Allocation, MemoryDevice
from .wqe import (
    OFF_IMM,
    WQE_SIZE,
    DecodedWQE,
    Opcode,
    WorkRequest,
    WQEFlags,
    decode_wqe,
    decode_wqe_header,
    encode_wqe,
)

__all__ = ["WorkQueue", "RingFullError"]

#: Parses of the distinct descriptor images the NIC has seen, keyed by the
#: raw bytes — so there is nothing to invalidate: a changed byte is a
#: different key.  Bounded by a constant; the oldest image is evicted.
_PARSE_MEMO_ENTRIES = 512
_parse_memo: Dict[bytes, DecodedWQE] = {}

#: Most descriptors a flush reads in one go: a whole 4096-slot ring
#: (655 KB) showed in peak RSS.
_CHUNK_WQES = 128

# Plain ints, for comparing against raw ring bytes.
_OWNED = int(WQEFlags.OWNED)
_STATIC = int(WQEFlags.STATIC)
_STAYS_ARMED = (int(Opcode.WAIT), int(Opcode.RECV))


def _grant(image: bytearray, at: int) -> None:
    image[at] |= _OWNED  # OFF_FLAGS


def _write_back(image: bytearray, at: int) -> None:
    # OFF_OPCODE, OFF_FLAGS of a consumed cyclic-ring descriptor.
    if image[at] not in _STAYS_ARMED and not image[at + 1] & _STATIC:
        image[at + 1] &= ~_OWNED


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

    def post_list(self, wrs: Sequence[WorkRequest], owned: Sequence[bool],
                  times: int = 1) -> int:
        """List post (``ibv_post_send`` with a WR chain): ``wrs``, entry ``i``
        with ownership ``owned[i]``, ``times`` over; returns the first index.

        Ring bytes and ``tail`` end up as after one :meth:`post` per
        descriptor, but each distinct WR object is encoded once and the
        repeats go through :meth:`MemoryDevice.write_pattern`, which stores
        each whole ring page once per phase of the block until an op first
        patches it.  All-or-nothing: a list that does not fit or does not
        encode changes neither bytes nor ``tail``.
        """
        if times < 0:
            raise ValueError("times must be non-negative")
        first, end = self.tail, self.tail + len(wrs) * times
        if end - self.head > self.num_slots:
            raise RingFullError(f"{self.name}: {end - first} descriptors "
                                f"into {self.free_slots} free slots")
        images: Dict[Tuple[int, bool], bytes] = {}
        block = []
        for wr, own in zip(wrs, owned, strict=True):
            image = images.get((id(wr), own))
            if image is None:
                image = images[id(wr), own] = encode_wqe(wr, owned=own)
            block.append(image)
        unit = b"".join(block)
        index = first
        while index < end:
            slot = index % self.num_slots
            count = min(end - index, self.num_slots - slot)
            # After the ring wraps, the block resumes part-way through.
            at = (index - first) % len(block) * WQE_SIZE
            turn = unit[at:] + unit[:at] if at else unit
            whole, rest = divmod(count, len(block))
            address = self.ring.address + slot * WQE_SIZE
            self.memory.write_pattern(address, turn, whole)
            if rest:
                self.memory.write(address + whole * len(turn),
                                  turn[:rest * WQE_SIZE])
            index += count
        self.tail = end
        return first

    def grant(self, index: int) -> None:
        """Set the ownership bit of a previously posted descriptor."""
        self.memory.modify(self.field_address(index, 1), 1, _grant)

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
            self.memory.modify(self.slot_address(self.head), 2, _write_back)
            self.tail += 1  # Re-arm the slot at the ring tail.
        self.head += 1

    def flush(self) -> Iterator[Tuple[Opcode, int]]:
        """Error flush: consume every outstanding descriptor unexecuted,
        yielding its ``(opcode, wr_id)`` in ring order — one tuple per
        distinct header, so a consumer can key on it.  A corrupt descriptor
        raises as :func:`decode_wqe` would, with ``head`` left on it."""
        seen: Dict[bytes, Tuple[Opcode, int]] = {}
        while self.head < self.tail:
            slot = self.head % self.num_slots
            run = min(_CHUNK_WQES, self.tail - self.head,
                      self.num_slots - slot)
            raw = self.memory.read(self.ring.address + slot * WQE_SIZE,
                                   run * WQE_SIZE)
            for offset in range(0, len(raw), WQE_SIZE):
                header = raw[offset:offset + OFF_IMM]
                flushed = seen.get(header)
                if flushed is None:
                    opcode, _flags, _num_sge, wr_id, _imm, _rkey = \
                        decode_wqe_header(raw, offset)
                    flushed = seen[header] = (opcode, wr_id)
                self.head += 1
                yield flushed

    def reset(self) -> None:
        """Drop all outstanding descriptors (QP teardown / error flush)."""
        self.head = self.tail
