"""Work-queue entry (WQE) binary layout.

HyperLoop's central trick (§4.1, "remote work request manipulation") is that
work queues live in *registered host memory*, so a peer's NIC can scatter an
incoming message's bytes directly onto the memory descriptors of pre-posted
WQEs — rewriting what a future WRITE/SEND/CAS will do and flipping its
ownership bit — all without the local CPU.

For that mechanism to be reproduced honestly the WQEs here are real bytes:
each entry is a fixed 160-byte descriptor serialized into a ring buffer in
simulated host memory.  The NIC parses descriptors from memory when it
executes them, so any byte written into the ring (by the local driver or by a
remote NIC's scatter DMA) genuinely changes NIC behaviour.

Descriptor layout (little-endian)::

    offset  size  field
    0       1     opcode
    1       1     flags        (OWNED | SIGNALED | FENCE)
    2       1     num_sge
    3       1     reserved
    4       4     wr_id
    8       4     imm
    12      4     rkey
    16      8     remote_addr
    24      8     compare      (CAS)
    32      8     swap         (CAS)
    40      4     wait_cq      (WAIT: CQ id to watch)
    44      4     wait_count   (WAIT: completion count to reach)
    48      16*6  sge[6]       each: addr u64, length u32, pad u32
    144..160      padding

The named offsets are exported so :mod:`repro.core.metadata` can compute the
exact byte ranges a metadata SEND must scatter into.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import List, Tuple

__all__ = [
    "Opcode",
    "WQEFlags",
    "Sge",
    "WorkRequest",
    "WQE_SIZE",
    "MAX_SGE",
    "OFF_OPCODE",
    "OFF_FLAGS",
    "OFF_NUM_SGE",
    "OFF_WR_ID",
    "OFF_IMM",
    "OFF_RKEY",
    "OFF_REMOTE_ADDR",
    "OFF_COMPARE",
    "OFF_SWAP",
    "OFF_WAIT_CQ",
    "OFF_WAIT_COUNT",
    "sge_offset",
    "encode_wqe",
    "decode_wqe",
    "decode_wqe_header",
]

WQE_SIZE = 160
MAX_SGE = 6

OFF_OPCODE = 0
OFF_FLAGS = 1
OFF_NUM_SGE = 2
OFF_WR_ID = 4
OFF_IMM = 8
OFF_RKEY = 12
OFF_REMOTE_ADDR = 16
OFF_COMPARE = 24
OFF_SWAP = 32
OFF_WAIT_CQ = 40
OFF_WAIT_COUNT = 44
OFF_SGE0 = 48
SGE_SIZE = 16

_HEADER = struct.Struct("<BBBxIII")         # opcode, flags, num_sge, wr_id, imm, rkey
_EXT = struct.Struct("<QQQII")              # remote_addr, compare, swap, wait_cq, wait_count
_SGE = struct.Struct("<QII")                # addr, length, pad


def sge_offset(index: int, field_name: str = "addr") -> int:
    """Byte offset of an SGE field within the descriptor.

    ``field_name`` is ``"addr"`` (8 bytes) or ``"length"`` (4 bytes).
    """
    if not 0 <= index < MAX_SGE:
        raise ValueError(f"sge index {index} out of range")
    base = OFF_SGE0 + index * SGE_SIZE
    if field_name == "addr":
        return base
    if field_name == "length":
        return base + 8
    raise ValueError(f"unknown sge field {field_name!r}")


class Opcode(IntEnum):
    """WQE opcodes.  Values are stable: they appear in serialized descriptors."""

    NOP = 0
    SEND = 1
    RECV = 2
    WRITE = 3
    WRITE_WITH_IMM = 4
    READ = 5
    CAS = 6
    WAIT = 7
    FETCH_ADD = 8


class WQEFlags(IntEnum):
    OWNED = 1       # NIC may execute this descriptor.
    SIGNALED = 2    # Generate a CQE on completion.
    FENCE = 4       # Wait for all prior WQEs on this QP to complete first.
    STATIC = 8      # Cyclic re-arm keeps ownership (pre-posted forever).


@dataclass(frozen=True, slots=True)
class Sge:
    """A scatter/gather element: a contiguous local memory segment."""

    addr: int
    length: int

    def __post_init__(self):
        if self.addr < 0 or self.length < 0:
            raise ValueError("sge addr/length must be non-negative")


@dataclass(slots=True)
class WorkRequest:
    """The user-level work request handed to post_send/post_recv.

    The driver serializes this into a fixed-size descriptor; the NIC only ever
    sees the serialized form.
    """

    opcode: Opcode
    sg_list: List[Sge] = field(default_factory=list)
    wr_id: int = 0
    remote_addr: int = 0
    rkey: int = 0
    imm: int = 0
    compare: int = 0      # CAS expected value.
    swap: int = 0         # CAS replacement, or FETCH_ADD addend.
    wait_cq: int = 0
    wait_count: int = 0
    signaled: bool = True
    fence: bool = False
    #: Survives cyclic ring re-arm with ownership intact — for descriptors
    #: that serve every reuse of a slot unchanged (static forwards/ACKs).
    static: bool = False

    @property
    def total_length(self) -> int:
        return sum(sge.length for sge in self.sg_list)


def encode_wqe(wr: WorkRequest, owned: bool) -> bytes:
    """Serialize a work request into its fixed-size descriptor."""
    if len(wr.sg_list) > MAX_SGE:
        raise ValueError(f"too many SGEs: {len(wr.sg_list)} > {MAX_SGE}")
    flags = 0
    if owned:
        flags |= WQEFlags.OWNED
    if wr.signaled:
        flags |= WQEFlags.SIGNALED
    if wr.fence:
        flags |= WQEFlags.FENCE
    if wr.static:
        flags |= WQEFlags.STATIC
    buf = bytearray(WQE_SIZE)
    _HEADER.pack_into(buf, 0, int(wr.opcode), flags, len(wr.sg_list),
                      wr.wr_id & 0xFFFFFFFF, wr.imm & 0xFFFFFFFF,
                      wr.rkey & 0xFFFFFFFF)
    _EXT.pack_into(buf, OFF_REMOTE_ADDR, wr.remote_addr, wr.compare, wr.swap,
                   wr.wait_cq & 0xFFFFFFFF, wr.wait_count & 0xFFFFFFFF)
    for i, sge in enumerate(wr.sg_list):
        _SGE.pack_into(buf, OFF_SGE0 + i * SGE_SIZE, sge.addr, sge.length, 0)
    return bytes(buf)


@dataclass(frozen=True, slots=True)
class DecodedWQE:
    """A descriptor parsed back out of ring memory by the NIC.

    Immutable: the driver shares one parse between every ring slot that
    holds the same bytes.
    """

    opcode: Opcode
    owned: bool
    signaled: bool
    fence: bool
    num_sge: int
    wr_id: int
    imm: int
    rkey: int
    remote_addr: int
    compare: int
    swap: int
    wait_cq: int
    wait_count: int
    sg_list: Tuple[Sge, ...]

    @property
    def total_length(self) -> int:
        return sum(sge.length for sge in self.sg_list)


def decode_wqe_header(data: bytes, offset: int = 0) -> Tuple[
        Opcode, int, int, int, int, int]:
    """``(opcode, flags, num_sge, wr_id, imm, rkey)`` of the descriptor at
    ``data[offset:]``; a corrupt ``num_sge`` or unknown opcode raises."""
    opcode_raw, flags, num_sge, wr_id, imm, rkey = \
        _HEADER.unpack_from(data, offset)
    if num_sge > MAX_SGE:
        raise ValueError(f"corrupt descriptor: num_sge={num_sge}")
    return Opcode(opcode_raw), flags, num_sge, wr_id, imm, rkey


def decode_wqe(data: bytes) -> DecodedWQE:
    """Parse a WQE_SIZE-byte descriptor as the NIC sees it."""
    if len(data) != WQE_SIZE:
        raise ValueError(f"descriptor must be {WQE_SIZE} bytes, got {len(data)}")
    opcode, flags, num_sge, wr_id, imm, rkey = decode_wqe_header(data)
    remote_addr, compare, swap, wait_cq, wait_count = \
        _EXT.unpack_from(data, OFF_REMOTE_ADDR)
    sg_list = []
    for i in range(num_sge):
        addr, length, _pad = _SGE.unpack_from(data, OFF_SGE0 + i * SGE_SIZE)
        sg_list.append(Sge(addr, length))
    return DecodedWQE(
        opcode=opcode,
        owned=bool(flags & WQEFlags.OWNED),
        signaled=bool(flags & WQEFlags.SIGNALED),
        fence=bool(flags & WQEFlags.FENCE),
        num_sge=num_sge,
        wr_id=wr_id,
        imm=imm,
        rkey=rkey,
        remote_addr=remote_addr,
        compare=compare,
        swap=swap,
        wait_cq=wait_cq,
        wait_count=wait_count,
        sg_list=tuple(sg_list),
    )
