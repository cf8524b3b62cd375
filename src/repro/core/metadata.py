"""Metadata wire format for HyperLoop group operations.

The client (transaction coordinator) precomputes, for every replica in the
chain, the descriptor images that the replica's NIC must execute for one
operation, and ships them in a single metadata SEND (§4.1, Figure 5).  Each
replica's pre-posted RECV scatters the message so that

* the first :data:`ENTRY_SIZE` bytes land **directly on that replica's four
  pre-posted WQE descriptors** (local op, forward-data, forward-flush,
  forward-metadata) — patching their memory descriptors and setting their
  ownership bits in one DMA, and
* the remainder (the entries for downstream replicas plus the running gCAS
  result map) lands in the replica's per-slot *staging buffer*, from which
  the patched forward-metadata SEND re-transmits it to the next hop.

Message layout for the hop reaching replica ``r`` (0-based) in a group of
``g`` replicas::

    [ entry_r | entry_{r+1} | ... | entry_{g-1} | result_map (8*g bytes) ]

where every entry is four serialized WQE images (4 × WQE_SIZE bytes).  The
paper ships compact ≤32-byte descriptors because its driver pre-arranges all
constant WQE fields; we ship whole descriptor images instead so that the
scatter-patch is a plain DMA with no driver-side reassembly — the mechanism
is identical, the metadata is just less compact (see DESIGN.md).

Every offloaded client builds its images from one descriptor vocabulary —
:func:`local_op`, :func:`forward_data`, :func:`forward_flush`,
:func:`forward_meta` and :func:`ack` — in the order its topology's RECV
scatters them: this chain's four-WQE entries, the shared chain's three-WQE
entries (:mod:`repro.core.multiclient`), the fan-out's per-backup blocks
(:mod:`repro.core.fanout`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..backend.ops import OpKind, OpSpec
from ..rdma.wqe import WQE_SIZE, Opcode, Sge, WorkRequest, encode_wqe

__all__ = [
    "ENTRY_WQES",
    "ENTRY_SIZE",
    "OpKind",
    "OpSpec",
    "NodeLayout",
    "ClientLayout",
    "meta_len",
    "staging_len",
    "result_map_len",
    "result_offset_in_staging",
    "local_op",
    "forward_data",
    "forward_flush",
    "forward_meta",
    "ack",
    "images",
    "build_metadata",
]

ENTRY_WQES = 4
ENTRY_SIZE = ENTRY_WQES * WQE_SIZE


@dataclass
class NodeLayout:
    """What the client must know about one replica (exchanged at setup)."""

    name: str
    region_addr: int           # Base of the replicated region (log + db).
    region_rkey: int
    staging_addr: int          # Base of the staging-slot array.
    staging_stride: int        # Bytes between consecutive staging slots.
    slots: int                 # Pipeline depth S (staging slots are reused
    #                            modulo this).

    def staging_slot(self, slot: int) -> int:
        return self.staging_addr + (slot % self.slots) * self.staging_stride


@dataclass
class ClientLayout:
    """What the tail replica must know about the client's ACK buffers."""

    ack_addr: int
    ack_rkey: int
    ack_stride: int
    slots: int

    def ack_slot(self, slot: int) -> int:
        return self.ack_addr + (slot % self.slots) * self.ack_stride


def result_map_len(group_size: int) -> int:
    """The gCAS result map: one 8-byte field per replica (§4.2)."""
    return 8 * group_size


def meta_len(group_size: int, hop: int) -> int:
    """Size of the metadata message arriving at replica ``hop`` (0-based)."""
    if not 0 <= hop < group_size:
        raise ValueError(f"hop {hop} outside group of {group_size}")
    return (group_size - hop) * ENTRY_SIZE + result_map_len(group_size)


def staging_len(group_size: int, hop: int) -> int:
    """Bytes replica ``hop`` stages: downstream entries + result map."""
    return meta_len(group_size, hop) - ENTRY_SIZE


def max_staging_len(group_size: int) -> int:
    return staging_len(group_size, 0)


def result_offset_in_staging(group_size: int, hop: int) -> int:
    """Offset of the result map inside replica ``hop``'s staging buffer."""
    return (group_size - 1 - hop) * ENTRY_SIZE


def local_op(op: OpSpec, hop: int, node: NodeLayout,
             result_addr: int) -> WorkRequest:
    """The per-replica local operation (executed on the loopback QP); a
    gCAS lands the word's old value at ``result_addr``.

    Always signaled: its CQE is what the downstream WAITs count.
    """
    if op.kind is OpKind.GMEMCPY:
        # Local DMA copy, log region -> database region (§4.2, Figure 7).
        return WorkRequest(
            Opcode.WRITE,
            [Sge(node.region_addr + op.src_offset, op.size)],
            remote_addr=node.region_addr + op.dst_offset,
            rkey=node.region_rkey, signaled=True)
    if op.kind is OpKind.GCAS and (op.execute_map is None
                                   or op.execute_map[hop]):
        return WorkRequest(
            Opcode.CAS, [Sge(result_addr, 8)],
            remote_addr=node.region_addr + op.offset,
            rkey=node.region_rkey,
            compare=op.old_value, swap=op.new_value, signaled=True)
    # gWRITE and gFLUSH need no local work beyond what the inbound WRITE /
    # flush already did, nor does a gCAS its execute map skips (§4.2); a
    # signaled NOP keeps the WAIT chain counting.
    return WorkRequest(Opcode.NOP, signaled=True)


def forward_data(op: OpSpec, node: NodeLayout,
                 next_node: Optional[NodeLayout]) -> WorkRequest:
    """Forward a gWRITE's payload from ``node`` to ``next_node``."""
    if next_node is None or op.kind is not OpKind.GWRITE or op.size == 0:
        return WorkRequest(Opcode.NOP, signaled=False)
    return WorkRequest(
        Opcode.WRITE,
        [Sge(node.region_addr + op.offset, op.size)],
        remote_addr=next_node.region_addr + op.offset,
        rkey=next_node.region_rkey, signaled=False)


def forward_flush(op: OpSpec,
                  next_node: Optional[NodeLayout]) -> WorkRequest:
    """A 0-byte READ that forces ``next_node``'s NIC to drain its cache,
    for every op that :attr:`~repro.backend.ops.OpSpec.flushes`.

    FIFO delivery lands it after the data WRITE and before the forwarded
    metadata, so durability propagates in order (§4.2).
    """
    if next_node is None or not op.flushes:
        return WorkRequest(Opcode.NOP, signaled=False)
    return WorkRequest(
        Opcode.READ, [Sge(0, 0)],
        remote_addr=next_node.region_addr,
        rkey=next_node.region_rkey, signaled=False)


def forward_meta(addr: int, length: int, static: bool = False) -> WorkRequest:
    """SEND ``length`` staged bytes at ``addr`` on to the next node."""
    return WorkRequest(Opcode.SEND, [Sge(addr, length)], signaled=False,
                       static=static)


def ack(addr: int, length: int, remote_addr: int, rkey: int, imm: int,
        static: bool = False) -> WorkRequest:
    """ACK the client: WRITE_WITH_IMM ``length`` bytes at ``addr`` (a result
    map, or a shared chain's client tag) to ``remote_addr``; ``imm``
    names the slot."""
    return WorkRequest(Opcode.WRITE_WITH_IMM, [Sge(addr, length)],
                       remote_addr=remote_addr, rkey=rkey,
                       imm=imm & 0xFFFFFFFF, signaled=False, static=static)


def images(wrs: Sequence[WorkRequest]) -> bytes:
    """The owned descriptor images a RECV scatters onto placeholders."""
    return b"".join([encode_wqe(wr, owned=True) for wr in wrs])


def build_metadata(op: OpSpec, layouts: List[NodeLayout],
                   client: ClientLayout, slot: int) -> bytes:
    """Build the full metadata message the client sends to the head replica.

    The returned bytes are ``meta_len(g, 0)`` long: one four-WQE entry per
    replica (local op, forward data, forward flush, then the forwarded
    metadata or, at the tail, the ACK) followed by a zeroed result map.
    """
    group_size = len(layouts)
    if group_size == 0:
        raise ValueError("empty group")
    op.validate(group_size)
    wrs: List[WorkRequest] = []
    for hop, node in enumerate(layouts):
        next_node = layouts[hop + 1] if hop + 1 < group_size else None
        staged = node.staging_slot(slot)
        results = staged + result_offset_in_staging(group_size, hop)
        wrs += (
            local_op(op, hop, node, results + hop * 8),
            forward_data(op, node, next_node),
            forward_flush(op, next_node),
            forward_meta(staged, staging_len(group_size, hop))
            if next_node is not None else
            ack(results, result_map_len(group_size), client.ack_slot(slot),
                client.ack_rkey, slot))
    message = images(wrs) + bytes(result_map_len(group_size))
    assert len(message) == meta_len(group_size, 0)
    return message
