"""Multi-client chains via shared receive queues (§5's future work).

The paper's case-study client is "a single multi-threaded process", with a
pointer to the generalization: "Multiple clients can be supported in the
future using shared receive queues on the first replica in the chain."
This module builds that design:

* the head replica's upstream RECVs live in an **SRQ**; each client gets
  its own QP into it, and the shared FIFO assigns arriving operations to
  pre-posted slots in arrival order — no coordination between clients;
* because a client cannot know which global slot its op will take, the
  patch entries carry only **slot-independent** descriptor images (local
  op, forward-data, forward-flush; 3 × WQE per hop), while the
  forward-metadata SENDs and the tail ACK are **pre-posted statically**
  with per-slot staging addresses;
* ACK routing without per-client tail QPs: the client appends a 16-byte
  ``(client_id, client_op)`` tag to its metadata; the scatter leaves it in
  the tail's staging slot, and the static tail ACK (WRITE_WITH_IMM, imm =
  global slot) carries exactly those bytes to the **owner host's** ACK
  buffer, whose dispatcher wakes the right client;
* per-client flow control: each client is a
  :class:`~repro.backend.base.GroupBase` whose window (its ``slots``) is
  its quota, ``slots // max_clients``, so the shared pipeline can never
  overrun.

Scope: gWRITE, gMEMCPY and gFLUSH.  gCAS is single-client by design here —
its result map needs slot-relative scatter addresses that a multi-client
submitter cannot compute (use a per-client group, or route locks through
one lock-owner client).

Replica CPUs still do exactly zero data-path work.
"""

from __future__ import annotations

import dataclasses
import itertools
import struct
from typing import List, Optional, Sequence

from ..backend.base import GroupBase
from ..host import Host
from ..rdma.verbs import Access
from ..rdma.wqe import WQE_SIZE, Opcode, Sge, WorkRequest, encode_wqe
from ..sim.engine import Event
from .chain import prepost_gated
from .group import GroupConfig
from .metadata import OpKind, OpSpec

__all__ = ["SharedChain", "SharedChainClient"]

_ENTRY_WQES = 3
_ENTRY_SIZE = _ENTRY_WQES * WQE_SIZE
_TAG = struct.Struct("<II")  # client_id u32, client_op u32
TAG_SIZE = 16                # Padded for alignment.


def _meta_len(group_size: int, hop: int) -> int:
    return (group_size - hop) * _ENTRY_SIZE + TAG_SIZE


class _SharedReplica:
    """One replica of a shared chain: slot machine with static forwards."""

    def __init__(self, host: Host, chain: "SharedChain", hop: int):
        self.host = host
        self.chain = chain
        self.hop = hop
        config = chain.config
        memory, nic = host.memory, host.nic
        self.name = f"{chain.name}.r{hop}"
        self.region = memory.allocate(config.region_size, f"{self.name}.region")
        self.region_mr = nic.register_mr(
            self.region.address, self.region.size,
            Access.LOCAL_WRITE | Access.REMOTE_WRITE | Access.REMOTE_READ
            | Access.REMOTE_ATOMIC, name=f"{self.name}.region")
        self.is_tail = hop == chain.group_size - 1
        self.staging_stride = max(
            TAG_SIZE, _meta_len(chain.group_size, hop + 1)
            if not self.is_tail else TAG_SIZE)
        self.staging = memory.allocate(self.staging_stride * config.slots,
                                       f"{self.name}.staging")
        self.up_cq = nic.create_cq(name=f"{self.name}.upcq")
        self.local_cq = nic.create_cq(name=f"{self.name}.localcq")
        self.down_cq = nic.create_cq(name=f"{self.name}.downcq")
        if hop == 0:
            # The head consumes client SENDs from a shared receive queue.
            self.srq = nic.create_srq(slots=config.slots,
                                      name=f"{self.name}.srq")
            self.srq.cyclic = True
            self.qp_up = None
        else:
            self.srq = None
            self.qp_up = nic.create_qp(self.down_cq, self.up_cq, sq_slots=8,
                                       rq_slots=config.slots,
                                       name=f"{self.name}.up")
            self.qp_up.rq.cyclic = True
        self.qp_local = nic.create_qp(self.local_cq, self.local_cq,
                                      sq_slots=2 * config.slots, rq_slots=8,
                                      name=f"{self.name}.local")
        self.qp_local.connect(self.qp_local)
        self.qp_local.sq.cyclic = True
        self.qp_down = nic.create_qp(self.down_cq, self.down_cq,
                                     sq_slots=4 * config.slots, rq_slots=8,
                                     name=f"{self.name}.down")
        self.qp_down.sq.cyclic = True
        self.posted_slots = 0

    def staging_slot(self, slot: int) -> int:
        return self.staging.address \
            + (slot % self.chain.config.slots) * self.staging_stride

    def prepost(self, count: int) -> None:
        """Pre-post the next ``count`` slots: one list post per ring."""
        chain = self.chain
        slots = range(self.posted_slots, self.posted_slots + count)
        placeholder = WorkRequest(Opcode.NOP, signaled=False)
        local = prepost_gated(self.qp_local, self.up_cq, 1, count)
        wait = WorkRequest(Opcode.WAIT, wait_cq=self.local_cq.cq_id,
                           wait_count=0, signaled=False)
        down_wrs = []
        for slot in slots:
            # The metadata forward / tail ACK is STATIC: fully pre-posted
            # and owned, so it needs nothing from the (slot-oblivious)
            # client.
            if self.is_tail:
                static = WorkRequest(
                    Opcode.WRITE_WITH_IMM,
                    [Sge(self.staging_slot(slot), TAG_SIZE)],
                    remote_addr=chain.ack_slot_addr(slot),
                    rkey=chain.ack_mr.rkey,
                    imm=slot % chain.config.slots, signaled=False,
                    static=True)
            else:
                static = WorkRequest(
                    Opcode.SEND,
                    [Sge(self.staging_slot(slot),
                         _meta_len(chain.group_size, self.hop + 1))],
                    signaled=False, static=True)
            down_wrs += [wait, placeholder, placeholder, static]
        down = self.qp_down.post_send_list(
            down_wrs, [True, False, False, True] * count)
        local_sq, down_sq = self.qp_local.sq, self.qp_down.sq
        recvs = [WorkRequest(Opcode.RECV, [
            Sge(local_sq.slot_address(local + 2 * k + 1), WQE_SIZE),
            Sge(down_sq.slot_address(down + 4 * k + 1), WQE_SIZE),
            Sge(down_sq.slot_address(down + 4 * k + 2), WQE_SIZE),
            Sge(self.staging_slot(slot),
                _meta_len(chain.group_size, self.hop) - _ENTRY_SIZE),
        ], wr_id=slot) for k, slot in enumerate(slots)]
        receive_queue = self.srq if self.srq is not None else self.qp_up.rq
        receive_queue.post_list(recvs, [True] * count)
        self.posted_slots += count


class SharedChain:
    """One replication chain shared by several independent clients."""

    _ids = itertools.count()

    def __init__(self, owner_host: Host, replica_hosts: Sequence[Host],
                 config: Optional[GroupConfig] = None, name: str = "",
                 max_clients: int = 8):
        if not replica_hosts:
            raise ValueError("a chain needs at least one replica")
        if max_clients < 1:
            raise ValueError("max_clients must be positive")
        self.config = config or GroupConfig()
        if self.config.slots < max_clients:
            raise ValueError("need at least one slot per client")
        self.name = name or f"shared{next(SharedChain._ids)}"
        self.owner_host = owner_host
        self.sim = owner_host.sim
        self.group_size = len(replica_hosts)
        self.max_clients = max_clients
        self.replicas = [_SharedReplica(host, self, hop)
                         for hop, host in enumerate(replica_hosts)]
        self._build_owner_side()
        self._wire_chain()
        for replica in self.replicas:
            replica.prepost(self.config.slots)
        self.clients: List["SharedChainClient"] = []
        self.sim.process(self._ack_dispatcher(), name=f"{self.name}.ackdisp")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_owner_side(self) -> None:
        config = self.config
        memory, nic = self.owner_host.memory, self.owner_host.nic
        self.ack_buf = memory.allocate(TAG_SIZE * config.slots,
                                       f"{self.name}.ack")
        self.ack_mr = nic.register_mr(
            self.ack_buf.address, self.ack_buf.size,
            Access.LOCAL_WRITE | Access.REMOTE_WRITE,
            name=f"{self.name}.ackmr")
        self.ack_cq = nic.create_cq(with_channel=True,
                                    name=f"{self.name}.ackcq")
        self.qp_ack = nic.create_qp(self.ack_cq, self.ack_cq, sq_slots=8,
                                    rq_slots=config.slots,
                                    name=f"{self.name}.ackqp")
        self.qp_ack.rq.cyclic = True
        self.qp_ack.post_recv_list([WorkRequest(Opcode.RECV, [], wr_id=0)],
                                   times=config.slots)
        self.ack_thread = self.owner_host.spawn_thread(f"{self.name}.ackhub")

    def _wire_chain(self) -> None:
        for prev, nxt in zip(self.replicas, self.replicas[1:]):
            prev.qp_down.connect(nxt.qp_up)
        self.replicas[-1].qp_down.connect(self.qp_ack)

    def ack_slot_addr(self, slot: int) -> int:
        return self.ack_buf.address + (slot % self.config.slots) * TAG_SIZE

    def attach_client(self, client_host: Host) -> "SharedChainClient":
        """Register a client: a fresh QP into the head replica's SRQ."""
        if len(self.clients) >= self.max_clients:
            raise RuntimeError(f"{self.name}: client limit reached")
        client = SharedChainClient(self, client_host, len(self.clients))
        self.clients.append(client)
        return client

    # ------------------------------------------------------------------
    # ACK hub (owner-side routing; client CPUs, never replica CPUs)
    # ------------------------------------------------------------------
    def _ack_dispatcher(self):
        channel = self.ack_cq.channel
        while True:
            self.ack_cq.req_notify()
            yield channel.wait()
            yield self.ack_thread.run(self.config.event_wakeup_service_ns)
            for wc in self.ack_cq.poll(64):
                if not wc.has_imm:
                    continue
                tag = self.owner_host.memory.read(
                    self.ack_slot_addr(wc.imm), _TAG.size)
                client_id, client_op = _TAG.unpack(tag)
                if client_id >= len(self.clients):
                    continue
                client = self.clients[client_id]
                done = client._pop_acked(client_op)
                client._release_window_waiters()
                if done is not None and not done.triggered:
                    client._finish(done, client_op, b"")


class SharedChainClient(GroupBase):
    """One client's handle onto a shared chain.

    A :class:`~repro.backend.base.GroupBase` whose window is its quota:
    ``config`` is the chain's with ``slots = slots // max_clients``, so
    the inherited submit loop never holds more than this client's share
    of the shared pipeline.  Its slots are client-local op ids; the ACK
    hub routes each ACK back by the tag at the end of the metadata.
    """

    def __init__(self, chain: SharedChain, host: Host, client_id: int):
        self.chain = chain
        self.client_host = host
        self.client_id = client_id
        self.sim = chain.sim
        self.name = f"{chain.name}.c{client_id}"
        self.group_size = chain.group_size
        self.replicas = chain.replicas
        self.quota = chain.config.slots // chain.max_clients
        config = self.config = dataclasses.replace(chain.config,
                                                   slots=self.quota)
        self._build_ns = (config.meta_build_base_ns
                          + config.meta_build_per_hop_ns * self.group_size)
        memory, nic = host.memory, host.nic
        # The client's local copy of (the parts it writes of) the region.
        self.region = memory.allocate(config.region_size,
                                      f"{self.name}.region")
        self.md_stride = _meta_len(chain.group_size, 0)
        self.md_buf = memory.allocate(self.md_stride * self.quota,
                                      f"{self.name}.md")
        self.out_cq = nic.create_cq(name=f"{self.name}.outcq")
        head = chain.replicas[0]
        self.qp_out = nic.create_qp(self.out_cq, self.out_cq,
                                    sq_slots=4 * self.quota, rq_slots=8,
                                    name=f"{self.name}.out")
        remote = head.host.nic.create_qp(
            head.down_cq, head.up_cq, sq_slots=8, name=f"{self.name}.in",
            srq=head.srq)
        self.qp_out.connect(remote)
        self.submit_thread = host.spawn_thread(f"{self.name}.submit")
        self._init_op_state()
        self.sim.process(self._submitter(), name=f"{self.name}.submitter")

    @property
    def host(self) -> Host:
        return self.client_host

    def submit(self, op: OpSpec) -> Event:
        if op.kind is OpKind.GCAS:
            raise NotImplementedError(
                "gCAS needs slot-relative result scatter; use a dedicated "
                "single-client group for locking (see module docstring)")
        return super().submit(op)

    # ------------------------------------------------------------------
    # Metadata: slot-independent images only
    # ------------------------------------------------------------------
    def _image(self, op: OpSpec, hop: int) -> bytes:
        chain = self.chain
        node = chain.replicas[hop]
        next_node = chain.replicas[hop + 1] \
            if hop + 1 < chain.group_size else None
        if op.kind is OpKind.GMEMCPY:
            local = WorkRequest(
                Opcode.WRITE,
                [Sge(node.region.address + op.src_offset, op.size)],
                remote_addr=node.region.address + op.dst_offset,
                rkey=node.region_mr.rkey, signaled=True)
        else:
            local = WorkRequest(Opcode.NOP, signaled=True)
        fd = WorkRequest(Opcode.NOP, signaled=False)
        if next_node is not None and op.kind is OpKind.GWRITE and op.size:
            fd = WorkRequest(
                Opcode.WRITE,
                [Sge(node.region.address + op.offset, op.size)],
                remote_addr=next_node.region.address + op.offset,
                rkey=next_node.region_mr.rkey, signaled=False)
        ff = WorkRequest(Opcode.NOP, signaled=False)
        if next_node is not None and (op.durable
                                      or op.kind is OpKind.GFLUSH):
            ff = WorkRequest(Opcode.READ, [Sge(0, 0)],
                             remote_addr=next_node.region.address,
                             rkey=next_node.region_mr.rkey, signaled=False)
        return b"".join((encode_wqe(local, owned=True),
                         encode_wqe(fd, owned=True),
                         encode_wqe(ff, owned=True)))

    def _metadata(self, op: OpSpec, slot: int) -> bytes:
        parts = [self._image(op, hop)
                 for hop in range(self.chain.group_size)]
        tag = _TAG.pack(self.client_id, slot & 0xFFFFFFFF)
        parts.append(tag.ljust(TAG_SIZE, b"\0"))
        return b"".join(parts)
