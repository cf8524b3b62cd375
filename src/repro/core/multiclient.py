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
  buffer, whose :func:`~repro.backend.base.ack_loop` routes it to the
  right client by that tag;
* per-client flow control: each client is a
  :class:`~repro.backend.base.GroupBase` whose window (its ``slots``) is
  its quota, ``slots // max_clients``, so the shared pipeline can never
  overrun.

Scope: gWRITE, gMEMCPY and gFLUSH — what
:attr:`SharedChainClient.primitives` declares; gCAS and one-sided READ
raise NotImplementedError.  gCAS is single-client by design here — its
result map needs slot-relative scatter addresses that a multi-client
submitter cannot compute (use a per-client group, or route locks through
one lock-owner client).

Replica CPUs still do exactly zero data-path work.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import List, Optional, Sequence, Tuple

from ..backend.base import GroupBase, ack_loop, check_replicas, open_ack_hub, release
from ..host import Host
from ..rdma.verbs import WorkCompletion
from ..rdma.wqe import WQE_SIZE, WorkRequest
from .chain import ReplicaEngine, Ring, Wiring, wire_chain
from .group import GroupConfig
from .metadata import (
    OpKind,
    OpSpec,
    ack,
    forward_data,
    forward_flush,
    forward_meta,
    images,
    local_op,
)

__all__ = ["SharedChain", "SharedChainClient"]

_ENTRY_SIZE = 3 * WQE_SIZE   # Local op, forward data, forward flush.
_TAG = struct.Struct("<II")  # client_id u32, client_op u32
TAG_SIZE = 16                # Padded for alignment.


def _staging_len(group_size: int, hop: int) -> int:
    """What replica ``hop`` stages and forwards: the downstream entries and
    the tag (at the tail, the tag alone)."""
    return (group_size - 1 - hop) * _ENTRY_SIZE + TAG_SIZE


def _wiring(chain: "SharedChain", hop: int) -> Wiring:
    """Replica ``hop``: the chain's local op and ``down`` ring, but the
    forwarded metadata (or the tail's ACK) is a static descriptor per slot,
    since a slot-oblivious client cannot patch it; the head receives
    through the SRQ every client's QP shares."""
    length = _staging_len(chain.group_size, hop)
    if hop == chain.group_size - 1:
        def static(slot: int, staged: int) -> WorkRequest:
            return ack(staged, TAG_SIZE, chain.ack_slot_addr(slot),
                       chain.ack_mr.rkey, slot, static=True)
    else:
        def static(slot: int, staged: int) -> WorkRequest:
            return forward_meta(staged, length, static=True)
    return Wiring(
        rings=(Ring("down", 2, static),),
        scatter=(("local", 0, WQE_SIZE), ("down", 0, WQE_SIZE),
                 ("down", WQE_SIZE, WQE_SIZE), ("staging", 0, length)),
        staging=length, out="down", srq=hop == 0)


class SharedChain:
    """One replication chain shared by several independent clients."""

    #: Inclusive replica-count bounds, checked by
    #: :func:`~repro.backend.base.check_replicas`.
    min_replicas = 1
    max_replicas = None

    def __init__(self, owner_host: Host, replica_hosts: Sequence[Host],
                 config: Optional[GroupConfig] = None, name: str = "",
                 max_clients: int = 8):
        check_replicas(SharedChain, len(replica_hosts))
        if max_clients < 1:
            raise ValueError("max_clients must be positive")
        self.config = config or GroupConfig()
        if self.config.slots < max_clients:
            raise ValueError("need at least one slot per client")
        self.name = name or owner_host.cluster.next_name("shared")
        self.owner_host = owner_host
        self.sim = owner_host.sim
        self.group_size = len(replica_hosts)
        self.max_clients = max_clients
        self.replicas = [ReplicaEngine(host, f"{self.name}.r{hop}",
                                       self.config, _wiring(self, hop))
                         for hop, host in enumerate(replica_hosts)]
        self.layouts = [replica.layout() for replica in self.replicas]
        open_ack_hub(self, owner_host, TAG_SIZE, ["ackqp"])
        # The ACK hub is event-driven: no poller, one wakeup per batch.
        self.ack_thread = owner_host.spawn_thread(f"{self.name}.ackhub")
        self.poller = None
        self._ack_wake_ns = self.config.event_wakeup_service_ns
        wire_chain(self.replicas, self.ack_qps[0])
        for replica in self.replicas:
            replica.arm()
        self.clients: List["SharedChainClient"] = []
        self._closed = False
        self.sim.process(ack_loop(self), name=f"{self.name}.ack")

    def ack_slot_addr(self, slot: int) -> int:
        return self.ack_buf.address + (slot % self.config.slots) * TAG_SIZE

    def close(self) -> None:
        """Tear the chain down: close every client, then every replica
        host and the owner release what carries the chain's name."""
        if self._closed:
            return
        self._closed = True
        for client in self.clients:
            client.close()
        release(self.name, [*(replica.host for replica in self.replicas),
                            self.owner_host])

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
    def _route(self, wc: WorkCompletion
               ) -> Optional[Tuple["SharedChainClient", int]]:
        """The tag the tail carried names the owning client and its op."""
        client_id, client_op = _TAG.unpack(self.owner_host.memory.read(
            self.ack_slot_addr(wc.imm), _TAG.size))
        if client_id >= len(self.clients):
            return None
        return self.clients[client_id], client_op


class SharedChainClient(GroupBase):
    """One client's handle onto a shared chain.

    A :class:`~repro.backend.base.GroupBase` whose window is its quota:
    ``config`` is the chain's with ``slots = slots // max_clients``, so
    the inherited submit loop never holds more than this client's share
    of the shared pipeline.  Its slots are client-local op ids; the ACK
    hub routes each ACK back by the tag at the end of the metadata.
    """

    #: No gCAS (its result map needs slot-relative scatter addresses a
    #: slot-oblivious client cannot compute) and no read path.
    primitives = frozenset({OpKind.GWRITE, OpKind.GMEMCPY, OpKind.GFLUSH})

    def __init__(self, chain: SharedChain, host: Host, client_id: int):
        self.quota = chain.config.slots // chain.max_clients
        super().__init__(host, [node.host for node in chain.replicas],
                         dataclasses.replace(chain.config, slots=self.quota),
                         f"{chain.name}.c{client_id}")
        self.chain = chain
        self.client_id = client_id
        self.replicas = chain.replicas
        config = self.config
        self._build_ns = (config.meta_build_base_ns
                          + config.meta_build_per_hop_ns * self.group_size)
        memory, nic = host.memory, host.nic
        # The client's local copy of (the parts it writes of) the region.
        self.region = memory.allocate(config.region_size,
                                      f"{self.name}.region")
        self.md_stride = _ENTRY_SIZE + _staging_len(chain.group_size, 0)
        self.md_buf = memory.allocate(self.md_stride * self.quota,
                                      f"{self.name}.md")
        self.out_cq = nic.create_cq(name=f"{self.name}.outcq")
        head = chain.replicas[0]
        self.qp_out = nic.create_qp(self.out_cq, self.out_cq,
                                    sq_slots=4 * self.quota, rq_slots=8,
                                    name=f"{self.name}.out")
        self.qp_in = head.host.nic.create_qp(
            head.cqs["down"], head.cqs["up"], sq_slots=8,
            name=f"{self.name}.in", srq=head.rq)
        self.qp_out.connect(self.qp_in)
        self.submit_thread = host.spawn_thread(f"{self.name}.submit")
        self.sim.process(self._submitter(), name=f"{self.name}.submitter")

    @property
    def host(self) -> Host:
        return self.client_host

    def _result_map(self, slot: int) -> bytes:
        # gCAS is out of scope, so there is no result map to read.
        return b""

    # ------------------------------------------------------------------
    # Metadata: slot-independent images only
    # ------------------------------------------------------------------
    def _metadata(self, op: OpSpec, slot: int) -> bytes:
        layouts = self.chain.layouts
        wrs: List[WorkRequest] = []
        for hop, (node, next_node) in enumerate(
                zip(layouts, [*layouts[1:], None])):
            # gCAS is out of scope, so no local op has a result to land.
            wrs += (local_op(op, hop, node, 0),
                    forward_data(op, node, next_node),
                    forward_flush(op, next_node))
        tag = _TAG.pack(self.client_id, slot & 0xFFFFFFFF)
        return images(wrs) + tag.ljust(TAG_SIZE, b"\0")
