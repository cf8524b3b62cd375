"""HyperLoop group construction and the NIC-offloaded data path.

A HyperLoop group (Figure 3) is a chain::

    client ──▶ replica 0 ──▶ replica 1 ──▶ … ──▶ replica g-1 ──▶ client (ACK)

The replica-side half of the chain — memory carve-outs, the three QPs per
replica, and the pre-posted cyclic WQE pattern — lives in
:class:`~repro.core.chain.ReplicaEngine`.  This module holds the
client-side handle: :class:`HyperLoopGroup` builds the chain once, then
turns each submitted :class:`~repro.backend.ops.OpSpec` into one metadata
SEND (plus payload WRITE / flush READ) so the replicas' NICs execute the
whole operation without touching their CPUs.

The shared client-side machinery (the submit loop, submission pipeline,
ACK table, region accessors, abort/close) comes from
:class:`~repro.backend.base.GroupBase`; this class contributes only what
is chain-specific: the metadata message.  Completions run through the
shared :func:`~repro.backend.base.ack_loop`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from ..backend.api import OpResult
from ..backend.base import GroupBase
from ..backend.registry import register
from ..host import Host
from ..rdma.verbs import Access
from ..rdma.wqe import Opcode, WorkRequest
from .chain import ReplicaEngine
from .metadata import (
    ClientLayout,
    OpSpec,
    build_metadata,
    meta_len,
    result_map_len,
)
from .readpath import ClientReadPath

__all__ = ["GroupConfig", "ReplicaEngine", "HyperLoopGroup", "OpResult"]


@dataclass
class GroupConfig:
    """Tunables for one HyperLoop group."""

    region_size: int = 16 << 20      # Replicated region (log + db + locks).
    slots: int = 512                 # Pipeline depth S (max ops in flight).
    client_mode: str = "polling"     # "polling" | "event" ACK detection.
    meta_build_base_ns: int = 300    # Client CPU: metadata construction.
    meta_build_per_hop_ns: int = 120
    post_ns: int = 100               # Client CPU per posted work request.
    poll_overhead_ns: int = 150      # Poll-mode CQ check cost.
    event_wakeup_service_ns: int = 1000  # Event-mode post-wakeup handling.


@register("hyperloop", config_cls=GroupConfig,
          description="NIC-offloaded chain replication (the paper's design)")
class HyperLoopGroup(GroupBase):
    """Client-side handle: build the chain once, then issue group ops.

    This is the "HyperLoop network primitive library" of Figure 3 — storage
    applications call :meth:`gwrite`, :meth:`gcas`, :meth:`gmemcpy` and
    :meth:`gflush` (Table 1) and wait on the returned events.
    """

    _ids = itertools.count()

    def __init__(self, client_host: Host, replica_hosts: Sequence[Host],
                 config: Optional[GroupConfig] = None, name: str = ""):
        if not replica_hosts:
            raise ValueError("a group needs at least one replica")
        self.config = config or GroupConfig()
        self.name = name or f"group{next(HyperLoopGroup._ids)}"
        self.client_host = client_host
        self.sim = client_host.sim
        self.group_size = len(replica_hosts)
        self._build_ns = (self.config.meta_build_base_ns
                          + self.config.meta_build_per_hop_ns * self.group_size)
        self.replicas = [ReplicaEngine(host, self.name, hop, self.group_size,
                                       self.config)
                         for hop, host in enumerate(replica_hosts)]
        self.layouts = [replica.layout() for replica in self.replicas]
        self._build_client_side()
        self._wire_chain()
        for replica in self.replicas:
            replica.prepost(self.config.slots)
        self._init_op_state()
        self._start_client(self.config.client_mode == "polling",
                           self.config.event_wakeup_service_ns)
        self.read_path = ClientReadPath(client_host, self.replicas, self.name)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_client_side(self) -> None:
        config, memory, nic = self.config, self.client_host.memory, \
            self.client_host.nic
        g = self.group_size
        self.region = memory.allocate(config.region_size, f"{self.name}.cregion")
        self.md_stride = meta_len(g, 0)
        self.md_buf = memory.allocate(self.md_stride * config.slots,
                                      f"{self.name}.md")
        self.ack_stride = result_map_len(g)
        self.ack_buf = memory.allocate(self.ack_stride * config.slots,
                                       f"{self.name}.ack")
        self.ack_mr = nic.register_mr(
            self.ack_buf.address, self.ack_buf.size,
            Access.LOCAL_WRITE | Access.REMOTE_WRITE, name=f"{self.name}.ackmr")
        self.out_cq = nic.create_cq(name=f"{self.name}.outcq")
        self.ack_cq = nic.create_cq(with_channel=True, name=f"{self.name}.ackcq")
        self.qp_out = nic.create_qp(self.out_cq, self.out_cq,
                                    sq_slots=4 * config.slots + 16, rq_slots=8,
                                    name=f"{self.name}.out")
        self.qp_ack = nic.create_qp(self.ack_cq, self.ack_cq, sq_slots=8,
                                    rq_slots=config.slots,
                                    name=f"{self.name}.ackqp")
        # ACK RECVs are cyclic too: posted once, re-armed by the NIC.
        self.qp_ack.rq.cyclic = True
        self.qp_ack.post_recv_list([WorkRequest(Opcode.RECV, [], wr_id=0)],
                                   times=config.slots)
        self.client_layout = ClientLayout(
            ack_addr=self.ack_buf.address, ack_rkey=self.ack_mr.rkey,
            ack_stride=self.ack_stride, slots=config.slots)

    def _wire_chain(self) -> None:
        self.qp_out.connect(self.replicas[0].qp_up)
        for prev, nxt in zip(self.replicas, self.replicas[1:]):
            prev.qp_down.connect(nxt.qp_up)
        self.replicas[-1].qp_down.connect(self.qp_ack)

    def close(self) -> None:
        """Tear the whole group down and return every carved resource.

        Pending operations fail with a RuntimeError; the client region and
        buffers are zeroed and reusable (recovery rebuilds call this on
        the superseded group after copying its state out).
        """
        if not self._begin_close():
            return
        for replica in self.replicas:
            replica.close()
        self._close_client([self.qp_ack])

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    def _metadata(self, op: OpSpec, slot: int) -> bytes:
        return build_metadata(op, self.layouts, self.client_layout, slot)
