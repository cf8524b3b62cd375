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

The shared client-side machinery (submission pipeline, ACK table, region
accessors, abort/close) comes from :class:`~repro.backend.base.GroupBase`;
this class contributes only what is chain-specific.
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
from ..rdma.wqe import Opcode, Sge, WorkRequest
from .chain import ReplicaEngine
from .metadata import (
    ClientLayout,
    OpKind,
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
        self.replicas = [ReplicaEngine(host, self.name, hop, self.group_size,
                                       self.config)
                         for hop, host in enumerate(replica_hosts)]
        self.layouts = [replica.layout() for replica in self.replicas]
        self._build_client_side()
        self._wire_chain()
        for replica in self.replicas:
            replica.prepost(self.config.slots)
        self._post_ack_recvs(self.config.slots)
        self._init_op_state()
        self._start_client_processes()
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
        self.client_layout = ClientLayout(
            ack_addr=self.ack_buf.address, ack_rkey=self.ack_mr.rkey,
            ack_stride=self.ack_stride, slots=config.slots)

    def _wire_chain(self) -> None:
        self.qp_out.connect(self.replicas[0].qp_up)
        for prev, nxt in zip(self.replicas, self.replicas[1:]):
            prev.qp_down.connect(nxt.qp_up)
        self.replicas[-1].qp_down.connect(self.qp_ack)

    def _post_ack_recvs(self, count: int) -> None:
        self.qp_ack.post_recv_list([WorkRequest(Opcode.RECV, [], wr_id=0)],
                                   times=count)

    def _start_client_processes(self) -> None:
        self.submit_thread = self.client_host.spawn_thread(f"{self.name}.submit")
        self.ack_thread = self.client_host.spawn_thread(f"{self.name}.ackdisp")
        if self.config.client_mode == "polling":
            self.poller = self.client_host.spawn_thread(f"{self.name}.poller")
            self.poller.run_forever()
        else:
            self.poller = None
        self.sim.process(self._submitter(), name=f"{self.name}.submitter")
        self.sim.process(self._ack_dispatcher(), name=f"{self.name}.ackdisp")

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
        nic, memory = self.client_host.nic, self.client_host.memory
        nic.destroy_qp(self.qp_out)
        nic.destroy_qp(self.qp_ack)
        nic.deregister_mr(self.ack_mr)
        for allocation in (self.region, self.md_buf, self.ack_buf):
            memory.free(allocation)
        self.read_path.close()

    # ------------------------------------------------------------------
    # Client processes
    # ------------------------------------------------------------------
    def _submitter(self):
        """Builds metadata and posts work requests, one op at a time.

        Runs on the client CPU — HyperLoop removes *replica* CPUs from the
        critical path; the coordinator still spends its own cycles.
        """
        sim, config = self.sim, self.config
        while True:
            op, done, slot = yield from self._dequeue()
            tracer = self.client_host.cluster.tracer
            if tracer is not None:
                tracer.emit(sim.now, f"{self.name}.client", "op.submit",
                            op.kind.value, op_slot=slot)
            build_ns = (config.meta_build_base_ns
                        + config.meta_build_per_hop_ns * self.group_size)
            yield self.submit_thread.run(build_ns)
            message = build_metadata(op, self.layouts, self.client_layout, slot)
            md_addr = self.md_buf.address + (slot % config.slots) * self.md_stride
            self.client_host.memory.write(md_addr, message)
            head = self.layouts[0]
            posts = 1
            if op.kind is OpKind.GWRITE and op.size > 0:
                self.qp_out.post_send(WorkRequest(
                    Opcode.WRITE,
                    [Sge(self.region.address + op.offset, op.size)],
                    remote_addr=head.region_addr + op.offset,
                    rkey=head.region_rkey, signaled=False))
                posts += 1
            if op.kind is OpKind.GMEMCPY:
                # The client's own copy of the region must move too.
                self.client_host.memory.copy_within(
                    self.region.address + op.src_offset,
                    self.region.address + op.dst_offset, op.size)
            if op.durable or op.kind is OpKind.GFLUSH:
                self.qp_out.post_send(WorkRequest(
                    Opcode.READ, [Sge(0, 0)], remote_addr=head.region_addr,
                    rkey=head.region_rkey, signaled=False))
                posts += 1
            self.qp_out.post_send(WorkRequest(
                Opcode.SEND, [Sge(md_addr, len(message))],
                wr_id=slot, signaled=False))
            yield self.submit_thread.run(posts * config.post_ns)
            if tracer is not None:
                tracer.emit(sim.now, f"{self.name}.client", "op.posted",
                            op.kind.value, op_slot=slot)

    def _ack_dispatcher(self):
        """Waits for tail ACKs (WRITE_WITH_IMM) and completes operations."""
        sim, config = self.sim, self.config
        channel = self.ack_cq.channel
        while True:
            self.ack_cq.req_notify()
            yield channel.wait()
            if self.poller is not None:
                # Poll mode: the completion is observed while the dedicated
                # poller owns a core; only the CQ-read cost is paid.
                yield self.poller.when_running()
                yield config.poll_overhead_ns  # bare-delay fast path
            else:
                # Event mode: the dispatcher thread must get scheduled.
                yield self.ack_thread.run(config.event_wakeup_service_ns)
            for wc in self.ack_cq.poll(64):
                if not wc.has_imm:
                    continue
                slot = wc.imm
                done = self._pop_acked(slot)
                self._release_window_waiters()
                if done is None or done.triggered:
                    continue
                ack_addr = (self.ack_buf.address
                            + (slot % config.slots) * self.ack_stride)
                result_map = self.client_host.memory.read(
                    ack_addr, self.ack_stride)
                tracer = self.client_host.cluster.tracer
                if tracer is not None:
                    tracer.emit(sim.now, f"{self.name}.client", "op.acked",
                                op_slot=slot)
                self._finish(done, slot, result_map)
