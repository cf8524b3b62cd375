"""Fan-out replication offloaded to the primary's NIC (§7 extension).

The paper argues its primitives generalize beyond chain replication: "if a
storage application has to rely on a fan-out replication (a single primary
coordinates with multiple backups) such as in FaRM, HyperLoop can be used
to help the client offload the coordination between the primary and
backups from the primary's CPU to the primary's NIC."  This module builds
exactly that:

* the client sends one data WRITE plus one metadata SEND to the
  **primary**;
* the primary's NIC — via the same WAIT + remote-WQE-manipulation
  machinery as the chain — executes its local op and then *fans out* a
  data WRITE + metadata SEND to every backup in parallel;
* every replica (primary and backups) ACKs the **client directly** with a
  WRITE_WITH_IMM carrying its 8-byte result; the client completes the
  operation when all ``g`` ACKs arrived.

No replica CPU runs on the path, including the primary's.

The per-node engines (QPs, cyclic pre-posted slot patterns, the MAX_SGE
fan-out-width bound) live in :mod:`repro.core.fanout_nodes`; this module
holds the client-side handle.

Trade-off vs the chain (the paper's §7 load-balancing point, checked by the
``fanout.*`` rows of :mod:`repro.experiments.claims`): fan-out has fewer
sequential hops, but the primary's egress port serializes ``backups``
copies of every payload, while the chain spreads transmission across all
nodes.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Sequence

from ..backend.base import GroupBase
from ..backend.registry import register
from ..host import Host
from ..rdma.verbs import Access
from ..rdma.wqe import MAX_SGE, WQE_SIZE, Opcode, Sge, WorkRequest, encode_wqe
from .fanout_nodes import (
    _BACKUP_MSG_SIZE,
    _FanoutBackup,
    _FanoutPrimary,
    _PRIMARY_BLOCK_WQES,
)
from .group import GroupConfig
from .metadata import OpKind, OpSpec
from .readpath import ClientReadPath

__all__ = ["FanoutGroup"]

_MAX_REPLICAS = 1 + (MAX_SGE - 2) // 2


@register("fanout", config_cls=GroupConfig,
          description="NIC-offloaded primary/backup fan-out (§7 extension)",
          min_replicas=2, max_replicas=_MAX_REPLICAS)
class FanoutGroup(GroupBase):
    """FaRM-style fan-out replication with the coordination NIC-offloaded.

    Fully API-compatible with :class:`HyperLoopGroup` — gWRITE/gCAS (with
    execute maps)/gMEMCPY/gFLUSH, remote reads, abort — so the entire §5
    storage stack runs over fan-out unchanged.  Limited to 2 backups by
    the scatter-gather budget — see :mod:`repro.core.fanout_nodes`.
    """

    _ids = itertools.count()

    def __init__(self, client_host: Host, replica_hosts: Sequence[Host],
                 config: Optional[GroupConfig] = None, name: str = ""):
        if not 2 <= len(replica_hosts) <= _MAX_REPLICAS:
            raise ValueError(
                "fan-out groups support 2..3 replicas (primary + <=2 "
                "backups) with the current MAX_SGE")
        self.config = config or GroupConfig()
        self.name = name or f"fanout{next(FanoutGroup._ids)}"
        self.client_host = client_host
        self.sim = client_host.sim
        self.group_size = len(replica_hosts)
        self._build_ns = (self.config.meta_build_base_ns
                          + self.config.meta_build_per_hop_ns * self.group_size)
        self.backup_count = self.group_size - 1
        self.primary = _FanoutPrimary(replica_hosts[0], self)
        self.backups = [_FanoutBackup(host, self, i)
                        for i, host in enumerate(replica_hosts[1:])]
        self._build_client_side()
        self._wire()
        self.primary.prepost(self.config.slots)
        for backup in self.backups:
            backup.prepost(self.config.slots)
        self._init_op_state()
        self._ack_counts: Dict[int, int] = {}
        self.sim.process(self._submitter(), name=f"{self.name}.submitter")
        self.sim.process(self._ack_dispatcher(), name=f"{self.name}.ackdisp")
        self.read_path = ClientReadPath(client_host, self.replicas,
                                        self.name)

    @property
    def replicas(self):
        """All member nodes, primary first (chain-API parity)."""
        return [self.primary] + list(self.backups)

    def close(self) -> None:
        """Tear the group down and return every carved resource."""
        if not self._begin_close():
            return
        primary = self.primary
        nic, memory = primary.host.nic, primary.host.memory
        for qp in ([primary.qp_up, primary.qp_local, primary.qp_ack]
                   + primary.qp_backups):
            nic.destroy_qp(qp)
        nic.deregister_mr(primary.region_mr)
        memory.free(primary.region)
        memory.free(primary.staging)
        for backup in self.backups:
            nic, memory = backup.host.nic, backup.host.memory
            for qp in (backup.qp_up, backup.qp_local, backup.qp_ack):
                nic.destroy_qp(qp)
            nic.deregister_mr(backup.region_mr)
            memory.free(backup.region)
        nic, memory = self.client_host.nic, self.client_host.memory
        nic.destroy_qp(self.qp_out)
        for qp in self.ack_qps:
            nic.destroy_qp(qp)
        nic.deregister_mr(self.ack_mr)
        for allocation in (self.region, self.md_buf, self.ack_buf):
            memory.free(allocation)
        self.read_path.close()

    def abort_in_flight(self, reason: Exception) -> int:
        """Fail every unacknowledged operation (failure detected)."""
        aborted = super().abort_in_flight(reason)
        self._ack_counts.clear()
        return aborted

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_client_side(self) -> None:
        config, memory, nic = self.config, self.client_host.memory, \
            self.client_host.nic
        self.region = memory.allocate(config.region_size,
                                      f"{self.name}.cregion")
        self.md_stride = ((1 + _PRIMARY_BLOCK_WQES * self.backup_count)
                          * WQE_SIZE
                          + WQE_SIZE  # Primary ACK descriptor.
                          + _BACKUP_MSG_SIZE * self.backup_count)
        self.md_buf = memory.allocate(self.md_stride * config.slots,
                                      f"{self.name}.md")
        self.ack_stride = 8 * self.group_size
        self.ack_buf = memory.allocate(self.ack_stride * config.slots,
                                       f"{self.name}.ack")
        self.ack_mr = nic.register_mr(
            self.ack_buf.address, self.ack_buf.size,
            Access.LOCAL_WRITE | Access.REMOTE_WRITE,
            name=f"{self.name}.ackmr")
        self.out_cq = nic.create_cq(name=f"{self.name}.outcq")
        self.ack_cq = nic.create_cq(with_channel=True,
                                    name=f"{self.name}.ackcq")
        self.qp_out = nic.create_qp(self.out_cq, self.out_cq,
                                    sq_slots=4 * config.slots, rq_slots=8,
                                    name=f"{self.name}.out")
        # One inbound ACK QP per replica, all feeding one CQ.
        self.ack_qps = [
            nic.create_qp(self.ack_cq, self.ack_cq, sq_slots=8,
                          rq_slots=config.slots,
                          name=f"{self.name}.ackin{i}")
            for i in range(self.group_size)]
        for qp in self.ack_qps:
            qp.rq.cyclic = True
            qp.post_recv_list([WorkRequest(Opcode.RECV, [], wr_id=0)],
                              times=self.config.slots)
        self.submit_thread = self.client_host.spawn_thread(
            f"{self.name}.submit")
        self.poller = self.client_host.spawn_thread(f"{self.name}.poller")
        self.poller.run_forever()

    def _wire(self) -> None:
        self.qp_out.connect(self.primary.qp_up)
        self.primary.qp_ack.connect(self.ack_qps[0])
        for i, backup in enumerate(self.backups):
            self.primary.qp_backups[i].connect(backup.qp_up)
            backup.qp_ack.connect(self.ack_qps[1 + i])

    # ------------------------------------------------------------------
    # Metadata construction
    # ------------------------------------------------------------------
    def ack_slot_addr(self, slot: int, hop: int) -> int:
        return (self.ack_buf.address
                + (slot % self.config.slots) * self.ack_stride + hop * 8)

    def _local_op_image(self, op: OpSpec, region_addr: int, region_rkey: int,
                        result_addr: int, execute: bool = True) -> bytes:
        if op.kind is OpKind.GCAS and not execute:
            # Selective execution (§4.2): a signaled NOP keeps the ACK
            # chain ticking without touching the lock word.
            return encode_wqe(WorkRequest(Opcode.NOP, signaled=True),
                              owned=True)
        if op.kind is OpKind.GMEMCPY:
            wr = WorkRequest(Opcode.WRITE,
                             [Sge(region_addr + op.src_offset, op.size)],
                             remote_addr=region_addr + op.dst_offset,
                             rkey=region_rkey, signaled=True)
        elif op.kind is OpKind.GCAS:
            wr = WorkRequest(Opcode.CAS, [Sge(result_addr, 8)],
                             remote_addr=region_addr + op.offset,
                             rkey=region_rkey, compare=op.old_value,
                             swap=op.new_value, signaled=True)
        else:
            wr = WorkRequest(Opcode.NOP, signaled=True)
        return encode_wqe(wr, owned=True)

    def _ack_image(self, slot: int, hop: int, result_addr: int) -> bytes:
        wr = WorkRequest(Opcode.WRITE_WITH_IMM, [Sge(result_addr, 8)],
                         remote_addr=self.ack_slot_addr(slot, hop),
                         rkey=self.ack_mr.rkey, imm=slot & 0xFFFFFFFF,
                         signaled=False)
        return encode_wqe(wr, owned=True)

    def _metadata(self, op: OpSpec, slot: int) -> bytes:
        # The slot's SEND is not posted yet, so no ACK for it can have
        # been counted.
        self._ack_counts[slot] = 0
        primary = self.primary
        # Per-node CAS result scratch: the region's reserved last 8 bytes
        # (the public offset range excludes this tail, see _region_limit).
        primary_result = primary.region.address + primary.region.size - 8
        execute = op.execute_map or [True] * self.group_size
        parts = [self._local_op_image(op, primary.region.address,
                                      primary.region_mr.rkey, primary_result,
                                      execute[0]),
                 self._ack_image(slot, 0, primary_result)]
        for i, backup in enumerate(self.backups):
            write_wr = WorkRequest(Opcode.NOP, signaled=False)
            if op.kind is OpKind.GWRITE and op.size > 0:
                write_wr = WorkRequest(
                    Opcode.WRITE,
                    [Sge(primary.region.address + op.offset, op.size)],
                    remote_addr=backup.region.address + op.offset,
                    rkey=backup.region_mr.rkey, signaled=False)
            flush_wr = WorkRequest(Opcode.NOP, signaled=False)
            if op.durable:
                # Durability fans out too: the primary 0-byte-READs each
                # backup after the data WRITE and before the metadata SEND.
                flush_wr = WorkRequest(
                    Opcode.READ, [Sge(0, 0)],
                    remote_addr=backup.region.address,
                    rkey=backup.region_mr.rkey, signaled=False)
            send_wr = WorkRequest(
                Opcode.SEND, [Sge(primary.staging_slot(slot, i),
                                  _BACKUP_MSG_SIZE)], signaled=False)
            parts.append(encode_wqe(write_wr, owned=True))
            parts.append(encode_wqe(flush_wr, owned=True))
            parts.append(encode_wqe(send_wr, owned=True))
            backup_result = backup.region.address + backup.region.size - 8
            parts.append(self._local_op_image(
                op, backup.region.address, backup.region_mr.rkey,
                backup_result, execute[1 + i]))
            parts.append(self._ack_image(slot, 1 + i, backup_result))
        message = b"".join(parts)
        assert len(message) == self.md_stride
        return message

    def read_replica(self, hop: int, offset: int, size: int) -> bytes:
        node = self.primary if hop == 0 else self.backups[hop - 1]
        return node.host.memory.read(node.region.address + offset, size)

    def _region_limit(self) -> int:
        # The last 64 bytes of each region are reserved for per-node CAS
        # result scratch (see _metadata).
        return self.config.region_size - 64

    # ------------------------------------------------------------------
    # Client processes
    # ------------------------------------------------------------------
    def _ack_dispatcher(self):
        sim, config = self.sim, self.config
        channel = self.ack_cq.channel
        while True:
            self.ack_cq.req_notify()
            yield channel.wait()
            yield self.poller.when_running()
            yield config.poll_overhead_ns  # bare-delay fast path
            for wc in self.ack_cq.poll(64):
                if not wc.has_imm:
                    continue
                slot = wc.imm
                if slot not in self._ack_counts:
                    continue
                self._ack_counts[slot] += 1
                if self._ack_counts[slot] < self.group_size:
                    continue
                del self._ack_counts[slot]
                done = self._pop_acked(slot)
                self._release_window_waiters()
                if done is None or done.triggered:
                    continue
                base = self.ack_buf.address \
                    + (slot % config.slots) * self.ack_stride
                result_map = self.client_host.memory.read(base,
                                                          self.ack_stride)
                self._finish(done, slot, result_map)
