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

from typing import Dict, Optional, Sequence, Tuple

from ..backend.base import GroupBase, open_ack_hub
from ..backend.registry import register
from ..host import Host
from ..rdma.verbs import WorkCompletion
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

@register("fanout",
          description="NIC-offloaded primary/backup fan-out (§7 extension)")
class FanoutGroup(GroupBase):
    """FaRM-style fan-out replication with the coordination NIC-offloaded.

    Fully API-compatible with :class:`HyperLoopGroup` — gWRITE/gCAS (with
    execute maps)/gMEMCPY/gFLUSH, remote reads, abort — so the entire §5
    storage stack runs over fan-out unchanged.  Limited to 2 backups by
    the scatter-gather budget — see :mod:`repro.core.fanout_nodes`.
    """

    config_cls = GroupConfig
    #: A primary plus the backups the primary's scatter list can patch.
    min_replicas = 2
    max_replicas = 1 + (MAX_SGE - 2) // 2
    _prefix = "fanout"

    def __init__(self, client_host: Host, replica_hosts: Sequence[Host],
                 config: Optional[GroupConfig] = None, name: str = ""):
        super().__init__(client_host, replica_hosts, config, name)
        config = self.config
        self._build_ns = (config.meta_build_base_ns
                          + config.meta_build_per_hop_ns * self.group_size)
        self.backup_count = self.group_size - 1
        self.primary = _FanoutPrimary(replica_hosts[0], self)
        self.backups = [_FanoutBackup(host, self, i)
                        for i, host in enumerate(replica_hosts[1:])]
        #: All member nodes, primary first (chain-API parity).
        self.replicas = [self.primary] + self.backups
        memory = client_host.memory
        self.region = memory.allocate(config.region_size,
                                      f"{self.name}.cregion")
        self.md_stride = ((1 + _PRIMARY_BLOCK_WQES * self.backup_count)
                          * WQE_SIZE
                          + WQE_SIZE  # Primary ACK descriptor.
                          + _BACKUP_MSG_SIZE * self.backup_count)
        self.md_buf = memory.allocate(self.md_stride * config.slots,
                                      f"{self.name}.md")
        # One inbound ACK QP per replica, all feeding one CQ.
        open_ack_hub(self, client_host, 8 * self.group_size,
                     [f"ackin{i}" for i in range(self.group_size)],
                     out_sq_slots=4 * config.slots)
        self.qp_out.connect(self.primary.qp_up)
        self.primary.qp_ack.connect(self.ack_qps[0])
        for i, backup in enumerate(self.backups):
            self.primary.qp_backups[i].connect(backup.qp_up)
            backup.qp_ack.connect(self.ack_qps[1 + i])
        for node in self.replicas:
            node.prepost(config.slots)
        self._ack_counts: Dict[int, int] = {}
        self._start_client(True, config.event_wakeup_service_ns)
        self.read_path = ClientReadPath(client_host, self.replicas,
                                        self.name)

    def abort_in_flight(self, reason: Exception) -> int:
        """Fail every unacknowledged operation (failure detected)."""
        aborted = super().abort_in_flight(reason)
        self._ack_counts.clear()
        return aborted

    # ------------------------------------------------------------------
    # Metadata construction
    # ------------------------------------------------------------------
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
                         remote_addr=self.ack_addr(slot) + hop * 8,
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

    def _region_limit(self) -> int:
        # The last 64 bytes of each region are reserved for per-node CAS
        # result scratch (see _metadata).
        return self.config.region_size - 64

    # ------------------------------------------------------------------
    # ACK routing
    # ------------------------------------------------------------------
    def _route(self, wc: WorkCompletion) -> Optional[Tuple[GroupBase, int]]:
        """An op completes when all ``group_size`` replicas have ACKed."""
        slot = wc.imm
        count = self._ack_counts.get(slot)
        if count is None:
            return None
        if count + 1 < self.group_size:
            self._ack_counts[slot] = count + 1
            return None
        del self._ack_counts[slot]
        return self, slot
