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

Each node is a :class:`~repro.core.chain.ReplicaEngine`: the primary wired
by :func:`primary_wiring`, each backup by :data:`BACKUP_WIRING`.

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
from ..rdma.wqe import MAX_SGE, WQE_SIZE
from .chain import ReplicaEngine, Ring, Wiring
from .group import GroupConfig
from .metadata import (
    OpSpec,
    ack,
    forward_data,
    forward_flush,
    forward_meta,
    images,
    local_op,
)
from .readpath import ClientReadPath

__all__ = ["FanoutGroup", "BACKUP_WIRING", "primary_wiring"]

#: What the primary forwards to each backup: the backup's local op and its
#: client ACK, the two descriptors its RECV patches.
_BACKUP_MSG_SIZE = 2 * WQE_SIZE

#: A backup: the local op gated on the primary's SEND, then its client ACK.
BACKUP_WIRING = Wiring(
    rings=(Ring("ack", 1),),
    scatter=(("local", 0, WQE_SIZE), ("ack", 0, WQE_SIZE)))


def primary_wiring(backups: int) -> Wiring:
    """The primary: its local op, its client ACK and one ``out<i>`` ring
    per backup (data WRITE, flush READ, metadata SEND), all gated on the
    local op so gCAS/gMEMCPY results and ordering hold.  The RECV patches
    each backup's block with one SGE and stages that backup's message
    after it: ``2 + 2·backups`` SGEs, which ``MAX_SGE`` bounds."""
    return Wiring(
        rings=(Ring("ack", 1),
               *(Ring(f"out{i}", 3) for i in range(backups))),
        scatter=(("local", 0, WQE_SIZE), ("ack", 0, WQE_SIZE),
                 *(segment for i in range(backups) for segment in (
                     (f"out{i}", 0, 3 * WQE_SIZE),
                     ("staging", i * _BACKUP_MSG_SIZE, _BACKUP_MSG_SIZE)))),
        staging=_BACKUP_MSG_SIZE * backups, out="out")


@register("fanout",
          description="NIC-offloaded primary/backup fan-out (§7 extension)")
class FanoutGroup(GroupBase):
    """FaRM-style fan-out replication with the coordination NIC-offloaded.

    Fully API-compatible with :class:`HyperLoopGroup` — gWRITE/gCAS (with
    execute maps)/gMEMCPY/gFLUSH, remote reads, abort — so the entire §5
    storage stack runs over fan-out unchanged.  Limited to 2 backups by
    the scatter-gather budget — see :func:`primary_wiring`.
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
        backup_count = self.group_size - 1
        #: All member nodes, primary first (chain-API parity).
        self.replicas = [
            ReplicaEngine(replica_hosts[0], f"{self.name}.primary", config,
                          primary_wiring(backup_count)),
            *(ReplicaEngine(host, f"{self.name}.backup{i}", config,
                            BACKUP_WIRING)
              for i, host in enumerate(replica_hosts[1:]))]
        self.layouts = [node.layout() for node in self.replicas]
        memory = client_host.memory
        self.region = memory.allocate(config.region_size,
                                      f"{self.name}.cregion")
        # The primary's local op and ACK, then per backup: data, flush,
        # SEND, and the backup's local op and ACK it carries.
        self.md_stride = (2 + 5 * backup_count) * WQE_SIZE
        self.md_buf = memory.allocate(self.md_stride * config.slots,
                                      f"{self.name}.md")
        # One inbound ACK QP per replica, all feeding one CQ.
        open_ack_hub(self, client_host, 8 * self.group_size,
                     [f"ackin{i}" for i in range(self.group_size)],
                     out_sq_slots=4 * config.slots)
        primary, *backups = self.replicas
        self.qp_out.connect(primary.qp_up)
        for node, ack_qp in zip(self.replicas, self.ack_qps):
            node.qps["ack"].connect(ack_qp)
        for i, backup in enumerate(backups):
            primary.qps[f"out{i}"].connect(backup.qp_up)
        for node in self.replicas:
            node.arm()
        self._ack_counts: Dict[int, int] = {}
        self._start_client(config.client_mode == "polling",
                           config.event_wakeup_service_ns)
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
    def _metadata(self, op: OpSpec, slot: int) -> bytes:
        # The slot's SEND is not posted yet, so no ACK for it can have
        # been counted.
        self._ack_counts[slot] = 0
        primary, *backups = self.layouts
        ack_addr, ack_rkey = self.ack_addr(slot), self.ack_mr.rkey
        # Per-node CAS result scratch: the region's reserved last 8 bytes
        # (the public offset range excludes this tail, see _region_limit).
        scratch = self.config.region_size - 8
        result = primary.region_addr + scratch
        wrs = [local_op(op, 0, primary, result),
               ack(result, 8, ack_addr, ack_rkey, slot)]
        staged = primary.staging_slot(slot)
        for i, backup in enumerate(backups):
            result = backup.region_addr + scratch
            wrs += (forward_data(op, primary, backup),
                    forward_flush(op, backup),
                    forward_meta(staged + i * _BACKUP_MSG_SIZE,
                                 _BACKUP_MSG_SIZE),
                    local_op(op, 1 + i, backup, result),
                    ack(result, 8, ack_addr + (1 + i) * 8, ack_rkey, slot))
        return images(wrs)

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
