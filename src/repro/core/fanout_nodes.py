"""Node engines for NIC-offloaded fan-out replication (§7 extension).

The *setup* half of the fan-out topology: per-node memory carve-outs, QPs
and the pre-posted cyclic WQE patterns.  The client-side handle that
patches these descriptors per operation is
:class:`~repro.core.fanout.FanoutGroup`.

Scatter-gather arithmetic bounds the fan-out width: patching the primary
needs ``1 + 2×backups`` scatter segments, so with ``MAX_SGE = 6`` a group
supports up to 2 backups (replication factor 3 — the common deployment).
"""

from __future__ import annotations

from ..host import Host
from ..rdma.wqe import WQE_SIZE, Opcode, Sge, WorkRequest
from .chain import carve_region, prepost_gated

__all__ = ["_FanoutPrimary", "_FanoutBackup",
           "_PRIMARY_BLOCK_WQES", "_BACKUP_BLOCK_WQES", "_BACKUP_MSG_SIZE"]

#: Descriptors patched per backup on the primary (forward WRITE + flush
#: READ + SEND).
_PRIMARY_BLOCK_WQES = 3
#: Descriptors patched on each backup (local op + client ACK).
_BACKUP_BLOCK_WQES = 2
_BACKUP_MSG_SIZE = _BACKUP_BLOCK_WQES * WQE_SIZE


class _FanoutPrimary:
    """The primary: local-op QP plus one fan-out QP per backup."""

    def __init__(self, host: Host, group):
        self.host = host
        self.group = group
        config = group.config
        memory, nic = host.memory, host.nic
        self.name = f"{group.name}.primary"
        self.region, self.region_mr = carve_region(host, self.name,
                                                   config.region_size)
        backups = group.backup_count
        # Staging for each backup's outgoing metadata message.
        self.staging = memory.allocate(
            _BACKUP_MSG_SIZE * backups * config.slots, f"{self.name}.staging")
        self.up_cq = nic.create_cq(name=f"{self.name}.upcq")
        self.local_cq = nic.create_cq(name=f"{self.name}.localcq")
        self.out_cq = nic.create_cq(name=f"{self.name}.outcq")
        self.qp_up = nic.create_qp(self.out_cq, self.up_cq, sq_slots=8,
                                   rq_slots=config.slots,
                                   name=f"{self.name}.up")
        self.qp_local = nic.create_qp(self.local_cq, self.local_cq,
                                      sq_slots=2 * config.slots, rq_slots=8,
                                      name=f"{self.name}.local")
        self.qp_local.connect(self.qp_local)
        self.qp_ack = nic.create_qp(self.out_cq, self.out_cq,
                                    sq_slots=2 * config.slots, rq_slots=8,
                                    name=f"{self.name}.ack")
        self.qp_backups = [
            nic.create_qp(self.out_cq, self.out_cq,
                          sq_slots=4 * config.slots, rq_slots=8,
                          name=f"{self.name}.out{i}")
            for i in range(backups)]
        self.qp_up.rq.cyclic = True
        self.qp_local.sq.cyclic = True
        self.qp_ack.sq.cyclic = True
        for qp in self.qp_backups:
            qp.sq.cyclic = True
        self.posted_slots = 0

    def staging_slot(self, slot: int, backup: int) -> int:
        config = self.group.config
        per_slot = _BACKUP_MSG_SIZE * self.group.backup_count
        return (self.staging.address
                + (slot % config.slots) * per_slot
                + backup * _BACKUP_MSG_SIZE)

    def prepost(self, count: int) -> None:
        """Pre-post the next ``count`` ops' WQE chains, one list post per
        ring."""
        # Local op: gated on the metadata RECV.
        local = prepost_gated(self.qp_local, self.up_cq, 1, count)
        # Primary ACK to client: gated on the local op's completion.
        ack = prepost_gated(self.qp_ack, self.local_cq, 1, count)
        # Per-backup fan-out: data WRITE + flush READ + metadata SEND, gated
        # on the local op so gCAS/gMEMCPY results/ordering hold.
        outs = [prepost_gated(qp, self.local_cq, _PRIMARY_BLOCK_WQES, count)
                for qp in self.qp_backups]
        out_stride = 1 + _PRIMARY_BLOCK_WQES  # The WAIT, then the block.
        recvs = []
        for k in range(count):
            slot = self.posted_slots + k
            sg = [Sge(self.qp_local.sq.slot_address(local + 2 * k + 1),
                      WQE_SIZE),
                  Sge(self.qp_ack.sq.slot_address(ack + 2 * k + 1), WQE_SIZE)]
            for backup, (qp, out) in enumerate(zip(self.qp_backups, outs)):
                sg.append(Sge(qp.sq.slot_address(out + out_stride * k + 1),
                              _PRIMARY_BLOCK_WQES * WQE_SIZE))
                sg.append(Sge(self.staging_slot(slot, backup),
                              _BACKUP_MSG_SIZE))
            recvs.append(WorkRequest(Opcode.RECV, sg, wr_id=slot))
        self.qp_up.post_recv_list(recvs)
        self.posted_slots += count


class _FanoutBackup:
    """A backup: receives data+metadata from the primary, ACKs the client."""

    def __init__(self, host: Host, group, index: int):
        self.host = host
        self.group = group
        self.index = index
        config = group.config
        nic = host.nic
        self.name = f"{group.name}.backup{index}"
        self.region, self.region_mr = carve_region(host, self.name,
                                                   config.region_size)
        self.up_cq = nic.create_cq(name=f"{self.name}.upcq")
        self.local_cq = nic.create_cq(name=f"{self.name}.localcq")
        self.qp_up = nic.create_qp(self.local_cq, self.up_cq, sq_slots=8,
                                   rq_slots=config.slots,
                                   name=f"{self.name}.up")
        self.qp_local = nic.create_qp(self.local_cq, self.local_cq,
                                      sq_slots=2 * config.slots, rq_slots=8,
                                      name=f"{self.name}.local")
        self.qp_local.connect(self.qp_local)
        self.qp_ack = nic.create_qp(self.local_cq, self.local_cq,
                                    sq_slots=2 * config.slots, rq_slots=8,
                                    name=f"{self.name}.ack")
        self.qp_up.rq.cyclic = True
        self.qp_local.sq.cyclic = True
        self.qp_ack.sq.cyclic = True
        self.posted_slots = 0

    def prepost(self, count: int) -> None:
        local = prepost_gated(self.qp_local, self.up_cq, 1, count)
        ack = prepost_gated(self.qp_ack, self.local_cq, 1, count)
        self.qp_up.post_recv_list([WorkRequest(Opcode.RECV, [
            Sge(self.qp_local.sq.slot_address(local + 2 * k + 1), WQE_SIZE),
            Sge(self.qp_ack.sq.slot_address(ack + 2 * k + 1), WQE_SIZE),
        ], wr_id=self.posted_slots + k) for k in range(count)])
        self.posted_slots += count
