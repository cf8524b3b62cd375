"""Chain-replica control plane: memory carve-outs, QPs, slot pre-posting.

This is the *setup* half of the HyperLoop chain (§4.1/§4.2) — everything
a replica's CPU does once, off the critical path, so that the data path
can run entirely on the NICs afterwards.  The data-path half (the
client-side primitive API) lives in :mod:`repro.core.group`.

Every replica owns three queue pairs:

* ``qp_up``    — connected to the previous node (client for replica 0);
* ``qp_local`` — loopback, where the per-op *local* operation (NOP / CAS /
  local-copy WRITE) executes;
* ``qp_down``  — connected to the next node (the client's ACK QP for the
  tail).

For every pipeline slot ``k`` the replica's CPU pre-posts — once, off the
critical path — the chain of work requests described in §4.1/§4.2:

* ``qp_up``: a RECV whose scatter list points **at the four pre-posted WQE
  descriptors below plus the slot's staging buffer**, so the incoming
  metadata SEND patches the descriptors (including their ownership bits) by
  pure DMA;
* ``qp_local``: a consume-mode ``WAIT(up_recv_cq)`` then an unowned
  placeholder that the patch turns into the local op;
* ``qp_down``: a consume-mode ``WAIT(local_send_cq)`` then three unowned
  placeholders that become forward-data (WRITE), forward-flush (0-byte
  READ) and forward-metadata (SEND, or WRITE_WITH_IMM ACK at the tail).

After setup the replica CPU does nothing at all: the modified driver marks
the rings *cyclic*, so the NIC's ownership write-back re-arms each slot for
reuse and the pre-posted pattern serves unboundedly many operations.
"""

from __future__ import annotations

from ..host import Host
from ..rdma.verbs import Access
from ..rdma.wqe import WQE_SIZE, Opcode, Sge, WorkRequest
from .metadata import NodeLayout, max_staging_len, staging_len

__all__ = ["ReplicaEngine", "carve_region", "prepost_gated", "wire_chain"]

#: A replicated region is remotely writable, readable and atomic-capable
#: (group locks live inside it).
REGION_ACCESS = (Access.LOCAL_WRITE | Access.REMOTE_WRITE
                 | Access.REMOTE_READ | Access.REMOTE_ATOMIC)


def carve_region(host: Host, node: str, size: int,
                 access: Access = REGION_ACCESS):
    """Allocate node ``node``'s replicated region on ``host`` and register
    it with ``access``, both named ``<node>.region``; returns
    ``(allocation, mr)``."""
    region = host.memory.allocate(size, f"{node}.region")
    return region, host.nic.register_mr(region.address, region.size, access,
                                        name=f"{node}.region")


def wire_chain(replicas, ack_qp) -> None:
    """Connect each replica's down QP to the next one's up QP, and the
    tail's to the client's ACK QP ``ack_qp``."""
    for prev, nxt in zip(replicas, replicas[1:]):
        prev.qp_down.connect(nxt.qp_up)
    replicas[-1].qp_down.connect(ack_qp)


def prepost_gated(qp, wait_cq, placeholders: int, count: int) -> int:
    """List-post ``count`` slots of a WAIT on ``wait_cq`` gating
    ``placeholders`` unowned NOPs for the metadata scatter to patch; returns
    the first index.  The WAIT is consume-mode (``wait_count=0``) so a
    cyclic ring re-serves it forever without count patching."""
    wait = WorkRequest(Opcode.WAIT, wait_cq=wait_cq.cq_id, wait_count=0,
                       signaled=False)
    nop = WorkRequest(Opcode.NOP, signaled=False)
    return qp.post_send_list([wait] + [nop] * placeholders,
                             [True] + [False] * placeholders, times=count)


class ReplicaEngine:
    """Per-replica state: memory carve-outs, QPs, and slot pre-posting."""

    def __init__(self, host: Host, group_name: str, hop: int,
                 group_size: int, config):
        self.host = host
        self.hop = hop
        self.group_size = group_size
        self.config = config
        self.name = f"{group_name}.r{hop}"
        memory, nic = host.memory, host.nic
        self.region, self.region_mr = carve_region(host, self.name,
                                                   config.region_size)
        stride = max_staging_len(group_size)
        self.staging = memory.allocate(stride * config.slots,
                                       f"{self.name}.staging")
        self.staging_stride = stride
        slots = config.slots
        self.up_recv_cq = nic.create_cq(name=f"{self.name}.upcq")
        self.local_cq = nic.create_cq(name=f"{self.name}.localcq")
        self.down_cq = nic.create_cq(name=f"{self.name}.downcq")
        # Cyclic reuse requires each ring to hold *exactly* one pass of
        # the pre-posted slot pattern, so absolute slot k always maps back
        # to the same descriptor addresses.
        self.qp_up = nic.create_qp(self.down_cq, self.up_recv_cq,
                                   sq_slots=8, rq_slots=slots,
                                   name=f"{self.name}.up")
        self.qp_local = nic.create_qp(self.local_cq, self.local_cq,
                                      sq_slots=2 * slots, rq_slots=8,
                                      name=f"{self.name}.local")
        self.qp_down = nic.create_qp(self.down_cq, self.down_cq,
                                     sq_slots=4 * slots, rq_slots=8,
                                     name=f"{self.name}.down")
        self.qp_local.connect(self.qp_local)
        # Mirror the paper: the WQE rings are themselves registered memory
        # (remote manipulation is bounds-checked like any RDMA access);
        # named after their QPs, they go when the group is released.
        nic.ring_mr(self.qp_local, "sq")
        nic.ring_mr(self.qp_down, "sq")
        # Modified-driver cyclic rings: the slot pattern is pre-posted once
        # and re-armed by NIC ownership write-back, so the replica CPU does
        # no recurring work at all (§3.1's "very few cycles that initialize
        # the HyperLoop groups").
        self.qp_up.rq.cyclic = True
        self.qp_local.sq.cyclic = True
        self.qp_down.sq.cyclic = True
        self.posted_slots = 0

    def layout(self) -> NodeLayout:
        return NodeLayout(
            name=self.name,
            region_addr=self.region.address,
            region_rkey=self.region_mr.rkey,
            staging_addr=self.staging.address,
            staging_stride=self.staging_stride,
            slots=self.config.slots)

    # ------------------------------------------------------------------
    # Slot pre-posting (control plane)
    # ------------------------------------------------------------------
    def prepost(self, count: int) -> None:
        """Pre-post the WQE chains of the next ``count`` pipeline slots."""
        # Local queue: WAIT on the upstream RECV CQ, then the local op.
        local = prepost_gated(self.qp_local, self.up_recv_cq, 1, count)
        # Down queue: WAIT on the local op's CQE, then the three forwards
        # (data, flush, metadata).
        down = prepost_gated(self.qp_down, self.local_cq, 3, count)
        # Upstream RECVs: scatter the inbound metadata onto the slot's four
        # placeholders, remainder into the staging buffer.
        local_sq, down_sq = self.qp_local.sq, self.qp_down.sq
        layout, first = self.layout(), self.posted_slots
        meta_len = staging_len(self.group_size, self.hop)
        self.qp_up.post_recv_list([WorkRequest(Opcode.RECV, [
            Sge(local_sq.slot_address(local + 2 * k + 1), WQE_SIZE),
            Sge(down_sq.slot_address(down + 4 * k + 1), WQE_SIZE),
            Sge(down_sq.slot_address(down + 4 * k + 2), WQE_SIZE),
            Sge(down_sq.slot_address(down + 4 * k + 3), WQE_SIZE),
            Sge(layout.staging_slot(first + k), meta_len),
        ], wr_id=first + k) for k in range(count)])
        self.posted_slots += count
