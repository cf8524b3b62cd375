"""The replica engine: one slot machine for every offloaded topology.

This is the *setup* half of HyperLoop (§4.1/§4.2) — everything a replica's
CPU does once, off the critical path, so that the data path runs entirely
on the NICs afterwards.  The chain (:class:`~repro.core.group.HyperLoopGroup`),
the shared chain (:mod:`repro.core.multiclient`) and the fan-out
(:mod:`repro.core.fanout`) run the same mechanism and differ only in the
:class:`Wiring` each hands :class:`ReplicaEngine` per node:

* every node receives through an upstream queue — its QP ``up`` or, at a
  shared chain's head, an SRQ the clients' QPs share — and owns a loopback
  QP ``local`` whose ring holds, per slot, a consume-mode ``WAIT(up CQ)``
  gating one unowned placeholder that becomes the local op (NOP / CAS /
  local-copy WRITE);
* each further gated ring (the chain's ``down``, the fan-out's ``ack`` and
  ``out<i>``) holds, per slot, a ``WAIT(local CQ)`` gating its placeholders
  and, on a shared chain, one static descriptor that serves every reuse of
  the slot unchanged;
* one RECV per slot scatters the client's descriptor images onto the slot's
  placeholders — patching their fields and ownership bits by pure DMA — and
  the rest into the slot's staging buffer, which a forward re-transmits.

The engine pre-posts all ``config.slots`` slots once, on rings that hold
exactly one pass of the pattern, so slot ``k`` always maps to the same
descriptor addresses.  The modified driver marks the rings *cyclic*: the
NIC's ownership write-back re-arms each slot, and the replica CPU does no
recurring work at all.  The patched rings are registered as remotely
writable memory, and the engine's CQs only feed WAITs, so they keep a
completion count and store no entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..host import Host
from ..rdma.verbs import Access, CompletionQueue, QueuePair
from ..rdma.wqe import WQE_SIZE, Opcode, Sge, WorkRequest
from .metadata import NodeLayout

__all__ = ["ReplicaEngine", "Ring", "Wiring", "carve_region",
           "prepost_gated", "wire_chain"]

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
    """Connect each engine's ``down`` QP to the next one's up QP, and the
    tail's to the client's ACK QP ``ack_qp``."""
    for prev, nxt in zip(replicas, replicas[1:]):
        prev.qps["down"].connect(nxt.qp_up)
    replicas[-1].qps["down"].connect(ack_qp)


def prepost_gated(qp, wait_cq, placeholders: int, count: int,
                  statics: Optional[Sequence[WorkRequest]] = None) -> int:
    """List-post ``count`` slots of a WAIT on ``wait_cq`` gating
    ``placeholders`` unowned NOPs for the metadata scatter to patch, then,
    with ``statics``, slot ``k``'s owned ``statics[k]``; returns the first
    index.  The WAIT is consume-mode (``wait_count=0``) so a cyclic ring
    re-serves it forever without count patching."""
    wait = WorkRequest(Opcode.WAIT, wait_cq=wait_cq.cq_id, wait_count=0,
                       signaled=False)
    nop = WorkRequest(Opcode.NOP, signaled=False)
    block = [wait] + [nop] * placeholders
    owned = [True] + [False] * placeholders
    if statics is None:
        return qp.post_send_list(block, owned, times=count)
    return qp.post_send_list([wr for static in statics
                              for wr in (*block, static)],
                             (owned + [True]) * count)


@dataclass(frozen=True)
class Ring:
    """A gated send ring, the QP ``<node>.<name>``: per slot a WAIT gating
    ``placeholders`` unowned NOPs, then, if set, the owned
    ``static(slot, staging)`` (``staging`` is the slot's staging address)."""

    name: str
    placeholders: int
    static: Optional[Callable[[int, int], WorkRequest]] = None

    @property
    def stride(self) -> int:
        """Descriptors per slot."""
        return 1 + self.placeholders + (self.static is not None)


#: Every node's loopback ring: the local op, gated on the upstream RECV.
LOCAL = Ring("local", 1)


@dataclass(frozen=True)
class Wiring:
    """One node's slot machine, as data."""

    #: The rings after ``local``, in QP order; each WAITs on the local CQ.
    rings: Tuple[Ring, ...]
    #: The RECV's scatter list, one ``(ring, at, length)`` per SGE: it lands
    #: ``length`` bytes ``at`` bytes into the slot's placeholders of
    #: ``ring`` (``"local"`` or one of ``rings``), or, for ``"staging"``,
    #: into the slot's staging buffer.
    scatter: Tuple[Tuple[str, int, int], ...]
    #: Staging bytes per slot (0: no staging buffer).
    staging: int = 0
    #: The third CQ, ``<node>.<out>cq``, that the up QP's and every ring
    #: but ``local``'s sends complete into; empty: they use the local CQ.
    out: str = ""
    #: Receive through an SRQ (a shared chain's head) instead of QP ``up``.
    srq: bool = False


class ReplicaEngine:
    """One node of an offloaded group: its region, its count-only CQs
    (``cqs``: ``up``, ``local`` and ``wiring.out``), its receive queue
    ``rq`` (``qp_up``'s, or an SRQ), and its gated rings (``qps``, by ring
    name), pre-posted by :meth:`arm`."""

    def __init__(self, host: Host, name: str, config, wiring: Wiring):
        self.host = host
        self.name = name
        self.config = config
        self.wiring = wiring
        memory, nic, slots = host.memory, host.nic, config.slots
        self.region, self.region_mr = carve_region(host, name,
                                                   config.region_size)
        self.staging = memory.allocate(wiring.staging * slots,
                                       f"{name}.staging") \
            if wiring.staging else None
        # Nothing polls these: they only feed the WAITs (and the
        # unsignaled forwards never complete).
        self.cqs: Dict[str, CompletionQueue] = {
            cq: nic.create_cq(name=f"{name}.{cq}cq", count_only=True)
            for cq in ("up", "local", wiring.out) if cq}
        local_cq, out_cq = self.cqs["local"], self.cqs[wiring.out or "local"]
        self.qp_up: Optional[QueuePair] = None
        if wiring.srq:
            self.rq = nic.create_srq(slots=slots, name=f"{name}.srq")
        else:
            self.qp_up = nic.create_qp(out_cq, self.cqs["up"], sq_slots=8,
                                       rq_slots=slots, name=f"{name}.up")
            self.rq = self.qp_up.rq
        self.rq.cyclic = True
        self.qps: Dict[str, QueuePair] = {}
        for ring in (LOCAL, *wiring.rings):
            cq = local_cq if ring is LOCAL else out_cq
            # Exactly one pass of the slot pattern per ring.
            qp = self.qps[ring.name] = nic.create_qp(
                cq, cq, sq_slots=ring.stride * slots, rq_slots=8,
                name=f"{name}.{ring.name}")
            qp.sq.cyclic = True
            # The paper's WQE memory is registered like any RDMA target
            # (remote manipulation is bounds-checked); named after its QP,
            # it goes when the group is released.
            nic.ring_mr(qp, "sq")
        self.qps["local"].connect(self.qps["local"])

    def layout(self) -> NodeLayout:
        """What a client must know about this node."""
        return NodeLayout(
            name=self.name,
            region_addr=self.region.address,
            region_rkey=self.region_mr.rkey,
            staging_addr=self.staging.address if self.staging else 0,
            staging_stride=self.wiring.staging,
            slots=self.config.slots)

    def arm(self) -> None:
        """Pre-post every slot once: one list post per ring, then one RECV
        per slot.  Posting needs connected QPs, so a group arms its nodes
        after wiring them."""
        wiring, slots = self.wiring, self.config.slots
        stride = wiring.staging
        staging = self.staging.address if self.staging else 0
        # Where each scatter target sits for slot 0, and how far it moves
        # per slot: a fresh ring holding one pass keeps slot k's
        # descriptors ``ring.stride * k`` entries on.
        bases = {"staging": (staging, stride)}
        for ring in (LOCAL, *wiring.rings):
            qp = self.qps[ring.name]
            statics = None if ring.static is None else [
                ring.static(k, staging + k * stride) for k in range(slots)]
            first = prepost_gated(
                qp, self.cqs["up" if ring is LOCAL else "local"],
                ring.placeholders, slots, statics)
            bases[ring.name] = (qp.sq.slot_address(first + 1),
                                ring.stride * WQE_SIZE)
        sges = [(bases[where][0] + at, bases[where][1], length)
                for where, at, length in wiring.scatter]
        self.rq.post_list([WorkRequest(Opcode.RECV, [
            Sge(base + step * k, length) for base, step, length in sges],
            wr_id=k) for k in range(slots)], (True,) * slots)
