"""The RDMA NIC model.

Executes WQE descriptors exactly as they sit in host ring memory (see
:mod:`repro.rdma.wqe`), which is what makes HyperLoop's two key mechanisms
work without any special-casing:

* **WAIT (CORE-Direct)** — a WAIT descriptor at the head of a send queue
  stalls the queue until a *different* queue's completion queue reaches a
  target count; when it does, the NIC advances and executes the following
  descriptors.  This is the "when" of offloaded forwarding (§4.1).
* **Deferred ownership / remote manipulation** — a descriptor whose
  ownership bit is clear also stalls the queue.  An inbound SEND whose RECV
  scatter list points into ring memory can patch descriptor fields *and* set
  the ownership bit; the NIC re-reads descriptors from memory on every
  attempt, so the patch genuinely changes what is executed.  This is the
  "what" (§4.1).

Each QP's send queue is its own pipeline (NICs pipeline across QPs);
per-WQE processing delay models the NIC's message-rate limit and the
shared egress port models serialization at line rate.  Inbound messages run
through a FIFO ingress pipeline with its own per-message cost.  Like the
hardware, neither pipeline is a process: each stage is a callback that
schedules the next with ``sim.call_at`` (docs/INTERNALS.md §8).

Durability: inbound DMA writes go through the NIC's volatile write cache
(:class:`~repro.nvm.cache.NICWriteCache`).  Serving *any* inbound READ
flushes the cache first — the firmware behaviour HyperLoop leverages to
build gFLUSH out of a 0-byte READ (§4.2).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from ..nvm.cache import NICWriteCache
from ..nvm.memory import MemoryDevice
from ..sim.engine import Simulator
from ..sim.stats import Counter
from ..sim.trace import Tracer
from ..sim.units import us
from .driver import WorkQueue
from .fabric import Fabric, Port
from .verbs import (
    Access,
    CompletionChannel,
    CompletionQueue,
    MemoryRegion,
    QPState,
    QueuePair,
    RemoteAccessError,
    WCStatus,
    WorkCompletion,
)
from .wqe import WQE_SIZE, DecodedWQE, Opcode, Sge

__all__ = ["NICParams", "RNIC", "Message"]


@dataclass(slots=True)
class NICParams:
    """NIC timing and sizing parameters (ConnectX-3-class defaults)."""

    wqe_processing_ns: int = 160     # Parse + initiate one send-side WQE.
    ingress_processing_ns: int = 220  # Handle one inbound request message.
    ack_processing_ns: int = 40       # Handle one inbound ACK/response.
    wait_processing_ns: int = 60      # Evaluate a satisfied WAIT.
    loopback_ns: int = 350            # Self-delivery for loopback QPs.
    dma_bytes_per_ns: float = 16.0    # PCIe gen3 x8-ish gather/scatter rate.
    rnr_retry_delay_ns: int = us(20)  # Receiver-not-ready retry backoff.
    max_rnr_retries: int = 512
    cache_writeback_ns: int = us(100)
    cache_capacity_bytes: int = 1 << 20

    def dma_ns(self, size_bytes: int) -> int:
        return int(size_bytes / self.dma_bytes_per_ns)


@dataclass(slots=True)
class Message:
    """A transport-layer message between two NICs (request or response)."""

    kind: str                 # send | write | write_imm | read_req | cas_req
    #                         # | ack | read_resp | cas_resp
    src_nic: str
    src_qp: int
    dst_qp: int
    req_id: int
    payload: bytes = b""
    remote_addr: int = 0
    rkey: int = 0
    length: int = 0
    imm: int = 0
    has_imm: bool = False
    compare: int = 0
    swap: int = 0
    status: WCStatus = WCStatus.SUCCESS
    rnr_retries: int = 0


@dataclass(slots=True)
class _PendingOp:
    """Sender-side state for an initiated, not-yet-completed operation."""

    qp: QueuePair
    wqe: DecodedWQE


class RNIC:
    """One RDMA NIC: verbs objects, WQE execution, ingress pipeline."""

    __slots__ = ("sim", "memory", "fabric", "name", "params", "port", "cache",
                 "qps", "cqs", "mrs", "_next_key", "_stalled", "_outstanding",
                 "_fenced", "_pending", "_ingress", "_ingress_busy",
                 "tracer", "rnr_retries", "remote_access_errors",
                 "messages_handled", "wqes_executed",
                 "_slow_factor", "_slow_until")

    _req_ids = itertools.count(1)

    def __init__(self, sim: Simulator, memory: MemoryDevice, fabric: Fabric,
                 name: str, params: Optional[NICParams] = None) -> None:
        self.sim = sim
        self.memory = memory
        self.fabric = fabric
        self.name = name
        self.params = params or NICParams()
        self.port: Port = fabric.create_port(name)
        self.port.attach(self._ingress_enqueue)
        self.cache = NICWriteCache(
            sim, memory,
            writeback_delay_ns=self.params.cache_writeback_ns,
            capacity_bytes=self.params.cache_capacity_bytes)
        self.qps: Dict[int, QueuePair] = {}
        self.cqs: Dict[int, CompletionQueue] = {}
        self.mrs: Dict[int, MemoryRegion] = {}
        self._next_key = itertools.count(0x1000)
        # qp_num -> parked until a waker; keys stay in first-stall order.
        self._stalled: Dict[int, bool] = {}
        self._outstanding: Dict[int, int] = {}
        self._fenced: Set[int] = set()  # Waiting for _outstanding == 0.
        self._pending: Dict[int, _PendingOp] = {}
        self._ingress: Deque[Message] = deque()
        self._ingress_busy = False
        # Straggler injection (repro.faults): processing delays scale by
        # _slow_factor while sim.now < _slow_until.
        self._slow_factor = 1.0
        self._slow_until = 0
        # Counters for assertions and reports.
        self.tracer: Optional[Tracer] = None  # Set by Cluster.enable_tracing.
        self.rnr_retries = Counter(f"{name}.rnr")
        self.remote_access_errors = Counter(f"{name}.access_err")
        self.messages_handled = Counter(f"{name}.msgs")
        self.wqes_executed = Counter(f"{name}.wqes")

    def __repr__(self) -> str:
        return f"<RNIC {self.name}>"

    # ------------------------------------------------------------------
    # Straggler injection
    # ------------------------------------------------------------------
    def inflate_latency(self, factor: float, until_ns: int) -> None:
        """Make this NIC a straggler: scale every per-message processing
        delay (WQE parse, ingress, ACK, DMA, loopback) by ``factor``
        until ``until_ns``.

        Models a sick NIC — firmware babysitting, PCIe link retraining,
        thermal throttling — that is *alive* (nothing is dropped) but
        slow enough to take the whole chain hostage.  Overlapping calls:
        the strongest factor and the latest deadline win.
        """
        if factor < 1.0:
            raise ValueError(f"inflation factor must be >= 1, got {factor}")
        if self.sim.now < self._slow_until:
            factor = max(factor, self._slow_factor)
            until_ns = max(until_ns, self._slow_until)
        self._slow_factor = factor
        self._slow_until = until_ns

    @property
    def straggling(self) -> bool:
        """True while an :meth:`inflate_latency` window is active."""
        return self.sim.now < self._slow_until

    @property
    def inflation_factor(self) -> float:
        """The currently active latency scale (1.0 when healthy)."""
        return self._slow_factor if self.sim.now < self._slow_until else 1.0

    def _after(self, ns: int, stage: Callable[..., None], *args: Any) -> None:
        """Run the next pipeline stage ``stage(*args)`` after a processing
        delay of ``ns`` (straggler-scaled)."""
        sim = self.sim
        if sim.now < self._slow_until:
            ns = max(1, int(ns * self._slow_factor))
        sim.call_at(sim.now + ns, partial(stage, *args))

    # ------------------------------------------------------------------
    # Verbs object factories
    # ------------------------------------------------------------------
    def create_cq(self, with_channel: bool = False, name: str = "",
                  count_only: bool = False) -> CompletionQueue:
        channel = CompletionChannel(self.sim) if with_channel else None
        cq = CompletionQueue(self.sim, channel=channel, name=name,
                             count_only=count_only)
        self.cqs[cq.cq_id] = cq
        return cq

    def destroy_cq(self, cq: CompletionQueue) -> None:
        """Forget a CQ (after the QPs that complete into it are gone)."""
        self.cqs.pop(cq.cq_id, None)

    def create_srq(self, slots: int = 4096, name: str = "") -> WorkQueue:
        """A shared receive queue: one RECV ring consumed by many QPs.

        §5's future-work hook: "Multiple clients can be supported …
        using shared receive queues on the first replica in the chain."
        Pass the returned queue as ``srq=`` to :meth:`create_qp`.
        """
        label = name or f"{self.name}.srq{len(self.qps)}"
        ring = self.memory.allocate(slots * WQE_SIZE, f"{label}.ring")
        return WorkQueue(self.memory, ring, name=label)

    def create_qp(self, send_cq: CompletionQueue, recv_cq: CompletionQueue,
                  sq_slots: int = 4096, rq_slots: int = 4096,
                  name: str = "", srq: Optional[WorkQueue] = None) -> QueuePair:
        """Create a QP, allocating its descriptor rings in host memory.

        With ``srq`` set, the QP consumes RECVs from the shared queue
        instead of a private ring (inbound SENDs from any QP sharing it
        take the next descriptor in shared FIFO order).
        """
        serial = len(self.qps)
        label = name or f"{self.name}.qp{serial}"
        sq_ring = self.memory.allocate(sq_slots * WQE_SIZE, f"{label}.sqring.{serial}")
        sq = WorkQueue(self.memory, sq_ring, name=f"{label}.sq")
        if srq is not None:
            rq = srq
        else:
            rq_ring = self.memory.allocate(rq_slots * WQE_SIZE,
                                           f"{label}.rqring.{serial}")
            rq = WorkQueue(self.memory, rq_ring, name=f"{label}.rq")
        qp = QueuePair(self, sq, rq, send_cq, recv_cq, name=label)
        qp.uses_srq = srq is not None
        self.qps[qp.qp_num] = qp
        self._outstanding[qp.qp_num] = 0
        self.sim.call_at(self.sim.now, partial(self._sq_step, qp))
        return qp

    def register_mr(self, addr: int, length: int, access: Access,
                    name: str = "") -> MemoryRegion:
        """Register host memory for (remote) access.

        Registering a QP's ring region with ``REMOTE_WRITE`` is what enables
        HyperLoop's remote work-request manipulation; the bounds check in
        :meth:`_validate_remote` is the safety net the paper calls out.
        """
        lkey = next(self._next_key)
        rkey = next(self._next_key)
        mr = MemoryRegion(addr=addr, length=length, lkey=lkey, rkey=rkey,
                          access=access, name=name)
        self.mrs[rkey] = mr
        return mr

    def deregister_mr(self, mr: MemoryRegion) -> None:
        """Invalidate a memory region; its rkey stops resolving."""
        self.mrs.pop(mr.rkey, None)

    def destroy_qp(self, qp: QueuePair) -> None:
        """Tear a QP down: flush it, stop its service, free its rings."""
        if qp.qp_num not in self.qps:
            return
        if qp.state is not QPState.ERROR:
            qp.to_error()
        del self.qps[qp.qp_num]
        self.doorbell(qp)  # Wake the send queue so it can retire.
        self._stalled.pop(qp.qp_num, None)
        self._outstanding.pop(qp.qp_num, None)
        self._fenced.discard(qp.qp_num)
        for req_id, pending in list(self._pending.items()):
            if pending.qp is qp:
                del self._pending[req_id]
        self.memory.free(qp.sq.ring)
        if not qp.uses_srq:
            # Shared receive rings belong to their creator, not any QP.
            self.memory.free(qp.rq.ring)

    def release(self, prefix: str) -> None:
        """Destroy every QP, then every CQ, then deregister every MR whose
        name starts with ``prefix``, each in creation order."""
        for qp in [qp for qp in self.qps.values()
                   if qp.name.startswith(prefix)]:
            self.destroy_qp(qp)
        for cq in [cq for cq in self.cqs.values()
                   if cq.name.startswith(prefix)]:
            self.destroy_cq(cq)
        for mr in [mr for mr in self.mrs.values()
                   if mr.name.startswith(prefix)]:
            self.deregister_mr(mr)

    def ring_mr(self, qp: QueuePair, queue: str = "sq") -> MemoryRegion:
        """Register a QP's descriptor ring as a remote-writable MR."""
        wq = qp.sq if queue == "sq" else qp.rq
        return self.register_mr(wq.ring.address, wq.ring.size,
                                Access.LOCAL_WRITE | Access.REMOTE_WRITE,
                                name=f"{qp.name}.{queue}.ring")

    # ------------------------------------------------------------------
    # Doorbell & send-queue service
    # ------------------------------------------------------------------
    def doorbell(self, qp: QueuePair) -> None:
        """Software (or a completed WAIT) tells the NIC a queue has work."""
        if self._stalled.get(qp.qp_num):
            self._wake(qp)

    def _wake(self, qp: QueuePair) -> None:
        self._stalled[qp.qp_num] = False
        self.sim.call_at(self.sim.now, partial(self._sq_step, qp))

    def wake_written(self, written: Sequence[Tuple[int, int]]) -> None:
        """Re-evaluate the stalled send queues whose head descriptor
        overlaps one of the ``(address, size)`` ranges inbound DMA just
        wrote — the write may have patched its fields or ownership bit.

        Every other stall has its own waker: an empty ring the doorbell
        from ``post_send``/``grant_send``, an unmet WAIT its CQ
        subscription, a fence the last response (``_fenced``),
        ERROR/destroy the doorbell in :meth:`destroy_qp`.
        """
        for qp_num, stalled in self._stalled.items():
            if not stalled:
                continue
            sq = self.qps[qp_num].sq
            if sq.head >= sq.tail:
                continue
            head = sq.slot_address(sq.head)
            for address, size in written:
                if address < head + WQE_SIZE and head < address + size:
                    self._wake(self.qps[qp_num])
                    break

    def _sq_step(self, qp: QueuePair) -> None:
        """Send-queue pipeline (one NIC execution context per QP): look at
        the head descriptor, then park the queue or start executing it."""
        if qp.qp_num not in self.qps:
            return  # Destroyed.
        wqe = None if qp.state is QPState.ERROR else qp.sq.peek_head()
        if wqe is None or not wqe.owned:
            # ERROR, an empty queue, or a pre-posted descriptor not yet
            # granted ownership (HyperLoop's deferred posting).
            self._stalled[qp.qp_num] = True
            return
        if wqe.fence and self._outstanding[qp.qp_num] > 0:
            self._fenced.add(qp.qp_num)
            return
        if wqe.opcode is Opcode.WAIT:
            cq = self.cqs.get(wqe.wait_cq)
            if cq is None:
                raise RemoteAccessError(
                    f"{qp.name}: WAIT on unknown CQ id {wqe.wait_cq}")
            # wait_count == 0 selects consume-mode (CORE-Direct): wait
            # for — and consume — the next completion beyond those this
            # queue's earlier WAITs already consumed.  Cursors are per
            # waiting QP, so several queues can fan out from one CQ.
            target = (cq.wait_cursor(qp.qp_num) + 1
                      if wqe.wait_count == 0 else wqe.wait_count)
            if cq.count < target:
                self._stalled[qp.qp_num] = True
                cq.subscribe_count(target, partial(self.doorbell, qp))
                return
            if wqe.wait_count == 0:
                cq.advance_wait_cursor(qp.qp_num, target)
            qp.sq.advance_head()
            self.wqes_executed.increment()
            self._after(self.params.wait_processing_ns, self._sq_waited,
                        qp, wqe)
            return
        # A regular operation: consume the descriptor and initiate it.
        qp.sq.advance_head()
        self.wqes_executed.increment()
        if self.tracer is not None:
            self.tracer.emit(self.sim.now, f"{self.name}.nic",
                             "wqe.initiate",
                             f"{qp.name}:{wqe.opcode.name}")
        self._after(self.params.wqe_processing_ns, self._initiate, qp, wqe)

    def _sq_waited(self, qp: QueuePair, wqe: DecodedWQE) -> None:
        if wqe.signaled:
            qp.send_cq.push(WorkCompletion(
                wr_id=wqe.wr_id, opcode=Opcode.WAIT,
                status=WCStatus.SUCCESS, qp_num=qp.qp_num))
        self._sq_step(qp)

    # ------------------------------------------------------------------
    # Operation initiation (sender side)
    # ------------------------------------------------------------------
    def _gather(self, sg_list: Sequence[Sge]) -> bytes:
        parts = [self.cache.dma_read(sge.addr, sge.length)
                 for sge in sg_list if sge.length]
        return b"".join(parts)

    def _initiate(self, qp: QueuePair, wqe: DecodedWQE) -> None:
        op = wqe.opcode
        if op is Opcode.NOP:
            # Completes locally; exists so gCAS can skip execution on nodes
            # whose execute-map bit is clear while keeping the WAIT chain
            # counting (§4.2).
            if wqe.signaled:
                qp.send_cq.push(WorkCompletion(
                    wr_id=wqe.wr_id, opcode=op, status=WCStatus.SUCCESS,
                    qp_num=qp.qp_num))
            self._sq_step(qp)
            return
        if qp.remote is None:
            raise RuntimeError(f"{qp.name}: not connected")
        req_id = next(RNIC._req_ids)
        message = Message(kind="", src_nic=self.name, src_qp=qp.qp_num,
                          dst_qp=qp.remote.qp_num, req_id=req_id)
        if op in (Opcode.SEND, Opcode.WRITE, Opcode.WRITE_WITH_IMM):
            payload = self._gather(wqe.sg_list)
            message.payload = payload
            message.length = len(payload)
            message.imm = wqe.imm
            if op is Opcode.SEND:
                message.kind = "send"
            else:
                message.kind = "write" if op is Opcode.WRITE else "write_imm"
                message.has_imm = op is Opcode.WRITE_WITH_IMM
                message.remote_addr = wqe.remote_addr
                message.rkey = wqe.rkey
            if payload:
                self._after(self.params.dma_ns(len(payload)), self._issue,
                            qp, wqe, message)
                return
        elif op is Opcode.READ:
            message.kind = "read_req"
            message.remote_addr = wqe.remote_addr
            message.rkey = wqe.rkey
            message.length = wqe.total_length
        elif op is Opcode.CAS:
            message.kind = "cas_req"
            message.remote_addr = wqe.remote_addr
            message.rkey = wqe.rkey
            message.compare = wqe.compare
            message.swap = wqe.swap
            message.length = 8
        elif op is Opcode.FETCH_ADD:
            message.kind = "faa_req"
            message.remote_addr = wqe.remote_addr
            message.rkey = wqe.rkey
            message.swap = wqe.swap  # The addend rides the swap field.
            message.length = 8
        else:
            raise ValueError(f"cannot initiate opcode {op}")
        self._issue(qp, wqe, message)

    def _issue(self, qp: QueuePair, wqe: DecodedWQE, message: Message) -> None:
        self._pending[message.req_id] = _PendingOp(qp=qp, wqe=wqe)
        self._outstanding[qp.qp_num] += 1
        self._transmit(qp, message)
        self._sq_step(qp)

    def _transmit(self, qp: QueuePair, message: Message) -> None:
        if qp.is_loopback or qp.remote.nic is self:
            self._after(self.params.loopback_ns, self._ingress_enqueue, message)
        else:
            dest = qp.remote.nic.port
            self.port.transmit(dest, len(message.payload), message)

    def _respond(self, request: Message, response: Message) -> None:
        """Send a response/ACK back to the requester."""
        src_qp = self.qps.get(request.dst_qp)
        if src_qp is None:
            return
        if src_qp.is_loopback or request.src_nic == self.name:
            self._after(self.params.loopback_ns, self._ingress_enqueue, response)
        else:
            dest = self.fabric.ports[request.src_nic]
            self.port.transmit(dest, len(response.payload), response)

    # ------------------------------------------------------------------
    # Ingress pipeline (receiver side)
    # ------------------------------------------------------------------
    def _ingress_enqueue(self, message: Message) -> None:
        self._ingress.append(message)
        if not self._ingress_busy:
            self._ingress_busy = True
            self.sim.call_at(self.sim.now, self._ingress_next)

    def _ingress_next(self) -> None:
        """Take the next inbound message through its processing delays
        (``_ingress_dma`` for a request, then its handler), or go idle."""
        if not self._ingress:
            self._ingress_busy = False
            return
        message = self._ingress.popleft()
        self.messages_handled.increment()
        if message.kind in ("ack", "read_resp", "cas_resp"):
            self._after(self.params.ack_processing_ns, self._ingress_done,
                        self._handle_response, message)
        else:
            self._after(self.params.ingress_processing_ns, self._ingress_dma,
                        message)

    def _ingress_dma(self, message: Message) -> None:
        if message.payload:
            self._after(self.params.dma_ns(len(message.payload)),
                        self._ingress_done, self._handle_request, message)
        else:
            self._ingress_done(self._handle_request, message)

    def _ingress_done(self, handler: Callable[[Message], None],
                      message: Message) -> None:
        handler(message)
        self._ingress_next()

    def _handle_request(self, message: Message) -> None:
        qp = self.qps.get(message.dst_qp)
        if self.tracer is not None:
            self.tracer.emit(self.sim.now, f"{self.name}.nic", "msg.rx",
                             f"{message.kind}:{len(message.payload)}B")
        if qp is None or qp.state is not QPState.RTS:
            return  # Dropped: QP gone (failure injection) — sender times out.
        handler = {
            "send": self._rx_send,
            "write": self._rx_write,
            "write_imm": self._rx_write,
            "read_req": self._rx_read,
            "cas_req": self._rx_cas,
            "faa_req": self._rx_faa,
        }[message.kind]
        handler(qp, message)

    def _validate_remote(self, message: Message, needed: Access) -> MemoryRegion:
        mr = self.mrs.get(message.rkey)
        if mr is None:
            raise RemoteAccessError(f"{self.name}: unknown rkey {message.rkey:#x}")
        mr.check(message.remote_addr, message.length, needed)
        return mr

    def _consume_recv(self, qp: QueuePair, message: Message) -> Optional[DecodedWQE]:
        """Pop the head RECV WQE, or schedule an RNR retry if none posted."""
        recv = qp.rq.peek_head()
        if recv is None:
            # Receiver not ready.  Real RC NICs NAK and the sender retries;
            # we re-deliver the message after a backoff, bounded.
            self.rnr_retries.increment()
            message.rnr_retries += 1
            if message.rnr_retries > self.params.max_rnr_retries:
                raise RuntimeError(
                    f"{self.name}: RNR retries exhausted on {qp.name} "
                    "(recv ring never replenished)")
            self.sim.call_at(self.sim.now + self.params.rnr_retry_delay_ns,
                             partial(self._ingress_enqueue, message))
            return None
        qp.rq.advance_head()
        return recv

    def _scatter(self, qp: QueuePair, recv: DecodedWQE,
                 payload: bytes) -> List[Tuple[int, int]]:
        """Scatter an inbound payload across a RECV WQE's SG list;
        returns the ``(address, size)`` ranges written.

        When an SGE points into a registered ring region this is the remote
        work-request manipulation path: descriptor bytes (including
        ownership bits) change underneath pre-posted WQEs.
        """
        capacity = recv.total_length
        if len(payload) > capacity:
            raise RemoteAccessError(
                f"{qp.name}: inbound {len(payload)}B exceeds RECV capacity "
                f"{capacity}B")
        written = []
        offset = 0
        for sge in recv.sg_list:
            if offset >= len(payload):
                break
            chunk = payload[offset:offset + sge.length]
            self.cache.dma_write(sge.addr, chunk)
            written.append((sge.addr, len(chunk)))
            offset += len(chunk)
        return written

    def _rx_send(self, qp: QueuePair, message: Message) -> None:
        recv = self._consume_recv(qp, message)
        if recv is None:
            return
        written = self._scatter(qp, recv, message.payload)
        qp.recv_cq.push(WorkCompletion(
            wr_id=recv.wr_id, opcode=Opcode.RECV, status=WCStatus.SUCCESS,
            byte_len=len(message.payload), qp_num=qp.qp_num))
        self.wake_written(written)
        self._ack(message)

    def _rx_write(self, qp: QueuePair, message: Message) -> None:
        try:
            self._validate_remote(message, Access.REMOTE_WRITE)
        except RemoteAccessError:
            self.remote_access_errors.increment()
            self._ack(message, status=WCStatus.REMOTE_ACCESS_ERROR)
            return
        if message.kind == "write_imm":
            recv = self._consume_recv(qp, message)
            if recv is None:
                return
            self.cache.dma_write(message.remote_addr, message.payload)
            qp.recv_cq.push(WorkCompletion(
                wr_id=recv.wr_id, opcode=Opcode.RECV, status=WCStatus.SUCCESS,
                byte_len=len(message.payload), imm=message.imm, has_imm=True,
                qp_num=qp.qp_num))
        else:
            self.cache.dma_write(message.remote_addr, message.payload)
        self.wake_written([(message.remote_addr, len(message.payload))])
        self._ack(message)

    def _rx_read(self, qp: QueuePair, message: Message) -> None:
        try:
            self._validate_remote(message, Access.REMOTE_READ)
        except RemoteAccessError:
            self.remote_access_errors.increment()
            self._ack(message, status=WCStatus.REMOTE_ACCESS_ERROR)
            return
        # Firmware behaviour HyperLoop leverages for gFLUSH: serving a READ
        # (even 0-byte) first drains the volatile write cache to NVM.
        self.cache.flush()
        data = self.cache.dma_read(message.remote_addr, message.length) \
            if message.length else b""
        self._respond(message, Message(
            kind="read_resp", src_nic=self.name, src_qp=message.dst_qp,
            dst_qp=message.src_qp, req_id=message.req_id, payload=data))

    def _rx_cas(self, qp: QueuePair, message: Message) -> None:
        try:
            self._validate_remote(message, Access.REMOTE_ATOMIC)
        except RemoteAccessError:
            self.remote_access_errors.increment()
            self._ack(message, status=WCStatus.REMOTE_ACCESS_ERROR)
            return
        original = int.from_bytes(self.cache.dma_read(message.remote_addr, 8),
                                  "little")
        if original == message.compare:
            self.cache.dma_write(message.remote_addr,
                                 message.swap.to_bytes(8, "little"))
            self.wake_written([(message.remote_addr, 8)])
        self._respond(message, Message(
            kind="cas_resp", src_nic=self.name, src_qp=message.dst_qp,
            dst_qp=message.src_qp, req_id=message.req_id,
            payload=original.to_bytes(8, "little")))

    def _rx_faa(self, qp: QueuePair, message: Message) -> None:
        """Atomic fetch-and-add: returns the original 8-byte value."""
        try:
            self._validate_remote(message, Access.REMOTE_ATOMIC)
        except RemoteAccessError:
            self.remote_access_errors.increment()
            self._ack(message, status=WCStatus.REMOTE_ACCESS_ERROR)
            return
        original = int.from_bytes(self.cache.dma_read(message.remote_addr, 8),
                                  "little")
        updated = (original + message.swap) % (1 << 64)
        self.cache.dma_write(message.remote_addr,
                             updated.to_bytes(8, "little"))
        self.wake_written([(message.remote_addr, 8)])
        self._respond(message, Message(
            kind="cas_resp", src_nic=self.name, src_qp=message.dst_qp,
            dst_qp=message.src_qp, req_id=message.req_id,
            payload=original.to_bytes(8, "little")))

    def _ack(self, message: Message, status: WCStatus = WCStatus.SUCCESS) -> None:
        self._respond(message, Message(
            kind="ack", src_nic=self.name, src_qp=message.dst_qp,
            dst_qp=message.src_qp, req_id=message.req_id, status=status))

    # ------------------------------------------------------------------
    # Response handling (sender side completion)
    # ------------------------------------------------------------------
    def _handle_response(self, message: Message) -> None:
        pending = self._pending.pop(message.req_id, None)
        if pending is None:
            return
        qp, wqe = pending.qp, pending.wqe
        if message.kind == "read_resp" and message.payload:
            written = []
            offset = 0
            for sge in wqe.sg_list:
                chunk = message.payload[offset:offset + sge.length]
                if not chunk:
                    break
                self.cache.dma_write(sge.addr, chunk)
                written.append((sge.addr, len(chunk)))
                offset += len(chunk)
            self.wake_written(written)
        elif message.kind == "cas_resp":
            # The original value lands at the WQE's local address — for gCAS
            # that address is a result-map slot inside the metadata region.
            if wqe.sg_list:
                self.cache.dma_write(wqe.sg_list[0].addr, message.payload[:8])
                self.wake_written([(wqe.sg_list[0].addr, 8)])
        if wqe.signaled:
            qp.send_cq.push(WorkCompletion(
                wr_id=wqe.wr_id, opcode=wqe.opcode, status=message.status,
                byte_len=wqe.total_length, qp_num=qp.qp_num))
        if qp.qp_num not in self._outstanding:
            return  # The QP was destroyed while this op was in flight.
        self._outstanding[qp.qp_num] -= 1
        if self._outstanding[qp.qp_num] == 0 and qp.qp_num in self._fenced:
            self._fenced.discard(qp.qp_num)
            self.sim.call_at(self.sim.now, partial(self._sq_step, qp))

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def on_power_failure(self) -> None:
        """Lose volatile NIC state: cache, in-flight ops, queue progress."""
        self.cache.on_power_failure()
        self._pending.clear()
        self._ingress.clear()
        for qp in self.qps.values():
            if qp.state is QPState.RTS:
                qp.to_error()
