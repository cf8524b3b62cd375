"""Naïve-RDMA: the paper's baseline implementation of the group primitives.

Same API and chain topology as :class:`repro.core.group.HyperLoopGroup`, but
"involves backup CPUs to handle receiving, parsing, and forwarding RDMA
messages" (§6): each replica runs a software handler thread that must be
*scheduled onto a CPU core* for every hop of every operation.  Under
multi-tenant load that scheduling delay is the source of the 2–3 orders of
magnitude tail-latency gap the paper reports.

Two completion-detection modes, matching §6.2's RocksDB comparison:

* ``event``   — the handler blocks on a completion channel; each message
  costs a wakeup (run-queue wait + context switch) before it is handled.
* ``polling`` — a dedicated busy-polling thread detects completions only
  while it owns a core.  With more pollers than cores (the multi-tenant
  co-location of Figure 11) pollers time-share and polling gets *worse*
  than event mode.

Wire protocol per hop: an RDMA WRITE carries the payload straight into the
replica's region (for gWRITE), then a SEND carries a fixed header (+ the
running result map).  The replica CPU parses the header, performs the local
work (memcpy for gMEMCPY, compare-and-swap for gCAS), and re-posts the same
pair toward the next node.  The tail ACKs the client with WRITE_WITH_IMM.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

from ..backend.base import GroupBase
from ..backend.ops import OpKind, OpSpec
from ..backend.registry import register
from ..core.readpath import ClientReadPath
from ..host import Host
from ..rdma.verbs import Access
from ..rdma.wqe import Opcode, Sge, WorkRequest

__all__ = ["NaiveConfig", "NaiveGroup", "HEADER_SIZE"]

HEADER_SIZE = 64
_HEADER = struct.Struct("<BBBxIQIQQQQI")
# kind, durable, hop, slot, offset, size, src, dst, old, new, exec_map

_KIND_CODE = {OpKind.GWRITE: 0, OpKind.GCAS: 1, OpKind.GMEMCPY: 2,
              OpKind.GFLUSH: 3}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}


def encode_header(op: OpSpec, slot: int, hop: int, group_size: int,
                  exec_map_bits: Optional[int] = None) -> bytes:
    if exec_map_bits is not None:
        exec_map = exec_map_bits
    elif op.execute_map is not None:
        exec_map = 0
        for i, bit in enumerate(op.execute_map):
            if bit:
                exec_map |= 1 << i
    elif op.kind is OpKind.GCAS:
        exec_map = (1 << group_size) - 1
    else:
        exec_map = 0
    header = _HEADER.pack(_KIND_CODE[op.kind], int(op.durable), hop,
                          slot & 0xFFFFFFFF, op.offset, op.size,
                          op.src_offset, op.dst_offset,
                          op.old_value, op.new_value, exec_map)
    return header.ljust(HEADER_SIZE, b"\0")


def decode_header(data: bytes):
    (kind_code, durable, hop, slot, offset, size, src, dst, old, new,
     exec_map) = _HEADER.unpack_from(data, 0)
    op = OpSpec(_CODE_KIND[kind_code], offset=offset, size=size,
                src_offset=src, dst_offset=dst, old_value=old,
                new_value=new, durable=bool(durable))
    return op, slot, hop, exec_map


@dataclass
class NaiveConfig:
    """Tunables for the Naïve-RDMA baseline."""

    region_size: int = 16 << 20
    slots: int = 512
    mode: str = "event"              # Replica detection: "event" | "polling".
    client_mode: str = "polling"     # Client ACK detection (pinned core).
    handler_parse_ns: int = 700      # Parse header + bookkeeping per message.
    handler_post_ns: int = 200       # Per posted work request.
    memcpy_bytes_per_ns: float = 16.0
    cas_ns: int = 120
    build_ns: int = 500              # Client-side request construction.
    post_ns: int = 100
    poll_overhead_ns: int = 150
    ack_dispatch_ns: int = 700       # Client-side ACK handling per batch.
    event_wakeup_service_ns: int = 0  # Extra beyond parse/post costs.


class _NaiveReplica:
    """One replica's software datapath: QPs, buffers, and handler thread."""

    def __init__(self, host: Host, group: "NaiveGroup", hop: int):
        self.host = host
        self.group = group
        self.hop = hop
        config = group.config
        self.name = f"{group.name}.r{hop}"
        memory, nic = host.memory, host.nic
        self.region = memory.allocate(config.region_size, f"{self.name}.region")
        self.region_mr = nic.register_mr(
            self.region.address, self.region.size,
            Access.LOCAL_WRITE | Access.REMOTE_WRITE | Access.REMOTE_READ,
            name=f"{self.name}.region")
        stride = HEADER_SIZE + 8 * group.group_size
        self.msg_stride = stride
        self.msg_buf = memory.allocate(stride * config.slots, f"{self.name}.msgs")
        self.up_cq = nic.create_cq(with_channel=True, name=f"{self.name}.upcq")
        self.down_cq = nic.create_cq(name=f"{self.name}.downcq")
        self.qp_up = nic.create_qp(self.down_cq, self.up_cq,
                                   sq_slots=8, rq_slots=config.slots + 8,
                                   name=f"{self.name}.up")
        self.qp_down = nic.create_qp(self.down_cq, self.down_cq,
                                     sq_slots=4 * config.slots + 16,
                                     rq_slots=8, name=f"{self.name}.down")
        self.thread = host.spawn_thread(f"{self.name}.handler")
        self.poller = None
        if config.mode == "polling":
            self.poller = host.spawn_thread(f"{self.name}.poller")
            self.poller.run_forever()
        for slot in range(config.slots):
            self._post_recv(slot)
        host.sim.process(self._handler(), name=f"{self.name}.handler")

    def msg_addr(self, slot: int) -> int:
        return self.msg_buf.address + (slot % self.group.config.slots) \
            * self.msg_stride

    def _post_recv(self, slot: int) -> None:
        self.qp_up.post_recv(WorkRequest(
            Opcode.RECV, [Sge(self.msg_addr(slot), self.msg_stride)],
            wr_id=slot))

    def _handler(self):
        """The per-replica datapath loop — this is what HyperLoop offloads."""
        sim = self.host.sim
        config = self.group.config
        channel = self.up_cq.channel
        next_slot = 0
        while True:
            self.up_cq.req_notify()
            yield channel.wait()
            work_items = []
            if self.poller is not None:
                # Poll mode: detection happens when the poller owns a core.
                yield self.poller.when_running()
                yield config.poll_overhead_ns  # bare-delay fast path
                work_items = self.up_cq.poll(64)
                service = self._service_cost(work_items)
                if service:
                    yield service  # bare-delay fast path
                self._apply_all(work_items)
            else:
                # Event mode: the handler must be scheduled before anything
                # happens — the run-queue wait is the latency killer.
                work_items = self.up_cq.poll(64)
                service = self._service_cost(work_items) \
                    + config.event_wakeup_service_ns
                yield self.thread.run(max(service, 1))
                self._apply_all(work_items)
            for _ in work_items:
                self._post_recv(next_slot + config.slots)
                next_slot += 1

    def _service_cost(self, work_items) -> int:
        config = self.group.config
        total = 0
        for wc in work_items:
            total += config.handler_parse_ns
            header = self.host.memory.read(self.msg_addr(wc.wr_id), HEADER_SIZE)
            op, _slot, _hop, _exec = decode_header(header)
            if op.kind is OpKind.GMEMCPY:
                total += int(op.size / config.memcpy_bytes_per_ns)
            elif op.kind is OpKind.GCAS:
                total += config.cas_ns
            posts = 2 + (1 if op.durable or op.kind is OpKind.GFLUSH else 0)
            total += posts * config.handler_post_ns
        return total

    def _apply_all(self, work_items) -> None:
        for wc in work_items:
            self._apply(wc)

    def _apply(self, wc) -> None:
        """Execute the op locally and forward it down the chain (CPU work;
        its cost was charged in :meth:`_service_cost`)."""
        memory = self.host.memory
        group = self.group
        config = group.config
        msg_addr = self.msg_addr(wc.wr_id)
        raw = memory.read(msg_addr, self.msg_stride)
        op, slot, hop, exec_map = decode_header(raw)
        result_base = msg_addr + HEADER_SIZE
        if op.kind is OpKind.GMEMCPY:
            memory.copy_within(self.region.address + op.src_offset,
                               self.region.address + op.dst_offset, op.size)
        elif op.kind is OpKind.GCAS and (exec_map >> self.hop) & 1:
            target = self.region.address + op.offset
            original = int.from_bytes(memory.read(target, 8), "little")
            if original == op.old_value:
                memory.write(target, op.new_value.to_bytes(8, "little"))
            memory.write(result_base + self.hop * 8,
                         original.to_bytes(8, "little"))
        is_tail = self.hop == group.group_size - 1
        durable = op.durable or op.kind is OpKind.GFLUSH
        if is_tail:
            # ACK the client with the result map.
            self.qp_down.post_send(WorkRequest(
                Opcode.WRITE_WITH_IMM,
                [Sge(result_base, 8 * group.group_size)],
                remote_addr=group.ack_addr(slot), rkey=group.ack_mr.rkey,
                imm=slot & 0xFFFFFFFF, signaled=False))
            return
        next_replica = group.replicas[self.hop + 1]
        if op.kind is OpKind.GWRITE and op.size > 0:
            self.qp_down.post_send(WorkRequest(
                Opcode.WRITE,
                [Sge(self.region.address + op.offset, op.size)],
                remote_addr=next_replica.region.address + op.offset,
                rkey=next_replica.region_mr.rkey, signaled=False))
        if durable:
            self.qp_down.post_send(WorkRequest(
                Opcode.READ, [Sge(0, 0)],
                remote_addr=next_replica.region.address,
                rkey=next_replica.region_mr.rkey, signaled=False))
        # Re-encode the header with the next hop index, preserving the
        # execute map; the result map bytes that follow are untouched.
        memory.write(msg_addr, encode_header(op, slot, self.hop + 1,
                                             group.group_size,
                                             exec_map_bits=exec_map))
        self.qp_down.post_send(WorkRequest(
            Opcode.SEND, [Sge(msg_addr, self.msg_stride)],
            signaled=False))


@register("naive", config_cls=NaiveConfig,
          description="CPU-forwarded chain replication (Naïve-RDMA baseline)")
class NaiveGroup(GroupBase):
    """Drop-in alternative to :class:`HyperLoopGroup` using CPU forwarding."""

    _ids = itertools.count()

    def __init__(self, client_host: Host, replica_hosts: Sequence[Host],
                 config: Optional[NaiveConfig] = None, name: str = ""):
        if not replica_hosts:
            raise ValueError("a group needs at least one replica")
        self.config = config or NaiveConfig()
        self.name = name or f"naive{next(NaiveGroup._ids)}"
        self.client_host = client_host
        self.sim = client_host.sim
        self.group_size = len(replica_hosts)
        self._build_ns = self.config.build_ns
        self.replicas = [_NaiveReplica(host, self, hop)
                         for hop, host in enumerate(replica_hosts)]
        self._build_client_side()
        self._wire_chain()
        self._init_op_state()
        self._start_client_processes()
        self.read_path = ClientReadPath(client_host, self.replicas, self.name)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_client_side(self) -> None:
        config, memory, nic = self.config, self.client_host.memory, \
            self.client_host.nic
        self.region = memory.allocate(config.region_size, f"{self.name}.cregion")
        self.md_stride = HEADER_SIZE + 8 * self.group_size
        self.md_buf = memory.allocate(self.md_stride * config.slots,
                                      f"{self.name}.msgs")
        self.ack_stride = 8 * self.group_size
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
                                    rq_slots=config.slots + 8,
                                    name=f"{self.name}.ackqp")
        for _ in range(config.slots):
            self.qp_ack.post_recv(WorkRequest(Opcode.RECV, [], wr_id=0))

    def _wire_chain(self) -> None:
        self.qp_out.connect(self.replicas[0].qp_up)
        for prev, nxt in zip(self.replicas, self.replicas[1:]):
            prev.qp_down.connect(nxt.qp_up)
        self.replicas[-1].qp_down.connect(self.qp_ack)

    def _start_client_processes(self) -> None:
        self.submit_thread = self.client_host.spawn_thread(f"{self.name}.submit")
        self.ack_thread = self.client_host.spawn_thread(f"{self.name}.ackdisp")
        if self.config.client_mode == "polling":
            self.client_poller = self.client_host.spawn_thread(
                f"{self.name}.cpoller")
            self.client_poller.run_forever()
        else:
            self.client_poller = None
        self.sim.process(self._submitter(), name=f"{self.name}.submitter")
        self.sim.process(self._ack_dispatcher(), name=f"{self.name}.ackdisp")

    def ack_addr(self, slot: int) -> int:
        return self.ack_buf.address + (slot % self.config.slots) \
            * self.ack_stride

    def close(self) -> None:
        """Tear the group down and return every carved resource."""
        if not self._begin_close():
            return
        for replica in self.replicas:
            nic, memory = replica.host.nic, replica.host.memory
            nic.destroy_qp(replica.qp_up)
            nic.destroy_qp(replica.qp_down)
            nic.deregister_mr(replica.region_mr)
            memory.free(replica.region)
            memory.free(replica.msg_buf)
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
    def _metadata(self, op: OpSpec, slot: int) -> bytes:
        return encode_header(op, slot, 0, self.group_size) \
            + bytes(8 * self.group_size)

    def _ack_dispatcher(self):
        sim, config = self.sim, self.config
        channel = self.ack_cq.channel
        while True:
            self.ack_cq.req_notify()
            yield channel.wait()
            if self.client_poller is not None:
                yield self.client_poller.when_running()
                yield config.poll_overhead_ns  # bare-delay fast path
            else:
                yield self.ack_thread.run(config.ack_dispatch_ns)
            for wc in self.ack_cq.poll(64):
                if not wc.has_imm:
                    continue
                slot = wc.imm
                # Ordering matters for determinism: re-arm the RECV before
                # releasing window waiters (the re-post can schedule an
                # RNR-pending delivery).
                done = self._pop_acked(slot)
                self.qp_ack.post_recv(WorkRequest(Opcode.RECV, [], wr_id=0))
                self._release_window_waiters()
                if done is None or done.triggered:
                    continue
                result_map = self.client_host.memory.read(
                    self.ack_addr(slot), self.ack_stride)
                self._finish(done, slot, result_map)
