"""One-sided client reads from any replica.

HyperLoop "allows lock-free one-sided reads from exactly one replica" and,
with read locks, consistent reads from *all* replicas (§5).  Both need the
client to issue RDMA READs against a chosen replica, which the chain QPs do
not provide — so each group also wires one dedicated read QP per replica.

READs are one-sided: the replica CPU is never involved, preserving the
zero-replica-CPU property on the read path too.
"""

from __future__ import annotations

from typing import Dict

from ..rdma.wqe import Opcode, Sge, WorkRequest
from ..sim.engine import Event

__all__ = ["ClientReadPath"]


class ClientReadPath:
    """Per-group read fan-out: one client↔replica QP pair per replica."""

    MAX_READ = 64 * 1024
    #: One-sided READs in flight at most (one staging slot each).
    SLOTS = 64

    def __init__(self, client_host, replicas, name: str):
        self.client_host = client_host
        self.replicas = replicas
        nic = client_host.nic
        self.buf = client_host.memory.allocate(self.MAX_READ * self.SLOTS,
                                               f"{name}.readbuf")
        self.cq = nic.create_cq(with_channel=True, name=f"{name}.readcq")
        self.qps = []
        for hop, replica in enumerate(replicas):
            local_qp = nic.create_qp(self.cq, self.cq, sq_slots=self.SLOTS + 8,
                                     rq_slots=8, name=f"{name}.read{hop}")
            remote_cq = replica.host.nic.create_cq(name=f"{name}.rrcq{hop}")
            remote_qp = replica.host.nic.create_qp(remote_cq, remote_cq,
                                                   sq_slots=8, rq_slots=8,
                                                   name=f"{name}.rread{hop}")
            local_qp.connect(remote_qp)
            self.qps.append(local_qp)
        self._next_token = 0
        self._waiters: Dict[int, Event] = {}
        self._sizes: Dict[int, int] = {}
        self._slot_addrs: Dict[int, int] = {}
        client_host.sim.process(self._dispatcher(), name=f"{name}.readdisp")

    def read(self, hop: int, region_offset: int, size: int) -> Event:
        """One-sided READ of a replica's region; event value is the bytes.

        Note: a READ arriving at the replica also flushes its NIC cache
        (the same firmware behaviour gFLUSH uses), so reads observe fully
        written data.
        """
        if size > self.MAX_READ:
            raise ValueError(f"read of {size}B exceeds {self.MAX_READ}B limit")
        if len(self._waiters) >= self.SLOTS:
            raise RuntimeError(
                f"more than {self.SLOTS} one-sided reads in flight")
        replica = self.replicas[hop]
        token = self._next_token
        self._next_token += 1
        slot_addr = self.buf.address + (token % self.SLOTS) * self.MAX_READ
        done = self.client_host.sim.event()
        self._waiters[token] = done
        self._sizes[token] = size
        self._slot_addrs[token] = slot_addr
        self.qps[hop].post_send(WorkRequest(
            Opcode.READ, [Sge(slot_addr, size)], wr_id=token,
            remote_addr=replica.region.address + region_offset,
            rkey=replica.region_mr.rkey, signaled=True))
        return done

    def close(self) -> None:
        """Fail every read still in flight.  The QPs, CQs and buffer carry
        the group's name, so the group's close has released them."""
        for waiter in self._waiters.values():
            if not waiter.triggered:
                waiter.fail(RuntimeError("read path closed"))
        self._waiters.clear()

    def _dispatcher(self):
        sim = self.client_host.sim
        channel = self.cq.channel
        while True:
            self.cq.req_notify()
            yield channel.wait()
            for wc in self.cq.poll(64):
                done = self._waiters.pop(wc.wr_id, None)
                if done is None or done.triggered:
                    continue
                size = self._sizes.pop(wc.wr_id)
                addr = self._slot_addrs.pop(wc.wr_id)
                done.succeed(self.client_host.memory.read(addr, size))
