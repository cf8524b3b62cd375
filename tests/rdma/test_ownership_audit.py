"""WQE ownership, audited at run time.

HyperLoop's offload (§4.1 of the paper) rests on one discipline: once a
descriptor is posted, only the NIC executing DMA and the driver's own
posting and patching code change its bytes, and only the NIC consumes it.
This test holds every client machinery to that while it runs: it records
every work queue built, wraps the calls that land bytes in host memory and
the NIC-consumer half of the work-queue interface, and checks who made
each call; a private method of the rdma layer may be called only from
inside it or by a kernel callback.  A ring write or a consumer call from
core, backend or baseline code fails here however many calls it crossed on
the way, as long as a path below runs it.
"""

from __future__ import annotations

import inspect
import os
import sys

import pytest

from repro.backend import READ, OpKind
from repro.nvm.cache import NICWriteCache
from repro.nvm.memory import MemoryDevice
from repro.rdma.driver import WorkQueue
from repro.rdma.nic import RNIC
from repro.rdma.verbs import CompletionQueue, QueuePair
from repro.sim.units import ms

_RDMA = os.sep + os.path.join("repro", "rdma") + os.sep
_NVM = os.sep + os.path.join("repro", "nvm") + os.sep
_RING_WRITERS = tuple(_RDMA + name for name in ("driver.py", "nic.py"))
_GRANTERS = tuple(_RDMA + name for name in ("driver.py", "verbs.py"))
_KERNEL = os.sep + os.path.join("repro", "sim", "engine.py")


def _caller(skip_nvm: bool = False) -> str:
    """File of the code that called the wrapped method (past the memory
    layer and these wrappers when ``skip_nvm``: the NIC writes through its
    cache)."""
    frame = sys._getframe(2)
    while skip_nvm and (_NVM in frame.f_code.co_filename
                        or frame.f_code.co_filename == __file__):
        frame = frame.f_back
    return frame.f_code.co_filename


class _Audit:
    def __init__(self) -> None:
        self.queues: list = []
        self.breaches: list = []

    def on_ring(self, memory, address: int, size: int) -> bool:
        end = address + size
        for queue in self.queues:
            ring = queue.ring
            if queue.memory is memory \
                    and ring.address < end and address < ring.end \
                    and memory._allocations.get(ring.name) is ring:
                return True
        return False

    def breach(self, what: str, caller: str) -> None:
        self.breaches.append(f"{what} from {caller}")


@pytest.fixture(autouse=True)
def audit(monkeypatch):
    record = _Audit()
    init = WorkQueue.__init__

    def track(self, *args, **kwargs):
        init(self, *args, **kwargs)
        record.queues.append(self)

    monkeypatch.setattr(WorkQueue, "__init__", track)

    def ring_writer(method, address_of, size_of):
        def checked(self, *args):
            caller = _caller(skip_nvm=True)
            memory = self.backing if isinstance(self, NICWriteCache) \
                else self
            if not caller.endswith(_RING_WRITERS) and record.on_ring(
                    memory, address_of(args), size_of(args)):
                record.breach(f"{method.__name__}() into a ring", caller)
            return method(self, *args)
        return checked

    for cls, name, address_of, size_of in (
            (MemoryDevice, "write", lambda a: a[0], lambda a: len(a[1])),
            (MemoryDevice, "write_pattern", lambda a: a[0],
             lambda a: len(a[1]) * a[2]),
            (MemoryDevice, "modify", lambda a: a[0], lambda a: a[1]),
            (MemoryDevice, "fill", lambda a: a[0], lambda a: a[1]),
            (MemoryDevice, "copy_within", lambda a: a[1], lambda a: a[2]),
            (NICWriteCache, "dma_write", lambda a: a[0],
             lambda a: len(a[1]))):
        monkeypatch.setattr(cls, name, ring_writer(
            getattr(cls, name), address_of, size_of))

    def only_from(method, allowed, what):
        def checked(self, *args, **kwargs):
            caller = _caller()
            if not allowed(caller):
                record.breach(f"{what} {method.__name__}()", caller)
            return method(self, *args, **kwargs)
        return checked

    # The NIC-consumer half of the queue interface, and raw grants.
    for cls, name in ((WorkQueue, "peek_head"), (WorkQueue, "advance_head"),
                      (WorkQueue, "flush"), (RNIC, "wake_written")):
        monkeypatch.setattr(cls, name, only_from(
            getattr(cls, name), lambda caller: _RDMA in caller, "consumer"))
    monkeypatch.setattr(WorkQueue, "grant", only_from(
        WorkQueue.grant, lambda caller: caller.endswith(_GRANTERS), "raw"))
    # Private rdma routines: from inside the layer or a kernel callback.
    for cls in (RNIC, WorkQueue, QueuePair, CompletionQueue):
        for name, member in list(vars(cls).items()):
            if name.startswith("_") and not name.startswith("__") \
                    and inspect.isfunction(member):
                monkeypatch.setattr(cls, name, only_from(
                    member, lambda caller: _RDMA in caller
                    or caller.endswith(_KERNEL), "private"))
    return record


#: How the audit issues each primitive a client may declare.
_ISSUE = {
    OpKind.GWRITE: lambda group: [group.gwrite(0, 256),
                                  group.gwrite(512, 64, durable=True)],
    OpKind.GMEMCPY: lambda group: [group.gmemcpy(0, 1024, 128)],
    OpKind.GFLUSH: lambda group: [group.gflush()],
    OpKind.GCAS: lambda group: [group.gcas(4096, 7, 9)],
    READ: lambda group: [group.remote_read(group.group_size - 1, 0, 64)],
}


def test_every_primitive_keeps_ring_writes_in_the_rdma_layer(
        audit, cluster, client_kind, request):
    group = request.getfixturevalue("client_group")
    assert audit.queues
    sim = cluster.sim
    group.write_local(0, b"a" * 256)
    group.write_local(4096, (7).to_bytes(8, "little"))
    events = []
    # Every primitive the client declares, in this order.
    for primitive in sorted(group.primitives, key=list(_ISSUE).index):
        events += _ISSUE[primitive](group)
    events += [group.gwrite(64 * index, 64) for index in range(12)]
    cluster.run(until=sim.now + ms(20))
    assert all(event.ok for event in events)
    group.close()
    cluster.run(until=sim.now + ms(1))
    assert audit.breaches == []


def test_aborted_ops_keep_ring_writes_in_the_rdma_layer(
        audit, cluster, client_kind, request):
    group = request.getfixturevalue("client_group")
    sim = cluster.sim
    events = [group.gwrite(64 * index, 64) for index in range(10)]
    group.member_hosts()[1].crash()
    cluster.run(until=sim.now + ms(2))
    group.abort_in_flight(RuntimeError("chain failure"))
    cluster.run(until=sim.now + ms(5))
    assert all(event.triggered for event in events)
    group.close()
    assert audit.breaches == []
