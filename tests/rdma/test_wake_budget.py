"""Work budget of the NIC model per executed descriptor.

Counts, not timings: a fixed seed repeats them exactly.  The budget is the
pair the two skip rules exist for — how often a send queue looks at its
head for every descriptor it executes (targeted wake), and how many of
those looks need a fresh parse (content-keyed memo) — for the control
plane, what building and flushing one group's pre-posted rings may cost,
and for durability, what draining the NIC write cache into NVM may cost.
"""

import sys

import pytest

from repro.baseline.naive import NaiveConfig, NaiveGroup
from repro.core.group import GroupConfig, HyperLoopGroup
from repro.experiments.common import throughput_run
from repro.nvm.cache import NICWriteCache
from repro.nvm.memory import NVM, SparsePages
from repro.rdma import driver
from repro.rdma.driver import WorkQueue
from repro.sim.engine import Process, Simulator

from ..core.test_teardown import run

OPS = 50


def build_group(cluster, group_cls, config_cls):
    client = cluster.add_host("wb-client")
    replicas = cluster.add_hosts(3, prefix="wb-replica")
    group = group_cls(client, replicas,
                      config_cls(slots=64, region_size=1 << 20))
    return group, [client] + replicas


def durable_ops(group):
    """The loop both budgets are measured on: OPS durable gWRITE+gCAS."""
    for op in range(OPS):
        group.write_local(64, op.to_bytes(8, "little"))
        yield group.gwrite(64, 8, durable=True)
        yield group.gcas(0, op, op + 1, durable=True)


@pytest.mark.parametrize("group_cls, config_cls, peeks_per_exec", [
    (HyperLoopGroup, GroupConfig, 1.8),   # 3.0 with wake-everything.
    (NaiveGroup, NaiveConfig, 2.0),       # 4.1
])
def test_peeks_and_parses_per_executed_wqe(cluster, monkeypatch, group_cls,
                                           config_cls, peeks_per_exec):
    counts = {"peeks": 0, "decodes": 0}
    peek_head, decode_wqe = WorkQueue.peek_head, driver.decode_wqe

    def counting_peek(queue):
        counts["peeks"] += 1
        return peek_head(queue)

    def counting_decode(raw):
        counts["decodes"] += 1
        return decode_wqe(raw)

    monkeypatch.setattr(WorkQueue, "peek_head", counting_peek)
    monkeypatch.setattr(driver, "decode_wqe", counting_decode)
    group, hosts = build_group(cluster, group_cls, config_cls)
    run(cluster, durable_ops(group))
    executed = sum(host.nic.wqes_executed.value for host in hosts)
    assert executed > 0
    assert counts["peeks"] / executed <= peeks_per_exec
    assert counts["decodes"] <= 0.6 * counts["peeks"]
    group.close()


@pytest.mark.parametrize("group_cls, config_cls, events_per_exec", [
    (HyperLoopGroup, GroupConfig, 5.8),   # 5.53; 6.44 with NIC processes.
    (NaiveGroup, NaiveConfig, 14.3),      # 13.71; 15.18
])
def test_nic_pipelines_run_without_processes(cluster, monkeypatch, group_cls,
                                             config_cls, events_per_exec):
    """The send queues and the ingress pipeline are callback chains: no
    model process is started from ``repro.rdma`` once the group is built,
    and each executed descriptor costs a bounded number of kernel events
    (``Simulator._schedule`` calls)."""
    group, hosts = build_group(cluster, group_cls, config_cls)
    spawned_by = []
    counts = {"events": 0}
    process_init, schedule = Process.__init__, Simulator._schedule

    def recording_init(process, *args, **kwargs):
        frame = sys._getframe(1)
        while frame.f_globals["__name__"] == "repro.sim.engine":
            frame = frame.f_back
        spawned_by.append(frame.f_globals["__name__"])
        process_init(process, *args, **kwargs)

    def counting_schedule(sim, time, kind, payload):
        counts["events"] += 1
        schedule(sim, time, kind, payload)

    monkeypatch.setattr(Process, "__init__", recording_init)
    monkeypatch.setattr(Simulator, "_schedule", counting_schedule)
    executed = -sum(host.nic.wqes_executed.value for host in hosts)
    run(cluster, durable_ops(group))
    executed += sum(host.nic.wqes_executed.value for host in hosts)
    assert executed >= 16 * OPS
    assert [name for name in spawned_by if name.startswith("repro.rdma")] == []
    assert counts["events"] / executed <= events_per_exec
    group.close()


def test_build_and_flush_work_per_preposted_slot(cluster, monkeypatch):
    """22 descriptors per slot are pre-posted (3 replicas x 7, plus the ACK
    RECV); only the 3 RECVs differ from slot to slot.  One encode and one
    ring write per descriptor was 22 x 64 = 1408 of each."""
    slots = 64
    counts = {"encodes": 0, "writes": 0, "peeks": 0}

    def counted(key, function):
        def counting(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)
        return counting

    monkeypatch.setattr(driver, "encode_wqe",
                        counted("encodes", driver.encode_wqe))
    monkeypatch.setattr(SparsePages, "write",
                        counted("writes", SparsePages.write))
    monkeypatch.setattr(WorkQueue, "peek_head",
                        counted("peeks", WorkQueue.peek_head))
    client = cluster.add_host("pb-client")
    group = HyperLoopGroup(client, cluster.add_hosts(3, prefix="pb-replica"),
                           GroupConfig(slots=slots, region_size=1 << 20))
    assert counts["encodes"] <= 3 * slots + 16
    assert counts["writes"] <= 3 * slots + 64
    assert counts["peeks"] == 0
    flushed = sum(qp.sq.outstanding for host in cluster.hosts.values()
                  for qp in host.nic.qps.values())
    assert flushed == 3 * 6 * slots
    group.close()
    assert counts["peeks"] == 0


def test_drain_persists_each_merged_range_once(cluster, monkeypatch):
    """Pipelined 64 KB gWRITEs dirty the same region range op after op, so
    a drain finds overlapping pending writes: it makes at most one
    ``NVM.persist`` per disjoint range, and ``persist`` copies pages
    without going through ``SparsePages.read``."""
    pending = {}                   # cache -> [(address, end)] since drained
    drains = []                    # (writes, disjoint ranges, persists)
    counts = {"persists": 0, "reads_in_persist": 0}
    inside_persist = []
    dma_write = NICWriteCache.dma_write
    persist_all = NICWriteCache._persist_all
    persist, read = NVM.persist, SparsePages.read

    def recording_dma_write(cache, address, data):
        if data:  # Recorded first: the write itself may force a drain.
            pending.setdefault(cache, []).append(
                (address, address + len(data)))
        dma_write(cache, address, data)

    def counting_persist_all(cache):
        writes = sorted(pending.pop(cache, []))
        disjoint, stop = 0, None
        for address, end in writes:
            if stop is None or address > stop:
                disjoint += 1
                stop = end
            stop = max(stop, end)
        before = counts["persists"]
        persist_all(cache)
        drains.append((len(writes), disjoint, counts["persists"] - before))

    def counting_persist(memory, address, size):
        counts["persists"] += 1
        inside_persist.append(True)
        try:
            persist(memory, address, size)
        finally:
            inside_persist.pop()

    def counting_read(pages, address, size):
        if inside_persist:
            counts["reads_in_persist"] += 1
        return read(pages, address, size)

    monkeypatch.setattr(NICWriteCache, "dma_write", recording_dma_write)
    monkeypatch.setattr(NICWriteCache, "_persist_all", counting_persist_all)
    monkeypatch.setattr(NVM, "persist", counting_persist)
    monkeypatch.setattr(SparsePages, "read", counting_read)
    client = cluster.add_host("pp-client")
    group = HyperLoopGroup(client, cluster.add_hosts(3, prefix="pp-replica"),
                           GroupConfig(slots=64, region_size=1 << 20))
    size = 64 * 1024
    throughput_run(group, size, 32 * size, window=8)
    group.close()
    assert counts["persists"] > 0
    assert any(writes > disjoint for writes, disjoint, _ in drains)
    for writes, disjoint, persists in drains:
        assert persists <= disjoint
    assert counts["reads_in_persist"] == 0
