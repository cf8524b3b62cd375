"""A replica engine's CQs only feed WAITs: they count, and keep nothing.

Nothing polls the CQs a replica engine creates.  Under CORE-Direct a WAIT
compares a completion count, so an engine CQ that stored every completion
would grow by one entry per op for as long as the group runs (a fig9 point
held ~300 k of them).  After N operations on every offloaded topology,
each engine CQ holds no entry, while the up and local CQs — the ones the
WAITs count — have counted exactly N more.
"""

import pytest

from repro.core.fanout import FanoutGroup
from repro.core.group import GroupConfig, HyperLoopGroup
from repro.core.multiclient import SharedChain
from repro.sim.units import ms

CONFIG = dict(slots=16, region_size=1 << 20)
OPS = 40


def hyperloop(cluster):
    group = HyperLoopGroup(cluster.add_host("client"),
                           cluster.add_hosts(3, prefix="replica"),
                           GroupConfig(**CONFIG), name="g")
    return group, [group]


def fanout(cluster):
    group = FanoutGroup(cluster.add_host("client"),
                        cluster.add_hosts(3, prefix="replica"),
                        GroupConfig(**CONFIG), name="g")
    return group, [group]


def shared(cluster):
    owner = cluster.add_host("owner")
    chain = SharedChain(owner, cluster.add_hosts(3, prefix="replica"),
                        GroupConfig(**CONFIG), name="g", max_clients=2)
    clients = [chain.attach_client(owner),
               chain.attach_client(cluster.add_host("peer"))]
    return chain, clients


def engine_cqs(topology):
    """Every CQ a node engine created, by name (``<node>.<x>cq``)."""
    return {cq.name: cq for node in topology.replicas
            for cq in node.host.nic.cqs.values()
            if cq.name.startswith(node.name + ".")}


@pytest.mark.parametrize("build", [hyperloop, fanout, shared])
def test_engine_cqs_count_ops_and_hold_no_entries(cluster, build):
    topology, clients = build(cluster)
    cqs = engine_cqs(topology)
    assert len(cqs) >= 2 * len(topology.replicas)
    before = {name: cq.count for name, cq in cqs.items()}
    events = []
    for index in range(OPS):
        client = clients[index % len(clients)]
        client.write_local(index * 64, b"w" * 64)
        events.append(client.gwrite(index * 64, 64))
    cluster.run(until=cluster.sim.now + ms(20))
    assert all(event.ok for event in events)
    for name, cq in cqs.items():
        assert cq.poll(1 << 20) == [], name
        if name.endswith((".upcq", ".localcq")):
            assert cq.count - before[name] == OPS, name
