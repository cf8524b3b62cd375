"""The client machinery every backend shares (``GroupBase``).

Parametrized over every registered backend plus one client of a shared
(SRQ) chain through the ``client_kind`` / ``client_group`` fixtures, so
the window and ACK bookkeeping is held to one contract wherever the
submit loop is used.
"""

import pytest

from repro import backend as backend_registry
from repro.core.group import GroupConfig
from repro.core.multiclient import SharedChain
from repro.sim.units import ms, us


def test_late_acks_after_abort_leave_window_empty(cluster, client_group):
    """ACKs that arrive for ops ``abort_in_flight`` already failed must
    not be counted: the window stays at zero and ``drain()`` fires."""
    group = client_group
    sim = cluster.sim
    events = [group.gwrite(index * 64, 64) for index in range(4)]
    # Long enough for the first SENDs to be posted, too short for an ACK.
    cluster.run(until=sim.now + us(3))
    assert not any(event.triggered for event in events)
    assert group.abort_in_flight(RuntimeError("chain failure")) == 4
    assert all(not event.ok for event in events)
    cluster.run(until=sim.now + ms(5))
    assert group.in_flight == 0
    assert group.drain().triggered
    # The window still works: a fresh write completes and drains.
    group.write_local(0, b"after")
    done = group.gwrite(0, 5)
    cluster.run(until=sim.now + ms(5))
    assert done.ok
    assert group.in_flight == 0


# Ten ops into a window of 8: eight in flight, one held by the submitter
# waiting for a slot, one still queued.
_OPS = 10


def _submit_writes(group, count=_OPS):
    """Submit ``count`` 64 B gWRITEs; returns their events and a list that
    records, per op, how many times it reached a terminal state."""
    ends = [0] * count
    events = []
    for index in range(count):
        event = group.gwrite(index * 64, 64)

        def count_end(_event, index=index):
            ends[index] += 1

        event.add_callback(count_end)
        events.append(event)
    return events, ends


def _assert_each_op_ended_once(cluster, group, events, ends):
    cluster.run(until=cluster.sim.now + ms(20))
    assert all(event.triggered for event in events)
    assert ends == [1] * len(events)
    assert group.in_flight == 0 and group.queue_depth == 0
    assert group.drain().triggered


@pytest.mark.parametrize("chain", ["live", "dead"])
def test_abort_ends_every_op_once(cluster, client_group, chain):
    """Queued, held and in-flight ops all fail on abort — none is left
    pending, on a chain that still ACKs or one that never will."""
    group = client_group
    sim = cluster.sim
    events, ends = _submit_writes(group)
    if chain == "dead":
        cluster.run(until=sim.now + us(2))
        group.member_hosts()[1].crash()
        cluster.run(until=sim.now + us(50))
    else:
        # Too short for any ACK to come back.
        cluster.run(until=sim.now + us(3))
    pending = sum(not event.triggered for event in events)
    assert pending > 0
    assert group.abort_in_flight(RuntimeError("chain failure")) == pending
    _assert_each_op_ended_once(cluster, group, events, ends)


def test_stall_then_abort_ends_every_op_once(cluster, client_group):
    group = client_group
    sim = cluster.sim
    group.stall(ms(1))
    events, ends = _submit_writes(group)
    cluster.run(until=sim.now + us(10))
    assert group.abort_in_flight(RuntimeError("chain failure")) == _OPS
    _assert_each_op_ended_once(cluster, group, events, ends)
    assert not any(event.ok for event in events)


def _registered_group(backend, client, replicas, name="", **options):
    return backend_registry.create(backend, client, replicas, slots=8,
                                   region_size=1 << 20, group_name=name,
                                   **options)


@pytest.mark.parametrize("backend", backend_registry.names())
def test_event_client_mode_spawns_no_poller(cluster, backend):
    """``client_mode="event"`` means no busy-polling ACK thread, on every
    backend, and ops still complete."""
    group = _registered_group(backend, cluster.add_host("ev-client"),
                              cluster.add_hosts(3, prefix="ev-replica"),
                              client_mode="event")
    assert group.poller is None
    events, ends = _submit_writes(group)
    _assert_each_op_ended_once(cluster, group, events, ends)
    assert all(event.ok for event in events)


@pytest.mark.parametrize("backend", backend_registry.names())
def test_close_ends_every_op_once(cluster, backend):
    group = _registered_group(backend, cluster.add_host("rg-client"),
                              cluster.add_hosts(3, prefix="rg-replica"))
    events, ends = _submit_writes(group)
    cluster.run(until=cluster.sim.now + us(5))
    group.close()
    _assert_each_op_ended_once(cluster, group, events, ends)
    assert not any(event.ok for event in events)


def test_drain_waits_for_an_op_held_by_a_stall(cluster, client_group):
    """``drain()`` must not fire while the submitter holds a stalled op:
    a rebalance would snapshot before that write lands."""
    group = client_group
    sim = cluster.sim
    group.stall(ms(1))
    group.write_local(0, b"held")
    done = group.gwrite(0, 4)
    cluster.run(until=sim.now + us(10))
    assert group.queue_depth == 0 and group.in_flight == 0
    drained = group.drain()
    assert not drained.triggered
    cluster.run(until=sim.now + ms(2))
    assert done.ok
    assert drained.triggered


@pytest.mark.parametrize("backend, options", [
    *(pytest.param(name, {}, id=name) for name in backend_registry.names()),
    pytest.param("naive", {"mode": "polling"}, id="naive-polling")])
def test_close_stops_the_client_poller(cluster, backend, options):
    """No busy poller survives ``close()``, on the client or a replica."""
    client = cluster.add_host("pl-client")
    replicas = cluster.add_hosts(3, prefix="pl-replica")
    for index in range(3):
        _registered_group(backend, client, replicas, f"pl{index}",
                          **options).close()
    cluster.run(until=cluster.sim.now + us(100))
    assert not [thread.name for host in (client, *replicas)
                for thread in host.cpu.threads if thread.is_busy_loop]


@pytest.mark.parametrize("backend", backend_registry.names())
def test_close_returns_every_nic_object(cluster, backend):
    """Three create/close cycles on one set of hosts leave every NIC with
    the QPs, CQs and MRs it had before the first group, and every host
    with the free memory it had."""
    client = cluster.add_host("nc-client")
    replicas = cluster.add_hosts(3, prefix="nc-replica")
    hosts = (client, *replicas)

    def nic_objects():
        return [(host.name, len(host.nic.qps), len(host.nic.cqs),
                 len(host.nic.mrs), host.memory.bytes_free)
                for host in hosts]

    before = nic_objects()
    for index in range(3):
        group = _registered_group(backend, client, replicas, f"nc{index}")
        group.write_local(0, b"x")
        done = group.gwrite(0, 1)
        cluster.run(until=cluster.sim.now + ms(1))
        assert done.ok
        group.close()
    cluster.run(until=cluster.sim.now + us(100))
    assert nic_objects() == before


def test_shared_chain_close_returns_every_nic_object(cluster):
    """The same for a shared (SRQ) chain with two clients: three cycles of
    create, attach, write and close leave every host with the QPs, CQs,
    MRs and resident pages it had before the first chain."""
    owner = cluster.add_host("sc-owner")
    peer = cluster.add_host("sc-peer")
    replicas = cluster.add_hosts(3, prefix="sc-replica")
    hosts = (owner, peer, *replicas)

    def held():
        return [(host.name, len(host.nic.qps), len(host.nic.cqs),
                 len(host.nic.mrs), host.memory._data.resident_bytes)
                for host in hosts]

    before = held()
    for index in range(3):
        chain = SharedChain(owner, replicas,
                            GroupConfig(slots=16, region_size=1 << 20),
                            name=f"sc{index}", max_clients=2)
        clients = [chain.attach_client(host) for host in (owner, peer)]
        writes = []
        for client in clients:
            client.write_local(0, b"x")
            writes.append(client.gwrite(0, 1))
        cluster.run(until=cluster.sim.now + ms(1))
        assert all(done.ok for done in writes)
        late = clients[1].gwrite(0, 1)
        chain.close()
        assert late.triggered and not late.ok
        chain.close()                       # Idempotent.
    cluster.run(until=cluster.sim.now + us(100))
    assert held() == before


def _owned(hosts, owner):
    """Per host: how many QPs, CQs and MRs are named ``owner.…``."""
    prefix = owner + "."

    def count(objects):
        return sum(item.name.startswith(prefix) for item in objects)

    return [(host.name, count(host.nic.qps.values()),
             count(host.nic.cqs.values()), count(host.nic.mrs.values()))
            for host in hosts]


@pytest.mark.parametrize("backend", backend_registry.names())
def test_close_spares_a_group_whose_name_extends_it(cluster, backend):
    """Closing ``g1`` leaves ``g10`` on the same hosts whole: its QPs, CQs
    and MRs stay, and it still ACKs a gWRITE."""
    client = cluster.add_host("ni-client")
    replicas = cluster.add_hosts(3, prefix="ni-replica")
    hosts = (client, *replicas)
    g1 = _registered_group(backend, client, replicas, "g1")
    g10 = _registered_group(backend, client, replicas, "g10")
    before = _owned(hosts, "g10")
    assert all(qps and cqs for _name, qps, cqs, _mrs in before)
    g1.close()
    assert _owned(hosts, "g1") == [(host.name, 0, 0, 0) for host in hosts]
    assert _owned(hosts, "g10") == before
    g10.write_local(0, b"kept")
    done = g10.gwrite(0, 4)
    cluster.run(until=cluster.sim.now + ms(1))
    assert done.ok
    assert g10.read_replica(2, 0, 4) == b"kept"


def test_shared_chain_client_close_spares_the_other_client(cluster):
    """Closing one client of a shared chain releases only its own QPs, CQs
    and buffers; the other client keeps ACKing."""
    owner = cluster.add_host("cc-owner")
    peer = cluster.add_host("cc-peer")
    replicas = cluster.add_hosts(3, prefix="cc-replica")
    hosts = (owner, peer, *replicas)
    chain = SharedChain(owner, replicas,
                        GroupConfig(slots=16, region_size=1 << 20),
                        name="cc", max_clients=2)
    clients = [chain.attach_client(host) for host in (owner, peer)]
    kept = _owned(hosts, "cc.c1")
    clients[0].close()
    assert _owned(hosts, "cc.c0") == [(host.name, 0, 0, 0) for host in hosts]
    assert _owned(hosts, "cc.c1") == kept
    clients[1].write_local(0, b"peer")
    done = clients[1].gwrite(0, 4)
    cluster.run(until=cluster.sim.now + ms(1))
    assert done.ok
    assert replicas[2].memory.read(chain.replicas[2].region.address,
                                   4) == b"peer"
    chain.close()
