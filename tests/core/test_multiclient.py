"""Tests for multi-client shared chains (SRQ, §5's future work)."""

import pytest

from repro.backend.ops import READ, OpKind, OpSpec
from repro.core.group import GroupConfig
from repro.core.multiclient import SharedChain
from repro.sim.units import ms, us


def make_chain(cluster, clients=2, slots=16, replicas=3):
    owner = cluster.add_host("mc-owner")
    client_hosts = [owner] + [cluster.add_host(f"mc-client{i}")
                              for i in range(1, clients)]
    replica_hosts = cluster.add_hosts(replicas, prefix="mc-replica")
    chain = SharedChain(owner, replica_hosts,
                        GroupConfig(slots=slots, region_size=1 << 20),
                        max_clients=clients)
    handles = [chain.attach_client(host) for host in client_hosts]
    return chain, handles, replica_hosts


def run_all(cluster, generators, deadline_ms=10_000):
    processes = [cluster.sim.process(gen) for gen in generators]
    done = cluster.sim.all_of(processes)
    deadline = cluster.sim.now + ms(deadline_ms)
    while not done.triggered and cluster.sim.peek() is not None \
            and cluster.sim.peek() <= deadline:
        cluster.sim.step()
    assert done.triggered, "shared-chain workload did not finish"
    for process in processes:
        if not process.ok:
            raise process.value
    return [process.value for process in processes]


class TestBasics:
    def test_single_client_gwrite(self, cluster):
        chain, (client,), replicas = make_chain(cluster, clients=1)

        def proc():
            client.write_local(0, b"solo-shared")
            result = yield client.gwrite(0, 11)
            return result

        result = run_all(cluster, [proc()])[0]
        assert result.latency_ns > 0
        for replica in chain.replicas:
            raw = replica.host.memory.read(replica.region.address, 11)
            assert raw == b"solo-shared"

    def test_two_clients_interleave(self, cluster):
        chain, (client_a, client_b), _hosts = make_chain(cluster)

        def writer(client, base, tag):
            client.write_local(base, tag * 32)
            for _ in range(6):
                yield client.gwrite(base, 32)

        run_all(cluster, [writer(client_a, 0, b"A"),
                          writer(client_b, 4096, b"B")])
        for replica in chain.replicas:
            assert replica.host.memory.read(
                replica.region.address, 32) == b"A" * 32
            assert replica.host.memory.read(
                replica.region.address + 4096, 32) == b"B" * 32

    def test_zero_replica_cpu(self, cluster):
        chain, handles, replica_hosts = make_chain(cluster, clients=2)

        def writer(client, base):
            client.write_local(base, b"z" * 64)
            for _ in range(8):
                yield client.gwrite(base, 64)

        run_all(cluster, [writer(handle, i * 2048)
                          for i, handle in enumerate(handles)])
        for host in replica_hosts:
            assert all(thread.cpu_time_ns == 0
                       for thread in host.cpu.threads)

    def test_slot_reuse_across_clients(self, cluster):
        chain, handles, _hosts = make_chain(cluster, clients=2, slots=8)

        def writer(client, base, count):
            client.write_local(base, b"r" * 16)
            for _ in range(count):
                yield client.gwrite(base, 16)

        # 24 ops through 8 shared slots: three reuse cycles.
        run_all(cluster, [writer(handles[0], 0, 12),
                          writer(handles[1], 1024, 12)])
        for replica in chain.replicas:
            assert replica.host.memory.read(replica.region.address,
                                            16) == b"r" * 16

    def test_gmemcpy_and_gflush(self, cluster):
        chain, (client,), replica_hosts = make_chain(cluster, clients=1)

        def proc():
            client.write_local(0, b"copy-shared!")
            yield client.gwrite(0, 12)
            yield client.gmemcpy(0, 8192, 12)
            yield client.gflush()

        run_all(cluster, [proc()])
        replica_hosts[2].fail_power()
        tail = chain.replicas[2]
        assert tail.host.memory.read(tail.region.address + 8192,
                                     12) == b"copy-shared!"

    def test_durable_write(self, cluster):
        chain, (client,), replica_hosts = make_chain(cluster, clients=1)

        def proc():
            client.write_local(0, b"shared-durable")
            yield client.gwrite(0, 14, durable=True)

        run_all(cluster, [proc()])
        for hop, host in enumerate(replica_hosts):
            host.fail_power()
            replica = chain.replicas[hop]
            assert host.memory.read(replica.region.address, 14) \
                == b"shared-durable", hop


class TestLimits:
    def test_gcas_unsupported(self, cluster):
        _chain, (client,), _hosts = make_chain(cluster, clients=1)
        assert OpKind.GCAS not in client.primitives
        assert READ not in client.primitives
        with pytest.raises(NotImplementedError, match="gcas"):
            client.gcas(0, 0, 1)
        with pytest.raises(NotImplementedError, match="gcas"):
            client.submit(OpSpec(OpKind.GCAS, offset=0, new_value=1))
        with pytest.raises(NotImplementedError, match="read"):
            client.remote_read(0, 0, 8)

    def test_client_limit(self, cluster):
        chain, _handles, _hosts = make_chain(cluster, clients=2)
        extra = cluster.add_host("mc-extra")
        with pytest.raises(RuntimeError):
            chain.attach_client(extra)

    def test_quota_bounds_in_flight(self, cluster):
        chain, (client_a, client_b), _hosts = make_chain(cluster,
                                                         clients=2,
                                                         slots=8)
        assert client_a.quota == 4

        def proc():
            client_a.write_local(0, b"q" * 16)
            for _ in range(12):
                client_a.gwrite(0, 16)
            for _ in range(200):
                yield cluster.sim.timeout(1_000)
                assert client_a.in_flight <= client_a.quota + 1
            yield cluster.sim.timeout(ms(5))

        run_all(cluster, [proc()])

    def test_bounds_checked(self, cluster):
        _chain, (client,), _hosts = make_chain(cluster, clients=1)
        with pytest.raises(ValueError):
            client.gwrite(1 << 20, 8)

    def test_config_validation(self, cluster):
        owner = cluster.add_host("mc-v-owner")
        replicas = cluster.add_hosts(2, prefix="mc-v")
        with pytest.raises(ValueError):
            SharedChain(owner, replicas, GroupConfig(slots=2),
                        max_clients=4)
        with pytest.raises(ValueError):
            SharedChain(owner, [], GroupConfig())


class TestFairness:
    def test_many_clients_make_progress(self, cluster):
        chain, handles, _hosts = make_chain(cluster, clients=4, slots=32)

        def writer(client, base):
            client.write_local(base, b"f" * 8)
            for _ in range(15):
                yield client.gwrite(base, 8)
            return client.client_id

        results = run_all(cluster, [writer(handle, i * 512)
                                    for i, handle in enumerate(handles)],
                          deadline_ms=30_000)
        assert sorted(results) == [0, 1, 2, 3]


class TestInheritedMachinery:
    """What a shared-chain client inherits from ``GroupBase``."""

    def test_drain_waits_for_in_flight_acks(self, cluster):
        _chain, (client, _other), _hosts = make_chain(cluster)
        client.write_local(0, b"d" * 32)
        writes = [client.gwrite(0, 32) for _ in range(3)]
        drained = client.drain()
        assert not drained.triggered
        while not drained.triggered:
            cluster.sim.step()
        assert all(write.ok for write in writes)
        assert client.in_flight == 0
        assert client.drain().triggered

    def test_stall_holds_new_claims_until_it_expires(self, cluster):
        _chain, (client, _other), _hosts = make_chain(cluster)
        sim = cluster.sim
        client.stall(ms(1))
        assert client.stalled
        client.write_local(0, b"s" * 8)
        done = client.gwrite(0, 8)
        cluster.run(until=sim.now + ms(1) - 1)
        assert client.in_flight == 0 and not done.triggered
        cluster.run(until=sim.now + ms(1))
        assert done.ok
        assert done.value.latency_ns > ms(1)

    def test_abort_fails_queued_and_in_flight_ops(self, cluster):
        chain, (client, other), _hosts = make_chain(cluster, slots=4)
        sim = cluster.sim
        client.write_local(0, b"a" * 16)
        # Quota 2: two ops hold the window, the submitter holds the third
        # until the window reopens, and two wait in the queue.  Abort
        # fails all five, the held one included.
        writes = [client.gwrite(0, 16) for _ in range(5)]
        cluster.run(until=sim.now + us(5))
        assert client.in_flight == 2 and client.queue_depth == 2
        assert client.abort_in_flight(RuntimeError("chain failure")) == 5
        assert all(write.triggered and not write.ok for write in writes)
        cluster.run(until=sim.now + ms(1))
        assert client.in_flight == 0 and client.drain().triggered

        def writer(handle, base, tag):
            handle.write_local(base, tag * 16)
            for _ in range(5):
                yield handle.gwrite(base, 16)

        # Both clients keep completing writes through the shared slots.
        run_all(cluster, [writer(other, 4096, b"o"), writer(client, 0, b"c")])
        for replica in chain.replicas:
            assert replica.host.memory.read(
                replica.region.address + 4096, 16) == b"o" * 16
            assert replica.host.memory.read(
                replica.region.address, 16) == b"c" * 16
