"""Resource lifecycle: group teardown returns memory and queues."""

import pytest

from repro.baseline.naive import NaiveConfig, NaiveGroup
from repro.core.group import GroupConfig, HyperLoopGroup
from repro.faults import ReplicaSetManager
from repro.sim.units import ms


def run(cluster, generator, deadline_ms=10_000):
    process = cluster.sim.process(generator)
    deadline = cluster.sim.now + ms(deadline_ms)
    while not process.triggered and cluster.sim.peek() is not None \
            and cluster.sim.peek() <= deadline:
        cluster.sim.step()
    assert process.triggered
    if not process.ok:
        raise process.value
    return process.value


class TestAllocatorFree:
    def test_free_and_reuse(self, cluster):
        host = cluster.add_host("fr")
        first = host.memory.allocate(4096, "one")
        host.memory.write(first.address, b"junk")
        free_before = host.memory.bytes_free
        host.memory.free(first)
        assert host.memory.bytes_free == free_before + 4096
        again = host.memory.allocate(4096, "two")
        assert again.address == first.address       # Reused.
        assert host.memory.read(again.address, 4) == bytes(4)  # Zeroed.

    def test_free_coalesces(self, cluster):
        host = cluster.add_host("fc")
        a = host.memory.allocate(1024, "a")
        b = host.memory.allocate(1024, "b")
        host.memory.free(a)
        host.memory.free(b)
        big = host.memory.allocate(2048, "big")
        assert big.address == a.address  # The two holes merged.

    def test_double_free_rejected(self, cluster):
        host = cluster.add_host("df")
        allocation = host.memory.allocate(64, "x")
        host.memory.free(allocation)
        with pytest.raises(ValueError):
            host.memory.free(allocation)

    def test_free_zeroes_durable_image_too(self, cluster):
        host = cluster.add_host("fz")
        allocation = host.memory.allocate(64, "d")
        host.memory.write(allocation.address, b"secret")
        host.memory.persist(allocation.address, 6)
        host.memory.free(allocation)
        assert host.memory.read_durable(allocation.address, 6) == bytes(6)


class TestGroupClose:
    def test_close_returns_all_memory(self, cluster):
        client = cluster.add_host("tc-client")
        replicas = cluster.add_hosts(3, prefix="tc-replica")
        baseline = [host.memory.bytes_free
                    for host in [client] + replicas]
        group = HyperLoopGroup(client, replicas,
                               GroupConfig(slots=16, region_size=1 << 20))

        def proc():
            group.write_local(0, b"to-be-closed")
            yield group.gwrite(0, 12)

        run(cluster, proc())
        group.close()
        for host, before in zip([client] + replicas, baseline):
            assert host.memory.bytes_free == before, host.name

    @pytest.mark.parametrize("group_cls, config_cls", [
        (HyperLoopGroup, GroupConfig), (NaiveGroup, NaiveConfig)])
    def test_close_returns_resident_pages(self, cluster, group_cls,
                                          config_cls):
        """Host RSS follows ``resident_bytes``: a closed group's regions
        and rings must stop costing real memory, not turn into zeros."""
        client = cluster.add_host("tr-client")
        replicas = cluster.add_hosts(3, prefix="tr-replica")
        hosts = [client] + replicas
        baseline = [host.memory._data.resident_bytes for host in hosts]
        group = group_cls(client, replicas,
                          config_cls(slots=16, region_size=1 << 20))

        def proc():
            group.write_local(4096, b"resident" * 1024)
            yield group.gwrite(4096, 8192, durable=True)

        run(cluster, proc())
        assert all(host.memory._data.resident_bytes > before
                   for host, before in zip(hosts, baseline))
        group.close()
        for host, before in zip(hosts, baseline):
            assert host.memory._data.resident_bytes == before, host.name

    def test_close_is_idempotent(self, cluster):
        client = cluster.add_host("ti-client")
        replicas = cluster.add_hosts(3, prefix="ti-replica")
        group = HyperLoopGroup(client, replicas,
                               GroupConfig(slots=8, region_size=1 << 20))
        group.close()
        group.close()

    def test_close_fails_pending_ops(self, cluster):
        client = cluster.add_host("tp-client")
        replicas = cluster.add_hosts(3, prefix="tp-replica")
        group = HyperLoopGroup(client, replicas,
                               GroupConfig(slots=8, region_size=1 << 20))

        def proc():
            replicas[1].nic.on_power_failure()
            group.write_local(0, b"stuck")
            event = group.gwrite(0, 5)
            yield cluster.sim.timeout(ms(1))
            group.close()
            with pytest.raises(RuntimeError):
                yield event

        run(cluster, proc())

    def test_naive_close_returns_memory(self, cluster):
        client = cluster.add_host("tn-client")
        replicas = cluster.add_hosts(3, prefix="tn-replica")
        baseline = [host.memory.bytes_free
                    for host in [client] + replicas]
        group = NaiveGroup(client, replicas,
                           NaiveConfig(slots=16, region_size=1 << 20))

        def proc():
            group.write_local(0, b"naive-close")
            yield group.gwrite(0, 11)

        run(cluster, proc())
        group.close()
        for host, before in zip([client] + replicas, baseline):
            assert host.memory.bytes_free == before, host.name

    def test_repeated_group_churn_does_not_leak(self, cluster):
        """Build/use/close many groups on the same hosts: memory stable."""
        client = cluster.add_host("ch-client")
        replicas = cluster.add_hosts(3, prefix="ch-replica")
        baseline = client.memory.bytes_free
        for round_index in range(10):
            group = HyperLoopGroup(client, replicas,
                                   GroupConfig(slots=8,
                                               region_size=1 << 20))

            def proc(group=group, round_index=round_index):
                group.write_local(0, round_index.to_bytes(4, "little"))
                yield group.gwrite(0, 4)

            run(cluster, proc())
            group.close()
        assert client.memory.bytes_free == baseline


class TestRecoveryTeardown:
    def test_repair_closes_old_group(self, cluster):
        client = cluster.add_host("rt-client")
        hosts = cluster.add_hosts(3, prefix="rt-replica")

        def factory(client_host, replica_hosts):
            return HyperLoopGroup(client_host, replica_hosts,
                                  GroupConfig(slots=16,
                                              region_size=1 << 20))

        manager = ReplicaSetManager(client, hosts, factory)
        manager.start()
        old_group = manager.group

        def proc():
            old_group.write_local(0, b"carry-over")
            yield old_group.gwrite(0, 10, durable=True)
            hosts[0].crash()
            while not manager.reconfigs:
                yield cluster.sim.timeout(ms(5))
            return manager.group

        new_group = run(cluster, proc(), deadline_ms=60_000)
        assert getattr(old_group, "_closed", False)
        # State survived the close (copied before teardown).
        assert new_group.read_replica(0, 0, 10) == b"carry-over"


class TestFanoutClose:
    def test_fanout_close_returns_memory(self, cluster):
        from repro.core.fanout import FanoutGroup
        client = cluster.add_host("tf-client")
        replicas = cluster.add_hosts(3, prefix="tf-replica")
        baseline = [host.memory.bytes_free
                    for host in [client] + replicas]
        group = FanoutGroup(client, replicas,
                            GroupConfig(slots=8, region_size=1 << 20))

        def proc():
            group.write_local(0, b"fanout-close")
            yield group.gwrite(0, 12)

        run(cluster, proc())
        group.close()
        for host, before in zip([client] + replicas, baseline):
            assert host.memory.bytes_free == before, host.name
