"""Tests for the one-sided client read path."""

import pytest

from repro.core.group import GroupConfig, HyperLoopGroup
from repro.sim.units import ms


def make_group(cluster):
    client = cluster.add_host("rp-client")
    replicas = cluster.add_hosts(3, prefix="rp-replica")
    return HyperLoopGroup(client, replicas,
                          GroupConfig(slots=16, region_size=1 << 20))


def run(cluster, generator, deadline_ms=2000):
    process = cluster.sim.process(generator)
    deadline = cluster.sim.now + ms(deadline_ms)
    while not process.triggered and cluster.sim.peek() is not None \
            and cluster.sim.peek() <= deadline:
        cluster.sim.step()
    assert process.triggered
    if not process.ok:
        raise process.value
    return process.value


class TestRead:
    def test_reads_each_replica_independently(self, cluster):
        group = make_group(cluster)

        def proc():
            # Plant distinct values directly into each replica's memory.
            for hop, replica in enumerate(group.replicas):
                replica.host.memory.write(replica.region.address + 10,
                                          bytes([hop + 1]) * 4)
            values = []
            for hop in range(3):
                values.append((yield group.remote_read(hop, 10, 4)))
            return values

        values = run(cluster, proc())
        assert values == [b"\x01" * 4, b"\x02" * 4, b"\x03" * 4]

    def test_concurrent_reads(self, cluster):
        group = make_group(cluster)

        def proc():
            group.write_local(0, b"concurrent-read-data")
            yield group.gwrite(0, 20)
            events = [group.remote_read(hop, 0, 20) for hop in range(3)]
            results = []
            for event in events:
                results.append((yield event))
            return results

        results = run(cluster, proc())
        assert results == [b"concurrent-read-data"] * 3

    def test_read_flushes_target_cache(self, cluster):
        """A one-sided READ forces the replica NIC cache to drain, so
        readers always observe durable-consistent bytes."""
        group = make_group(cluster)

        def proc():
            group.write_local(0, b"flushed-by-read")
            yield group.gwrite(0, 15)  # Not durable yet.
            yield group.remote_read(1, 0, 15)
            return group.replicas[1].host.memory.read_durable(
                group.replicas[1].region.address, 15)

        assert run(cluster, proc()) == b"flushed-by-read"

    def test_no_replica_cpu(self, cluster):
        group = make_group(cluster)

        def proc():
            for _ in range(10):
                yield group.remote_read(0, 0, 64)

        run(cluster, proc())
        for replica in group.replicas:
            assert all(thread.cpu_time_ns == 0
                       for thread in replica.host.cpu.threads)

    def test_oversized_read_rejected(self, cluster):
        group = make_group(cluster)
        with pytest.raises(ValueError):
            group.read_path.read(0, 0, group.read_path.MAX_READ + 1)

    def test_window_limit(self, cluster):
        group = make_group(cluster)
        for _ in range(group.read_path.SLOTS):
            group.read_path.read(0, 0, 8)
        with pytest.raises(RuntimeError):
            group.read_path.read(0, 0, 8)
