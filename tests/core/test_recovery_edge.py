"""Recovery under adverse conditions: Naïve groups, writes across repair."""

from repro.faults import ReplicaFault
from repro.sim.units import ms

from .test_recovery import make_supervisor, wait_for_repair
from .test_teardown import run


class TestNaiveChains:
    def test_supervisor_over_naive_group(self, cluster):
        """The control path is implementation-agnostic (§5)."""
        manager, hosts, _spares = make_supervisor(cluster, backend="naive")

        def proc():
            group = manager.group
            group.write_local(0, b"naive-data")
            yield group.gwrite(0, 10, durable=True)
            hosts[0].crash()
            yield from wait_for_repair(manager)
            new_group = manager.group
            new_group.write_local(50, b"post-fix")
            yield new_group.gwrite(50, 8)
            return new_group

        new_group = run(cluster, proc(), deadline_ms=60_000)
        assert new_group.group_size == 2
        assert new_group.read_replica(1, 0, 10) == b"naive-data"
        assert new_group.read_replica(1, 50, 8) == b"post-fix"


class TestRepeatedCycles:
    def test_writes_resume_after_each_repair(self, cluster):
        manager, _hosts, _spares = make_supervisor(cluster)

        def proc():
            count = {"ok": 0, "aborted": 0}
            for i in range(30):
                yield manager.wait_healthy()
                group = manager.group
                group.write_local(0, i.to_bytes(4, "little"))
                try:
                    yield group.gwrite(0, 4)
                    count["ok"] += 1
                except ReplicaFault:
                    count["aborted"] += 1
                if i == 10:
                    manager.replica_hosts[1].crash()
            return count

        count = run(cluster, proc(), deadline_ms=60_000)
        assert count["ok"] >= 25
        assert count["ok"] + count["aborted"] == 30
        assert manager.repairs_completed == 1
        assert manager.group.read_replica(1, 0, 4) == (29).to_bytes(4, "little")
