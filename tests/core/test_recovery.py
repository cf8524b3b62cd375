"""Heartbeat failure detection and group repair through ReplicaSetManager."""

from repro import backend as backend_registry
from repro.faults import HeartbeatConfig, ReplicaFault, ReplicaSetManager
from repro.sim.units import ms

from .test_teardown import run


def make_supervisor(cluster, backend="hyperloop", spares=0, heartbeat=None):
    client = cluster.add_host("rc-client")
    hosts = cluster.add_hosts(3, prefix="rc-replica")
    spare_hosts = cluster.add_hosts(spares, prefix="rc-spare")
    manager = ReplicaSetManager(
        client, hosts,
        lambda c, m: backend_registry.create(backend, c, m, slots=16,
                                             region_size=1 << 20),
        spares=spare_hosts, heartbeat=heartbeat)
    manager.start()
    return manager, hosts, spare_hosts


def wait_for_repair(manager, count=1):
    """Yield until ``count`` reconfigurations have completed."""
    while manager.repairs_completed < count:
        yield manager.sim.timeout(ms(1))


class TestHealthyOperation:
    def test_no_false_positives_idle(self, cluster):
        """The default heartbeat never suspects an idle, healthy group."""
        manager, _hosts, _spares = make_supervisor(cluster)
        cluster.run(until=ms(200))
        assert manager.healthy
        assert manager.detections == []
        assert manager.repairs_completed == 0


class TestDetection:
    def test_crash_detected(self, cluster):
        manager, hosts, _spares = make_supervisor(cluster)
        cluster.run(until=ms(20))
        hosts[1].crash()
        cluster.run(until=ms(100))
        assert [name for name, _at in manager.detections] == [hosts[1].name]
        assert [r.failed_host for r in manager.reconfigs] == [hosts[1].name]

    def test_pending_ops_aborted_on_detection(self, cluster):
        manager, hosts, _spares = make_supervisor(cluster)
        group = manager.group
        outcome = []

        def proc():
            yield cluster.sim.timeout(ms(10))
            hosts[2].crash()
            group.write_local(0, b"stuck")
            event = group.gwrite(0, 5)
            try:
                yield event
                outcome.append("acked")
            except ReplicaFault as exc:
                outcome.append(("aborted", exc.hop))

        run(cluster, proc(), deadline_ms=500)
        assert outcome == [("aborted", 2)]

    def test_detection_latency_bounded(self, cluster):
        manager, hosts, _spares = make_supervisor(
            cluster, heartbeat=HeartbeatConfig(period_ns=ms(2),
                                               miss_threshold=2))
        cluster.run(until=ms(10))
        crash_time = cluster.sim.now
        hosts[0].crash()
        cluster.run(until=ms(60))
        assert manager.detections
        # Detected within a few periods of the threshold.
        assert manager.detections[0][1] - crash_time < ms(2) * 6
        assert manager.reconfigs[0].suspected_ns == manager.detections[0][1]


class TestRepair:
    def test_repair_drops_failed_replica(self, cluster):
        manager, hosts, _spares = make_supervisor(cluster)

        def proc():
            group = manager.group
            group.write_local(0, b"pre-crash!")
            yield group.gwrite(0, 10, durable=True)
            hosts[1].crash()
            yield from wait_for_repair(manager)
            return manager.group

        new_group = run(cluster, proc())
        assert new_group.group_size == 2
        assert manager.repairs_completed == 1
        assert manager.healthy
        assert hosts[1] not in manager.replica_hosts
        # State survived onto the new chain.
        for hop in range(2):
            assert new_group.read_replica(hop, 0, 10) == b"pre-crash!"

    def test_repair_with_replacement(self, cluster):
        manager, hosts, (spare,) = make_supervisor(cluster, spares=1)

        def proc():
            group = manager.group
            group.write_local(64, b"carried")
            yield group.gwrite(64, 7, durable=True)
            hosts[0].crash()
            yield from wait_for_repair(manager)
            # New chain fully functional, including the replacement tail.
            new_group = manager.group
            new_group.write_local(128, b"fresh")
            yield new_group.gwrite(128, 5, durable=True)
            return new_group

        new_group = run(cluster, proc())
        assert new_group.group_size == 3
        assert manager.replica_hosts[-1] is spare
        assert manager.reconfigs[0].replacement == spare.name
        assert new_group.read_replica(2, 64, 7) == b"carried"
        assert new_group.read_replica(2, 128, 5) == b"fresh"
