"""Heartbeat mesh, watchdog, bully election and ReplicaSetManager."""

from __future__ import annotations

import pytest

from repro import backend as backend_registry
from repro.faults import (
    BullyElection,
    CrashProcess,
    ElectionConfig,
    FaultInjector,
    FaultPlan,
    HeartbeatConfig,
    HeartbeatMonitor,
    NvmPowerLoss,
    Partition,
    ReplicaFault,
    ReplicaSetManager,
    StragglerNic,
    Watchdog,
)
from repro.sim.units import ms, us


@pytest.fixture
def mesh(cluster):
    monitor_host = cluster.add_host("mon")
    watched = [cluster.add_host(f"w{i}") for i in range(3)]
    config = HeartbeatConfig(period_ns=ms(1), miss_threshold=3)
    monitor = HeartbeatMonitor(monitor_host, config)
    for host in watched:
        monitor.watch(host)
    monitor.start()
    return cluster, monitor, watched


class TestHeartbeatConfig:
    def test_default_deadline_derivation(self):
        config = HeartbeatConfig(period_ns=ms(5), miss_threshold=3)
        assert config.deadline_ns() == ms(20)

    def test_explicit_timeout_wins(self):
        config = HeartbeatConfig(period_ns=ms(5), timeout_ns=ms(7))
        assert config.deadline_ns() == ms(7)

    def test_validation(self):
        with pytest.raises(ValueError):
            HeartbeatConfig(period_ns=0).validate()
        with pytest.raises(ValueError):
            HeartbeatConfig(miss_threshold=0).validate()


class TestHeartbeatMonitor:
    def test_beats_arrive_each_period(self, mesh):
        cluster, monitor, watched = mesh
        cluster.run(until=ms(10))
        assert monitor.beats_received >= 3 * 8
        for host in watched:
            assert ms(10) - monitor.last_seen(host.name) < ms(2)

    def test_crashed_host_goes_silent(self, mesh):
        cluster, monitor, watched = mesh
        cluster.run(until=ms(5))
        watched[1].crash()
        silent_since = monitor.last_seen("w1")
        cluster.run(until=ms(15))
        assert monitor.last_seen("w1") == silent_since
        assert ms(15) - monitor.last_seen("w0") < ms(2)

    def test_unwatch_stops_tracking(self, mesh):
        cluster, monitor, _watched = mesh
        cluster.run(until=ms(3))
        monitor.unwatch("w2")
        assert monitor.watched_names() == ["w0", "w1"]
        cluster.run(until=ms(6))
        assert monitor.last_seen("w2") == 0

    def test_power_loss_silences_sender(self, mesh):
        cluster, monitor, watched = mesh
        cluster.run(until=ms(5))
        watched[0].fail_power()
        cluster.run(until=ms(6))
        silent_since = monitor.last_seen("w0")
        cluster.run(until=ms(15))
        assert monitor.last_seen("w0") == silent_since


class TestWatchdog:
    def test_suspects_after_deadline(self, mesh):
        cluster, monitor, watched = mesh
        watchdog = Watchdog(monitor)
        suspects = []
        watchdog.on_suspect(lambda name, at: suspects.append((name, at)))
        watchdog.start()
        cluster.run(until=ms(5))
        watched[1].crash()
        cluster.run(until=ms(20))
        assert [name for name, _at in suspects] == ["w1"]
        name, at = suspects[0]
        # Silence is measured from the last *beat* (just before the
        # crash), so suspicion lands within deadline + two sweep periods
        # of the crash itself.
        deadline = monitor.config.deadline_ns()
        assert deadline <= at - ms(5) \
            <= deadline + 2 * monitor.config.period_ns

    def test_healthy_hosts_never_suspected(self, mesh):
        cluster, monitor, _watched = mesh
        watchdog = Watchdog(monitor)
        watchdog.start()
        cluster.run(until=ms(30))
        assert watchdog.suspected == {}

    def test_suspicion_is_sticky_until_cleared(self, mesh):
        cluster, monitor, watched = mesh
        watchdog = Watchdog(monitor)
        watchdog.start()
        watched[0].crash()
        cluster.run(until=ms(10))
        assert "w0" in watchdog.suspected
        watchdog.clear("w0")
        assert "w0" not in watchdog.suspected


class TestBullyElection:
    def _hosts(self, cluster, count=3):
        return [cluster.add_host(f"e{i}") for i in range(count)]

    def test_highest_ranked_wins_when_all_alive(self, cluster):
        hosts = self._hosts(cluster)
        election = BullyElection(cluster.sim)
        result = None

        def driver():
            nonlocal result
            result = yield from election.elect(hosts, hosts[0])

        cluster.sim.process(driver())
        cluster.run(until=ms(50))
        assert result.winner == "e2"
        assert result.duration_ns > 0
        assert result.messages > 0

    def test_skips_dead_members(self, cluster):
        hosts = self._hosts(cluster)
        hosts[2].crash()
        election = BullyElection(cluster.sim)
        result = None

        def driver():
            nonlocal result
            result = yield from election.elect(hosts, hosts[0])

        cluster.sim.process(driver())
        cluster.run(until=ms(50))
        assert result.winner == "e1"

    def test_partitioned_member_not_elected(self, cluster):
        hosts = self._hosts(cluster)
        cluster.fabric.sever("e0", "e2", mode="drop")
        cluster.fabric.sever("e1", "e2", mode="drop")
        election = BullyElection(cluster.sim)
        result = None

        def driver():
            nonlocal result
            result = yield from election.elect(hosts, hosts[0])

        cluster.sim.process(driver())
        cluster.run(until=ms(50))
        assert result.winner == "e1"

    def test_dead_probe_costs_the_timeout(self, cluster):
        hosts = self._hosts(cluster)
        hosts[2].crash()
        config = ElectionConfig(message_rtt_ns=us(50),
                                response_timeout_ns=ms(1))
        election = BullyElection(cluster.sim, config)
        result = None

        def driver():
            nonlocal result
            result = yield from election.elect(hosts, hosts[0])

        cluster.sim.process(driver())
        cluster.run(until=ms(50))
        assert result.duration_ns >= ms(1)

    def test_initiator_must_be_member(self, cluster):
        hosts = self._hosts(cluster)
        outsider = cluster.add_host("outsider")
        election = BullyElection(cluster.sim)
        with pytest.raises(ValueError, match="not a member"):
            next(election.elect(hosts, outsider))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ElectionConfig(message_rtt_ns=0).validate()
        with pytest.raises(ValueError):
            ElectionConfig(message_rtt_ns=ms(2),
                           response_timeout_ns=ms(1)).validate()


_FAST_HEARTBEAT = HeartbeatConfig(period_ns=ms(1), miss_threshold=3)
#: Heartbeats slow enough to ride an 80 %-loaded replica CPU.
_LOADED_HEARTBEAT = HeartbeatConfig(period_ns=ms(10), miss_threshold=4)


def _manager(cluster, backend="hyperloop", spares=1,
             heartbeat=_FAST_HEARTBEAT, tenant_threads=0):
    client = cluster.add_host("rm-client")
    replicas = [cluster.add_host(f"rm-r{i}") for i in range(3)]
    spare_hosts = [cluster.add_host(f"rm-spare{i}") for i in range(spares)]
    if tenant_threads:
        for host in replicas:
            host.add_tenant_load(tenant_threads, kind="bursty")
    manager = ReplicaSetManager(
        client, replicas,
        lambda c, m: backend_registry.create(backend, c, m,
                                             slots=16, region_size=1 << 16),
        spares=spare_hosts, heartbeat=heartbeat)
    manager.start()
    return manager, replicas, spare_hosts


class TestReplicaSetManager:
    def test_start_is_idempotent(self, cluster):
        manager, replicas, _spares = _manager(cluster)
        manager.start()  # Already started by _manager: must not re-arm.
        cluster.run(until=ms(50))
        assert manager.healthy
        assert manager.detections == []
        assert manager.monitor.watched_names() == [h.name for h in replicas]
        # One suspicion callback, so a crash is recorded once.
        replicas[1].crash()
        cluster.run(until=ms(80))
        assert [name for name, _at in manager.detections] == ["rm-r1"]

    def test_no_false_positive_under_tenant_load(self, cluster):
        """Heartbeats ride the loaded CPU but stay within the deadline."""
        manager, _replicas, _spares = _manager(
            cluster, heartbeat=_LOADED_HEARTBEAT, tenant_threads=80)
        cluster.run(until=ms(400))
        assert manager.healthy
        assert manager.detections == []
        assert manager.reconfigs == []

    def test_crash_detected_under_tenant_load(self, cluster):
        manager, _replicas, _spares = _manager(
            cluster, heartbeat=_LOADED_HEARTBEAT, tenant_threads=80)
        FaultInjector(cluster,
                      FaultPlan([CrashProcess(ms(50), host="rm-r2")])).start()
        cluster.run(until=ms(400))
        assert [name for name, _at in manager.detections] == ["rm-r2"]
        assert [r.failed_host for r in manager.reconfigs] == ["rm-r2"]
        assert manager.healthy

    def test_two_crashes_without_spare_leave_one(self, cluster):
        manager, _replicas, _spares = _manager(cluster, spares=0)
        FaultInjector(cluster, FaultPlan([
            CrashProcess(ms(5), host="rm-r0"),
            CrashProcess(ms(25), host="rm-r1")])).start()
        cluster.run(until=ms(60))
        assert len(manager.reconfigs) == 2
        assert manager.group.group_size == 1

    def test_repeated_cycles_keep_every_round(self, cluster):
        """Two crash/repair cycles: both rounds' bytes reach the tail."""
        manager, _replicas, _spares = _manager(cluster, spares=2)
        sim = cluster.sim

        def cycles():
            for round_index in range(2):
                payload = f"round-{round_index}".encode()
                manager.group.write_local(round_index * 64, payload)
                yield manager.group.gwrite(round_index * 64, len(payload),
                                           durable=True)
                manager.replica_hosts[0].crash()
                while len(manager.reconfigs) == round_index:
                    yield sim.timeout(ms(1))

        sim.process(cycles())
        cluster.run(until=ms(60))
        assert len(manager.reconfigs) == 2
        final = manager.group
        assert final.group_size == 3
        assert final.read_replica(2, 0, 7) == b"round-0"
        assert final.read_replica(2, 64, 7) == b"round-1"

    def test_crash_triggers_full_reconfiguration(self, cluster):
        manager, replicas, spares = _manager(cluster)
        plan = FaultPlan([CrashProcess(ms(5), host="rm-r1")])
        FaultInjector(cluster, plan).start()
        cluster.run(until=ms(40))
        assert manager.healthy
        assert len(manager.reconfigs) == 1
        record = manager.reconfigs[0]
        assert record.failed_host == "rm-r1"
        assert record.replacement == "rm-spare0"
        assert record.election is not None
        assert record.duration_ns > 0
        # The new membership excludes the victim and includes the spare.
        names = [host.name for host in manager.replica_hosts]
        assert "rm-r1" not in names and "rm-spare0" in names
        # Detection is re-armed over the new membership.
        assert sorted(manager.monitor.watched_names()) == sorted(names)
        assert "rm-r1" not in manager.watchdog.suspected

    def test_in_flight_ops_aborted_with_replica_fault(self, cluster):
        manager, _replicas, _spares = _manager(cluster)
        sim = cluster.sim
        failures = []

        def writer():
            sequence = 0
            while sim.now < ms(30):
                group = manager.group
                sequence += 1
                group.write_local(0, sequence.to_bytes(8, "little"))
                try:
                    yield group.gwrite(0, 8, durable=True)
                except ReplicaFault as exc:
                    failures.append((exc.host_name, exc.hop))
                    yield manager.wait_healthy()
                except RuntimeError:
                    yield manager.wait_healthy()

        sim.process(writer())
        FaultInjector(cluster,
                      FaultPlan([CrashProcess(ms(5), host="rm-r1")])).start()
        cluster.run(until=ms(40))
        assert failures == [("rm-r1", 1)]
        assert not manager.reconfigs[0].drained
        assert manager.reconfigs[0].aborted_ops >= 1

    def test_idle_group_drains_gracefully(self, cluster):
        manager, _replicas, _spares = _manager(cluster)
        FaultInjector(cluster,
                      FaultPlan([CrashProcess(ms(5), host="rm-r2")])).start()
        cluster.run(until=ms(40))
        assert manager.reconfigs[0].drained
        assert manager.reconfigs[0].aborted_ops == 0

    def test_no_spare_rebuilds_smaller_group(self, cluster):
        manager, _replicas, _spares = _manager(cluster, spares=0)
        FaultInjector(cluster,
                      FaultPlan([CrashProcess(ms(5), host="rm-r0")])).start()
        cluster.run(until=ms(40))
        assert manager.reconfigs[0].replacement is None
        assert len(manager.replica_hosts) == 2
        assert manager.group.group_size == 2

    def test_wait_healthy_fires_immediately_when_healthy(self, cluster):
        manager, _replicas, _spares = _manager(cluster)
        assert manager.wait_healthy().triggered

    def test_partition_detected_and_repaired(self, cluster):
        manager, _replicas, _spares = _manager(cluster)
        plan = FaultPlan([Partition(
            ms(5), side_a=("rm-client", "rm-r0", "rm-r2", "rm-spare0"),
            side_b=("rm-r1",))])
        FaultInjector(cluster, plan).start()
        cluster.run(until=ms(40))
        assert [name for name, _at in manager.detections] == ["rm-r1"]
        assert manager.reconfigs[0].failed_host == "rm-r1"
        # The partitioned member must not win the election.
        assert manager.reconfigs[0].election.winner != "rm-r1"

    def test_nvm_power_loss_detected(self, cluster):
        manager, _replicas, _spares = _manager(cluster)
        FaultInjector(cluster,
                      FaultPlan([NvmPowerLoss(ms(5), host="rm-r1")])).start()
        cluster.run(until=ms(40))
        assert len(manager.reconfigs) == 1

    def test_extreme_straggler_evicted(self, cluster):
        manager, _replicas, _spares = _manager(cluster)
        FaultInjector(cluster, FaultPlan([
            StragglerNic(ms(5), host="rm-r1", factor=50_000.0,
                         duration_ns=ms(30))])).start()
        cluster.run(until=ms(60))
        assert len(manager.reconfigs) == 1
        assert manager.reconfigs[0].failed_host == "rm-r1"

    def test_catchup_copies_acked_state_to_replacement(self, cluster):
        manager, _replicas, spares = _manager(cluster)
        sim = cluster.sim
        payload = (42).to_bytes(8, "little")

        def writer():
            manager.group.write_local(64, payload)
            yield manager.group.gwrite(64, 8, durable=True)

        sim.process(writer())
        cluster.run(until=ms(2))
        FaultInjector(cluster,
                      FaultPlan([CrashProcess(ms(3), host="rm-r0")])).start()
        cluster.run(until=ms(40))
        # Every member of the rebuilt group — including the spare that
        # never saw the original write — holds the ACKed bytes.
        for hop in range(manager.group.group_size):
            assert manager.group.read_replica(hop, 64, 8) == payload
