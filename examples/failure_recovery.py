#!/usr/bin/env python3
"""Chain failure and recovery (the §5 recovery protocols).

Demonstrates the control path the paper keeps conventional: a replica
crashes mid-workload, heartbeats go silent, the replica-set manager
suspects it, aborts the in-flight operation, elects a coordinator among
the survivors and rebuilds the chain with a spare machine — after which
the accelerated data path resumes, state intact.

Run:  python examples/failure_recovery.py
"""

from repro import backend
from repro.cluster import ScenarioConfig, build_scenario
from repro.faults import HeartbeatConfig, ReplicaFault, ReplicaSetManager
from repro.sim.units import ms, to_ms


def main():
    scenario = build_scenario(ScenarioConfig(
        backend="hyperloop", replicas=3, seed=13,
        backend_kwargs={"slots": 32, "region_size": 4 << 20}))
    cluster = scenario.cluster
    client, replicas = scenario.client, scenario.replicas
    spare = cluster.add_host("spare")

    def make_group(client_host, replica_hosts):
        return backend.create(scenario.config.backend, client_host,
                              replica_hosts,
                              **scenario.config.backend_kwargs)

    manager = ReplicaSetManager(
        client, replicas, make_group, spares=[spare],
        heartbeat=HeartbeatConfig(period_ns=ms(2), miss_threshold=3))
    manager.start()
    manager.watchdog.on_suspect(
        lambda name, at: print(f"[{to_ms(at):7.1f} ms] DETECTED "
                               f"failure of {name}"))
    sim = cluster.sim

    def workload():
        group = manager.group
        # Normal operation.
        group.write_local(0, b"pre-crash state")
        yield group.gwrite(0, 15, durable=True)
        print(f"[{to_ms(sim.now):7.1f} ms] wrote pre-crash state to all "
              "3 replicas")

        # Crash the middle replica.
        yield sim.timeout(ms(5))
        crashed_at = sim.now
        print(f"[{to_ms(sim.now):7.1f} ms] CRASH: {replicas[1].name} "
              "loses power")
        replicas[1].crash()

        # An in-flight op is aborted once the drain grace expires.
        group.write_local(100, b"caught mid-air")
        pending = group.gwrite(100, 14, durable=True)
        try:
            yield pending
            raise AssertionError("op completed on a broken chain")
        except ReplicaFault as fault:
            print(f"[{to_ms(sim.now):7.1f} ms] in-flight op aborted: "
                  f"{fault}")

        # Wait out election, rebuild with the spare and catch-up.
        yield manager.wait_healthy()
        new_group = manager.group
        record = manager.reconfigs[0]
        print(f"[{to_ms(sim.now):7.1f} ms] chain repaired: "
              f"{[r.host.name for r in new_group.replicas]}")
        print(f"    detection {to_ms(record.suspected_ns - crashed_at):.2f}"
              f" ms, election {to_ms(record.election.duration_ns):.2f} ms "
              f"(winner {record.election.winner}), "
              f"catch-up {to_ms(record.catchup_ns):.2f} ms")
        assert record.failed_host == replicas[1].name
        assert record.replacement == spare.name

        # State carried over; the data path is accelerated again.
        assert new_group.read_replica(2, 0, 15) == b"pre-crash state"
        new_group.write_local(100, b"caught mid-air")
        result = yield new_group.gwrite(100, 14, durable=True)
        print(f"[{to_ms(sim.now):7.1f} ms] retried op committed in "
              f"{result.latency_ns / 1000:.1f} us on the new chain")
        assert new_group.read_replica(2, 100, 14) == b"caught mid-air"

    process = sim.process(workload())
    deadline = ms(500)
    while not process.triggered and sim.peek() is not None \
            and sim.peek() <= deadline:
        sim.step()
    if not process.ok:
        raise process.value
    print("done.")


if __name__ == "__main__":
    main()
