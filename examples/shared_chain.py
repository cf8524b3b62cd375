#!/usr/bin/env python3
"""Multiple clients sharing one replication chain (§5's future work).

"Multiple clients can be supported in the future using shared receive
queues on the first replica in the chain" — this example runs that
design: three independent clients on three different machines write
through ONE chain of three replicas.  The head replica's shared receive
queue serializes their operations in arrival order; the replicas' NICs do
all the forwarding; replica CPUs stay at exactly zero.

Run:  python examples/shared_chain.py
"""

from repro import Cluster, GroupConfig, SharedChain
from repro.sim.units import to_us


def main():
    cluster = Cluster(seed=33)
    owner = cluster.add_host("app-server-0")
    peers = [cluster.add_host(f"app-server-{i}") for i in (1, 2)]
    replicas = cluster.add_hosts(3, prefix="storage")
    hosts = [owner, *peers, *replicas]

    def held():
        """Each host's NIC objects and resident memory pages."""
        return [(len(host.nic.qps), len(host.nic.cqs), len(host.nic.mrs),
                 host.memory._data.resident_bytes) for host in hosts]

    before = held()
    chain = SharedChain(owner, replicas,
                        GroupConfig(slots=48, region_size=4 << 20),
                        max_clients=3)
    clients = [chain.attach_client(host) for host in [owner] + peers]
    sim = cluster.sim
    latencies = {index: [] for index in range(3)}

    def app(client, index):
        base = index * 64 * 1024
        client.write_local(base, f"tenant-{index}-row".encode().ljust(64))
        for _ in range(30):
            result = yield client.gwrite(base, 64, durable=True)
            latencies[index].append(result.latency_ns)
        yield client.gmemcpy(base, base + 4096, 64)

    processes = [sim.process(app(client, index))
                 for index, client in enumerate(clients)]
    sim.run_until(sim.all_of(processes))
    for process in processes:
        if not process.ok:
            raise process.value

    for index, samples in latencies.items():
        avg = sum(samples) / len(samples)
        print(f"client {index} on {clients[index].host.name:<13}: "
              f"{len(samples)} durable writes, avg {to_us(avg):5.1f} us")
    # Every client's rows are on every replica.
    for index in range(3):
        base = index * 64 * 1024
        for replica in chain.replicas:
            row = replica.host.memory.read(replica.region.address + base, 16)
            assert row.startswith(f"tenant-{index}".encode())
    print("all 3 tenants' rows present on all 3 replicas "
          "(plus the gMEMCPY copies)")
    for host in replicas:
        assert all(thread.cpu_time_ns == 0 for thread in host.cpu.threads)
    print("replica CPU time across 92 shared-chain operations: 0 ns")

    # Closing the chain closes its clients and returns every QP, CQ, MR
    # and page it took, on every host.
    chain.close()
    assert held() == before
    print("chain closed: every host is back to its NIC objects and pages")


if __name__ == "__main__":
    main()
