"""Backend-conformance suite: every registered backend, one contract.

Parametrized over ``repro.backend.names()``, so a backend registered by a
plugin (or a future in-tree variant) is automatically held to the same
write / gCAS / flush / recovery semantics the storage layer and the
experiments rely on.  Constructed through the registry — nothing here
imports a group class; the contract is :class:`~repro.backend.GroupBase`.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro import backend as backend_registry
from repro.backend import BackendSpec, GroupBase, OpKind, OpSpec
from repro.cluster import build_scenario
from repro.host import Cluster
from repro.sim.units import ms

REPLICAS = 3  # Fits every in-tree backend's replica bounds.


def all_backend_names():
    return backend_registry.names()


@pytest.fixture(params=all_backend_names())
def spec(request) -> BackendSpec:
    return backend_registry.get(request.param)


@pytest.fixture
def group(spec, cluster):
    client = cluster.add_host("conf-client")
    replicas = cluster.add_hosts(REPLICAS, prefix="conf-replica")
    return backend_registry.create(spec.name, client, replicas,
                                   slots=16, region_size=2 << 20)


def run(cluster: Cluster, generator, deadline_ms: int = 2000):
    process = cluster.sim.process(generator)
    deadline = cluster.sim.now + ms(deadline_ms)
    while not process.triggered and cluster.sim.peek() is not None \
            and cluster.sim.peek() <= deadline:
        cluster.sim.step()
    assert process.triggered, "workload did not finish"
    if not process.ok:
        raise process.value
    return process.value


class TestRegistry:
    def test_spec_fields(self, spec):
        assert spec.description
        assert spec.group_cls.min_replicas >= 1
        assert spec.group_cls.config_cls is not None

    def test_create_rejects_out_of_range_replicas(self, spec, cluster):
        """Class construction, ``backend.create`` and ``build_scenario``
        all refuse a replica count outside the class's bounds with the
        same error."""
        group_cls = spec.group_cls
        client = cluster.add_host("oor-client")
        counts = [group_cls.min_replicas - 1]
        if group_cls.max_replicas is not None:
            counts.append(group_cls.max_replicas + 1)
        for count in counts:
            hosts = cluster.add_hosts(count, prefix=f"oor{count}-")
            messages = set()
            for build in (
                    partial(group_cls, client, hosts),
                    partial(backend_registry.create, spec.name, client, hosts),
                    partial(build_scenario, backend=spec.name,
                            replicas=count)):
                with pytest.raises(ValueError, match="replicas") as caught:
                    build()
                messages.add(str(caught.value))
            assert len(messages) == 1, messages

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            backend_registry.get("no-such-backend")


class TestProtocol:
    def test_satisfies_protocol(self, group):
        assert isinstance(group, GroupBase)

    def test_membership(self, group):
        assert group.group_size == REPLICAS
        assert len(group.replicas) == REPLICAS
        hosts = group.member_hosts()
        assert [h.name for h in hosts] == \
            [f"conf-replica{i}" for i in range(REPLICAS)]
        for node in group.replicas:
            assert node.host in hosts
            assert node.region is not None


class TestWrite:
    def test_gwrite_replicates_everywhere(self, group, cluster):
        def proc():
            group.write_local(64, b"conformance")
            result = yield group.gwrite(64, 11)
            return result

        result = run(cluster, proc())
        assert result.latency_ns > 0
        for hop in range(REPLICAS):
            assert group.read_replica(hop, 64, 11) == b"conformance"

    def test_durable_gwrite_survives_power_loss(self, group, cluster):
        def proc():
            group.write_local(0, b"keep-me!")
            yield group.gwrite(0, 8, durable=True)

        run(cluster, proc())
        for hop, node in enumerate(group.replicas):
            node.host.fail_power()
            assert group.read_replica(hop, 0, 8) == b"keep-me!", hop

    def test_gmemcpy_moves_within_every_region(self, group, cluster):
        def proc():
            group.write_local(0, b"move-these-bytes")
            yield group.gwrite(0, 16)
            yield group.gmemcpy(0, 4096, 16)

        run(cluster, proc())
        for hop in range(REPLICAS):
            assert group.read_replica(hop, 4096, 16) == b"move-these-bytes"

    def test_out_of_range_write_rejected(self, group):
        with pytest.raises(ValueError):
            group.gwrite(group.config.region_size, 64)


class TestGcas:
    def test_gcas_swaps_on_match(self, group, cluster):
        def proc():
            result = yield group.gcas(128, 0, 7)
            return result

        result = run(cluster, proc())
        originals = result.cas_results()[:REPLICAS]
        assert originals == [0] * REPLICAS
        for hop in range(REPLICAS):
            value = int.from_bytes(group.read_replica(hop, 128, 8), "little")
            assert value == 7

    def test_gcas_mismatch_leaves_value_and_reports(self, group, cluster):
        def proc():
            yield group.gcas(128, 0, 5)        # 0 -> 5 everywhere.
            result = yield group.gcas(128, 1, 9)  # Expect 1: must fail.
            return result

        result = run(cluster, proc())
        assert result.cas_results()[:REPLICAS] == [5] * REPLICAS
        for hop in range(REPLICAS):
            value = int.from_bytes(group.read_replica(hop, 128, 8), "little")
            assert value == 5

    def test_gcas_execute_map_length_validated(self, group):
        with pytest.raises(ValueError):
            group.gcas(128, 0, 1, execute_map=[True])


class TestFlush:
    def test_gflush_completes_and_persists_prior_writes(self, group, cluster):
        def proc():
            group.write_local(256, b"flushed")
            yield group.gwrite(256, 7)
            result = yield group.gflush()
            return result

        result = run(cluster, proc())
        assert result.latency_ns > 0
        for hop, node in enumerate(group.replicas):
            node.host.fail_power()
            assert group.read_replica(hop, 256, 7) == b"flushed"

    def test_bare_gflush_makes_every_replica_durable(self, group, cluster):
        """A gFLUSH submitted as an ``OpSpec`` (``durable`` left False)
        flushes every replica, not only the head: by its ACK, a volatile
        write before it is durable everywhere."""
        payload = b"f" * 64

        def proc():
            group.write_local(512, payload)
            yield group.gwrite(512, 64)
            yield group.submit(OpSpec(OpKind.GFLUSH))
            return [node.host.memory.read_durable(node.region.address + 512,
                                                  64)
                    for node in group.replicas]

        assert run(cluster, proc()) == [payload] * REPLICAS


class TestRecovery:
    def test_abort_in_flight_fails_pending_ops(self, group, cluster):
        failures = []

        def proc():
            group.write_local(0, b"x" * 512)
            pending = [group.gwrite(0, 512) for _ in range(4)]
            aborted = group.abort_in_flight(RuntimeError("chain down"))
            assert aborted == 4
            assert group.in_flight == 0
            for event in pending:
                try:
                    yield event
                except RuntimeError as exc:
                    failures.append(exc)

        run(cluster, proc())
        assert len(failures) == 4

    def test_close_releases_resources_and_rejects_new_ops(self, group,
                                                          cluster):
        def proc():
            group.write_local(0, b"before-close")
            yield group.gwrite(0, 12)

        run(cluster, proc())
        group.close()
        with pytest.raises(RuntimeError):
            group.gwrite(0, 12)
        with pytest.raises(RuntimeError, match="closed"):
            group.remote_read(0, 0, 12)

    def test_rebuild_after_close_reuses_hosts(self, spec, group, cluster):
        """A supervisor's repair path: tear down, rebuild on the same
        hosts through the registry, and the new group works."""
        def proc():
            group.write_local(0, b"generation-1")
            yield group.gwrite(0, 12)

        run(cluster, proc())
        client, hosts = group.client_host, group.member_hosts()
        group.close()
        rebuilt = backend_registry.create(spec.name, client, hosts,
                                          slots=16, region_size=2 << 20)

        def proc2():
            rebuilt.write_local(0, b"generation-2")
            yield rebuilt.gwrite(0, 12)

        run(cluster, proc2())
        for hop in range(REPLICAS):
            assert rebuilt.read_replica(hop, 0, 12) == b"generation-2"
