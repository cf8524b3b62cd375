"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro import backend as backend_registry
from repro.core.group import GroupConfig
from repro.core.multiclient import SharedChain
from repro.host import Cluster, HostParams
from repro.sim.engine import Simulator

#: Parameter id of a client of a shared (SRQ) chain, next to the
#: registered backend names.
SHARED_CHAIN = "shared-chain"


def pytest_generate_tests(metafunc):
    # A test that takes ``client_kind`` runs once per client machinery:
    # every registered backend plus one client of a shared chain.
    if "client_kind" in metafunc.fixturenames:
        metafunc.parametrize("client_kind",
                             backend_registry.names() + [SHARED_CHAIN])


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def cluster() -> Cluster:
    return Cluster(seed=1234)


@pytest.fixture
def small_cluster() -> Cluster:
    """A 4-core cluster — cheaper for scheduler-heavy tests."""
    return Cluster(seed=99, host_params=HostParams(cores=4))


def drive(sim: Simulator, generator, until=None):
    """Run a generator process to completion and return its value."""
    process = sim.process(generator)
    if until is None:
        while not process.triggered and sim.peek() is not None:
            sim.step()
    else:
        sim.run(until=until)
    assert process.triggered, "process did not finish"
    if not process.ok:
        raise process.value
    return process.value


@pytest.fixture
def client_group(cluster, client_kind):
    """One client handle over three replicas, built as ``client_kind``
    says: a registered backend's group, or the first of two clients of a
    shared chain (16 shared slots, so its window is 8 like the groups')."""
    client = cluster.add_host("cg-client")
    replicas = cluster.add_hosts(3, prefix="cg-replica")
    if client_kind == SHARED_CHAIN:
        chain = SharedChain(client, replicas,
                            GroupConfig(slots=16, region_size=1 << 20),
                            max_clients=2)
        handle = chain.attach_client(client)
        chain.attach_client(cluster.add_host("cg-peer"))
        return handle
    return backend_registry.create(client_kind, client, replicas,
                                   slots=8, region_size=1 << 20)
