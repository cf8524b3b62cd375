"""Config-driven scenario construction.

Every experiment, benchmark and example in this tree needs the same three
things: a simulated cluster (client + replica hosts, with optional
multi-tenant CPU pressure), a replication group wired over it, and a
choice of *which* backend provides that group.  :class:`ScenarioConfig`
captures all of it as data, and :func:`build_scenario` turns it into a
live :class:`Scenario` — so a figure script, a CLI flag or a test
parameterisation can swap backends without importing any group class.

Quickstart::

    from repro.cluster import ScenarioConfig, build_scenario

    scenario = build_scenario(ScenarioConfig(
        backend="hyperloop", replicas=3, seed=1,
        backend_kwargs={"slots": 64}))
    group = scenario.build_group()

    def workload(sim):
        group.write_local(0, b"hello")
        result = yield group.gwrite(0, 5, durable=True)
        print(f"replicated in {result.latency_ns / 1000:.1f} us")

    scenario.cluster.sim.process(workload(scenario.cluster.sim))
    scenario.cluster.run()

The backend name resolves through :mod:`repro.backend`'s registry, so
out-of-tree backends registered with :func:`repro.backend.register` are
constructible the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from .. import backend as backend_registry
from ..backend.base import GroupBase, check_replicas
from ..host import Cluster, Host, HostParams

__all__ = ["ScenarioConfig", "Scenario", "build_scenario"]

#: §6.2 co-locates processes at a 10:1 ratio to cores.
DEFAULT_TENANTS_PER_CORE = 10


@dataclass
class ScenarioConfig:
    """Everything needed to stand up one replication scenario.

    Topology and load mirror the paper's testbed (§6): hosts with two
    8-core Xeons and a 56 Gbps NIC; multi-tenant pressure is injected as
    CPU-bound tenant threads (stress-ng in §6.1, co-located database
    instances in §6.2).
    """

    backend: str = "hyperloop"       # Registry name; see repro.backend.names().
    replicas: int = 3                # Replication factor (chain/fan-out width).
    seed: int = 0                    # Experiment RNG seed.
    cores: int = 16                  # Cores per host (2 × 8-core Xeons).
    replica_tenants: int = 0         # CPU-bound tenant threads per replica.
    client_tenants: int = 0          # ... and on the client host.
    tenant_kind: str = "bursty"      # Tenant load profile (Host.add_tenant_load).
    backend_kwargs: Dict[str, Any] = field(default_factory=dict)
    #                                  Backend config overrides (slots, ...).

    def __post_init__(self) -> None:
        # Fail at construction, not deep inside build_scenario: a config is
        # data that travels (through sweep points, pickles, CLI parsing), so
        # the place it was *made* is the place a typo is debuggable.
        if self.seed < 0:
            raise ValueError(
                f"seed must be non-negative, got {self.seed}")
        known = backend_registry.names()
        if self.backend not in known:
            raise ValueError(
                f"unknown replication backend {self.backend!r}; "
                f"registered: {', '.join(known)}")
        check_replicas(backend_registry.get(self.backend).group_cls,
                       self.replicas)


@dataclass
class Scenario:
    """A built scenario: live hosts plus a backend factory."""

    config: ScenarioConfig
    cluster: Cluster
    client: Host
    replicas: List[Host]

    def build_group(self, name: str = "", **overrides: Any) -> GroupBase:
        """Construct the configured backend over this scenario's hosts.

        ``overrides`` are merged over ``config.backend_kwargs`` (overrides
        win), so call sites can tweak one knob — e.g. ``slots=64`` — while
        the scenario carries the rest.
        """
        kwargs = dict(self.config.backend_kwargs)
        kwargs.update(overrides)
        return backend_registry.create(
            self.config.backend, self.client, self.replicas,
            group_name=name, **kwargs)


def build_scenario(config: Optional[ScenarioConfig] = None,
                   **overrides: Any) -> Scenario:
    """Stand up the hosts for ``config`` (without building a group yet).

    Keyword overrides are applied on top of ``config`` (or a default
    config), so ``build_scenario(replicas=5)`` works without constructing
    a :class:`ScenarioConfig` by hand.
    """
    if config is None:
        config = ScenarioConfig()
    if overrides:
        # Re-validates, so a bad name or replica count fails before hosts
        # are built.
        config = replace(config, **overrides)
    cluster = Cluster(seed=config.seed,
                      host_params=HostParams(cores=config.cores))
    client = cluster.add_host("client")
    replicas = cluster.add_hosts(config.replicas, prefix="replica")
    if config.client_tenants:
        client.add_tenant_load(config.client_tenants, kind=config.tenant_kind)
    for replica in replicas:
        if config.replica_tenants:
            replica.add_tenant_load(config.replica_tenants,
                                    kind=config.tenant_kind)
    return Scenario(config, cluster, client, replicas)
