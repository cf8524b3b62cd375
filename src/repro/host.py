"""Simulated machines and clusters.

A :class:`Host` bundles what one server in the paper's testbed contributes:
a multi-core CPU (with background tenant load), NVM as the storage medium,
one RNIC attached to the shared fabric, and a power domain grouping the
volatile parts.  A :class:`Cluster` owns the simulator and fabric and builds
hosts with shared parameters — the "20 machines each equipped with two
8-core Xeon E5-2650v2 CPUs … and a Mellanox ConnectX-3 56 Gbps NIC" setup
(§6) in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .nvm.memory import NVM
from .nvm.power import PowerDomain
from .rdma.fabric import Fabric, FabricParams
from .rdma.nic import NICParams, RNIC
from .sim.cpu import HostCPU, SchedParams, Thread
from .sim.engine import Simulator
from .sim.rng import RandomStreams, exponential, lognormal_from_median
from .sim.units import MiB

__all__ = ["HostParams", "Host", "Cluster"]


@dataclass
class HostParams:
    """Per-machine configuration (paper's testbed defaults)."""

    cores: int = 16                  # Two 8-core Xeons.
    nvm_bytes: int = 4096 * MiB      # Sparse: only touched pages cost RAM.
    sched: SchedParams = field(default_factory=SchedParams)
    nic: NICParams = field(default_factory=NICParams)


class Host:
    """One server: CPU + NVM + RNIC + power domain."""

    def __init__(self, cluster: "Cluster", name: str,
                 params: Optional[HostParams] = None):
        self.cluster = cluster
        self.sim = cluster.sim
        self.name = name
        self.params = params or HostParams()
        self.cpu = HostCPU(self.sim, self.params.cores,
                           params=self.params.sched, name=f"{name}.cpu")
        self.memory = NVM(self.params.nvm_bytes, name=f"{name}.nvm")
        self.nic = RNIC(self.sim, self.memory, cluster.fabric, name,
                        params=self.params.nic)
        self.nic.tracer = cluster.tracer
        self.power = PowerDomain(name)
        self.power.register(self.nic)
        self.power.register(self.memory)
        self._tenants: List[Thread] = []
        self.crashed = False

    def spawn_thread(self, name: str) -> Thread:
        return self.cpu.spawn_thread(f"{self.name}.{name}")

    def add_tenant_load(self, threads: int, kind: str = "bursty",
                        duty_factor: float = 0.96) -> None:
        """Co-locate tenant processes — the multi-tenant pressure §2.2
        identifies as the root cause of tail latency.

        ``kind="hog"`` spawns pure CPU spinners (stress-ng-like).
        ``kind="bursty"`` (default) spawns I/O-active tenants that
        alternate CPU bursts with sleeps — the realistic model of "100s of
        replica processes" sharing the box.  Bursty tenants wake with the
        same scheduler sleeper credit a storage handler gets, so a handler
        wakeup queues behind 0..k freshly woken tenants, each holding a
        core for up to a timeslice: that queueing is where multi-tenant
        millisecond tails come from.
        ``kind="mixed"`` spawns half bursty tenants and half spinners —
        the profile of co-located database instances that both wake
        frequently *and* poll (§6.2's RocksDB co-location), which is what
        starves a polling backup while also delaying event wakeups.

        ``duty_factor`` is the target aggregate CPU demand as a multiple
        of the core count; keep it below 1 so the system is stationary —
        tails then come from transient queueing, not unbounded backlog.
        """
        if kind == "hog":
            self._tenants.extend(self.cpu.spawn_background_load(
                threads, name=f"{self.name}.tenant"))
            return
        if kind == "mixed":
            spinners = threads // 2
            self._tenants.extend(self.cpu.spawn_background_load(
                spinners, name=f"{self.name}.spintenant"))
            threads -= spinners
            kind = "bursty"
        if kind != "bursty":
            raise ValueError(f"unknown tenant kind {kind!r}")
        rng = self.cluster.rng.stream(f"{self.name}.tenants")
        burst_median_ns = 1_000_000          # ~1 ms CPU bursts.
        burst_sigma = 0.8
        # Lognormal mean exceeds the median; duty must use the mean or the
        # aggregate demand overshoots and the system never reaches steady
        # state.
        burst_mean_ns = burst_median_ns * math.exp(burst_sigma ** 2 / 2)
        per_tenant_duty = min(
            0.98, duty_factor * self.params.cores / max(1, threads))
        idle_mean_ns = burst_mean_ns * (1.0 / per_tenant_duty - 1.0)

        def tenant_loop(thread):
            while True:
                if self.crashed:
                    return
                burst = int(lognormal_from_median(rng, burst_median_ns,
                                                  burst_sigma))
                yield thread.run(max(10_000, burst))
                idle = int(exponential(rng, idle_mean_ns)) if idle_mean_ns > 0 else 0
                yield self.sim.timeout(max(1_000, idle))

        for i in range(threads):
            thread = self.cpu.spawn_thread(f"{self.name}.tenant{i}")
            self._tenants.append(thread)
            self.sim.process(tenant_loop(thread),
                             name=f"{self.name}.tenant{i}")

    def stop_tenant_load(self) -> None:
        for tenant in self._tenants:
            tenant.stop()
        self._tenants = []

    def fail_power(self) -> None:
        """Inject a power failure on this machine."""
        self.power.fail()

    def crash(self) -> None:
        """Fail-stop the machine: power failure plus a crashed flag that
        heartbeat senders and handlers observe on their next iteration."""
        self.crashed = True
        self.fail_power()
        self.stop_tenant_load()

    def __repr__(self) -> str:
        return f"<Host {self.name}>"


class Cluster:
    """The testbed: a simulator, a fabric, and a set of hosts."""

    def __init__(self, seed: int = 0,
                 fabric_params: Optional[FabricParams] = None,
                 host_params: Optional[HostParams] = None):
        self.sim = Simulator()
        self.fabric = Fabric(self.sim, fabric_params)
        self.rng = RandomStreams(seed)
        self.default_host_params = host_params or HostParams()
        self.hosts: Dict[str, Host] = {}
        self.tracer = None

    def enable_tracing(self, capacity: int = 1_000_000):
        """Install a :class:`~repro.sim.trace.Tracer`.

        NICs created before or after this call emit WQE/message events;
        every group client emits per-operation submit/posted/acked
        events.  Returns
        the tracer.
        """
        from .sim.trace import Tracer
        self.tracer = Tracer(capacity)
        for host in self.hosts.values():
            host.nic.tracer = self.tracer
        return self.tracer

    def add_host(self, name: str, params: Optional[HostParams] = None) -> Host:
        if name in self.hosts:
            raise ValueError(f"duplicate host name {name!r}")
        host = Host(self, name, params or self.default_host_params)
        self.hosts[name] = host
        return host

    def add_hosts(self, count: int, prefix: str = "node",
                  params: Optional[HostParams] = None) -> List[Host]:
        return [self.add_host(f"{prefix}{i}", params) for i in range(count)]

    def run(self, until: Optional[int] = None) -> None:
        self.sim.run(until=until)

    @property
    def now(self) -> int:
        return self.sim.now
