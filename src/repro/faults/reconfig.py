"""Heartbeat-driven group reconfiguration.

:class:`ReplicaSetManager` owns one replication group's availability
lifecycle and wires the whole pipeline together:

    heartbeats -> watchdog suspicion -> bully election -> reconfigure

Reconfiguration reuses the group-side hooks that already exist for
online rebalancing (:meth:`repro.backend.base.GroupBase.drain` /
``stall``):

1. **Quiesce or abort.**  The manager grants the old group a bounded
   *drain grace* — if every in-flight op completes (straggler faults:
   slow but alive), the reconfiguration is graceful and nothing is
   failed; if the grace expires (crash/partition: in-flight ops will
   never complete), the remainder is aborted with
   :class:`ReplicaFault`, which well-behaved writers catch and retry
   after :meth:`ReplicaSetManager.wait_healthy`.
2. **Elect.**  The surviving replicas run a bully election; the winner
   (highest-ranked responsive member) coordinates the rebuild.  Time
   and message costs are charged.
3. **Rebuild + catch-up.**  A new group is built over the survivors
   plus a spare.  The client's region is authoritative (every ACKed op
   reached it), so it is bulk-copied to every member at the catch-up
   bandwidth — and the *new* group is stalled for exactly that window
   ("writes are paused for a short duration of catch-up phase", §5.1):
   early submissions queue but are not served ahead of the copied
   state.
4. **Re-arm detection.**  The failed host is unwatched, the spare is
   watched, the watchdog suspicion is cleared.

Every stage is timestamped into a :class:`ReconfigRecord`, so
experiments can report detection latency, election time and
rebuild/catch-up time separately — they respond to different knobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from ..sim.engine import Event, ProcessGenerator, Simulator
from ..sim.units import gbps_to_bytes_per_ns, ms
from .detect import HeartbeatConfig, HeartbeatMonitor, Watchdog
from .election import BullyElection, ElectionConfig, ElectionResult

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..backend.base import GroupBase
    from ..host import Host

__all__ = ["ReplicaFault", "ReconfigConfig", "ReconfigRecord",
           "ReplicaSetManager"]

GroupFactory = Callable[["Host", List["Host"]], "GroupBase"]


class ReplicaFault(Exception):
    """Raised into pending operations when a replica is declared failed."""

    def __init__(self, host_name: str, hop: int):
        super().__init__(f"replica {hop} ({host_name}) declared failed")
        self.host_name = host_name
        self.hop = hop


@dataclass(frozen=True)
class ReconfigConfig:
    drain_grace_ns: int = ms(2)           # Graceful-quiesce window.
    catchup_bandwidth_gbps: float = 40.0  # Bulk state-copy rate.
    catchup_cpu_ns: int = 200_000         # Per-member control-plane work.

    def validate(self) -> None:
        if self.drain_grace_ns < 0:
            raise ValueError("drain_grace_ns must be >= 0")
        if self.catchup_bandwidth_gbps <= 0:
            raise ValueError("catchup_bandwidth_gbps must be > 0")


@dataclass
class ReconfigRecord:
    """Timestamped account of one completed reconfiguration."""

    failed_host: str
    suspected_ns: int            # Watchdog suspicion time.
    started_ns: int              # Reconfiguration process start.
    election: Optional[ElectionResult]
    drained: bool                # Graceful quiesce vs abort.
    aborted_ops: int
    catchup_ns: int              # Rebuild + state copy duration.
    completed_ns: int
    replacement: Optional[str]

    @property
    def duration_ns(self) -> int:
        """Suspicion to healthy — the control-path half of the outage."""
        return self.completed_ns - self.suspected_ns


class ReplicaSetManager:
    """Availability supervisor for one replication group."""

    def __init__(self, client_host: "Host", replicas: Sequence["Host"],
                 make_group: GroupFactory,
                 spares: Sequence["Host"] = (),
                 heartbeat: Optional[HeartbeatConfig] = None,
                 reconfig: Optional[ReconfigConfig] = None,
                 election: Optional[ElectionConfig] = None,
                 name: str = "rsm"):
        self.client_host = client_host
        self.sim: Simulator = client_host.sim
        self.replica_hosts: List["Host"] = list(replicas)
        self.make_group = make_group
        self.spares: List["Host"] = list(spares)
        self.reconfig_config = reconfig or ReconfigConfig()
        self.reconfig_config.validate()
        self.name = name
        self.group: "GroupBase" = make_group(client_host,
                                             self.replica_hosts)
        self.healthy = True
        self.monitor = HeartbeatMonitor(client_host,
                                        heartbeat or HeartbeatConfig(),
                                        name=f"{name}.hb")
        self.watchdog = Watchdog(self.monitor, name=f"{name}.watchdog")
        self.election = BullyElection(self.sim, election)
        self.detections: List[tuple[str, int]] = []
        self.reconfigs: List[ReconfigRecord] = []
        self._healthy_waiters: List[Event] = []
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm detection; idempotent."""
        if self._started:
            return
        self._started = True
        for host in self.replica_hosts:
            self.monitor.watch(host)
        self.monitor.start()
        self.watchdog.on_suspect(self._on_suspect)
        self.watchdog.start()

    def wait_healthy(self) -> Event:
        """An event that fires once the group is (back) in service."""
        done = self.sim.event()
        if self.healthy:
            done.succeed()
        else:
            self._healthy_waiters.append(done)
        return done

    @property
    def repairs_completed(self) -> int:
        return len(self.reconfigs)

    # ------------------------------------------------------------------
    # Suspicion -> reconfiguration
    # ------------------------------------------------------------------
    def _on_suspect(self, host_name: str, suspected_ns: int) -> None:
        self.detections.append((host_name, suspected_ns))
        if not self.healthy:
            return  # A reconfiguration is already running; it re-arms us.
        if host_name not in [host.name for host in self.replica_hosts]:
            return  # A stale suspicion about an already-evicted host.
        self.healthy = False
        self.sim.process(self._reconfigure(host_name, suspected_ns),
                         name=f"{self.name}.reconfig.{host_name}")

    def _reconfigure(self, failed_name: str,
                     suspected_ns: int) -> ProcessGenerator:
        sim = self.sim
        config = self.reconfig_config
        started_ns = sim.now
        hop = [host.name for host in self.replica_hosts].index(failed_name)
        failed = self.replica_hosts[hop]
        old_group = self.group

        # 1. Drain grace: give in-flight ops a bounded chance to finish.
        #    Crash/partition ops hang and the grace expires; straggler
        #    ops limp home and the quiesce is graceful.
        drained = False
        aborted = 0
        if config.drain_grace_ns > 0:
            drain = old_group.drain()
            grace = sim.timeout(config.drain_grace_ns)
            yield sim.any_of([drain, grace])
            drained = drain.triggered and drain.ok
        if not drained:
            aborted = old_group.abort_in_flight(
                ReplicaFault(failed_name, hop))

        # 2. Bully election among the survivors.
        survivors = [host for host in self.replica_hosts
                     if host is not failed]
        result: Optional[ElectionResult] = None
        if survivors:
            initiator = survivors[0]
            result = yield from self.election.elect(survivors, initiator)

        # 3. Rebuild over survivors + a spare, then catch up.
        replacement: Optional["Host"] = None
        if self.spares:
            replacement = self.spares.pop(0)
        members = survivors + ([replacement] if replacement else [])
        if not members:
            raise RuntimeError(
                f"{self.name}: no replicas left to rebuild from")
        catchup_started = sim.now
        new_group = self.make_group(self.client_host, members)
        state = self.client_host.memory.read(old_group.region.address,
                                             old_group.region.size)
        self.client_host.memory.write(new_group.region.address, state)
        copy_ns = int(len(state) / gbps_to_bytes_per_ns(
            config.catchup_bandwidth_gbps))
        per_member_ns = config.catchup_cpu_ns + copy_ns
        # Pause the new group for the catch-up window (§5.1): early
        # submissions queue behind the stall instead of racing the copy.
        new_group.stall(per_member_ns * len(members))
        for replica in new_group.replicas:
            yield sim.timeout(config.catchup_cpu_ns)
            yield sim.timeout(copy_ns)
            replica.host.memory.write(replica.region.address, state)
            replica.host.memory.persist(replica.region.address, len(state))

        # 4. Swap in the new group and re-arm detection.
        self.monitor.unwatch(failed_name)
        if replacement is not None:
            self.monitor.watch(replacement)
        self.watchdog.clear(failed_name)
        self.replica_hosts = members
        self.group = new_group
        old_group.close()
        self.reconfigs.append(ReconfigRecord(
            failed_host=failed_name, suspected_ns=suspected_ns,
            started_ns=started_ns, election=result, drained=drained,
            aborted_ops=aborted, catchup_ns=sim.now - catchup_started,
            completed_ns=sim.now,
            replacement=replacement.name if replacement else None))
        self.healthy = True
        waiters, self._healthy_waiters = self._healthy_waiters, []
        for waiter in waiters:
            waiter.succeed()
