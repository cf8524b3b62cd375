"""Sharded deployments: N replication groups behind one hash ring.

This is the scale-out layer the paper's evaluation stops short of: §6
measures one HyperLoop group per tenant, while a production storage
service runs *many* groups — shards — behind a key router, over a shared
fabric and CPU pool.  :class:`ShardedConfig` describes such a deployment
as data; :func:`build_deployment` stands it up:

* one :class:`~repro.host.Cluster` (simulator + fabric) with a pool of
  hosts sized ``hosts`` (default: dedicated hardware per shard);
* a :class:`~repro.cluster.router.HashRing` mapping keys to shards,
  FNV-seeded so every process computes the identical map;
* a placement policy (:mod:`repro.cluster.placement`) assigning each
  shard's chain to pairwise-distinct hosts;
* one replication group per shard, built through the backend registry —
  any registered backend (``hyperloop``, ``naive``, ``fanout``, or an
  out-of-tree plugin) shards the same way.

Each shard is wrapped in a :class:`GroupHandle` holding the live group
plus the shard's key directory (key → record slot in the replicated
region).  Writes route by key::

    deployment = build_deployment(ShardedConfig(shards=4, replicas=3))
    def client(sim):
        result = yield deployment.write_record(7, seq=1, durable=True)
    process = deployment.sim.process(client(deployment.sim))
    deployment.run_until(process, deadline_ns=10**9)

**Online rebalancing.**  :meth:`ShardedDeployment.split_shard` adds a
shard under load and :meth:`ShardedDeployment.move_shard` relocates one
to different hosts; both follow the same drain→copy→flip protocol:

1. *Drain* — routing to the affected shard(s) is paused (arrivals park
   on a waiter, they are not dropped) and the group quiesces via the
   :meth:`~repro.backend.base.GroupBase.drain` hook, so every ACKed op
   is fully applied before any state is copied;
2. *Copy* — the moving keys' records are snapshotted from the drained
   group (:meth:`~repro.backend.base.GroupBase.snapshot_range`) and
   replicated into the successor group **via the backend's own
   replication primitive** (durable ``gwrite``), so migrated state is as
   replicated as it was at the source;
3. *Flip* — the ring epoch is bumped (membership change for a split,
   :meth:`~repro.cluster.router.HashRing.bump_epoch` for a move), the
   directory entries transfer, and parked requests are released; they
   re-route through the new ring, which *forwards* every in-flight
   request that hit a moved shard to its new home.

Acknowledged writes are never lost across a rebalance: an op is either
ACKed before the drain completes (then its bytes are part of the copied
snapshot) or parked and forwarded (then it executes — and is ACKed —
against the successor group).  ``tests/cluster/test_deployment.py``
pins this with a write-oracle under mid-run splits and moves.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Generator, Iterator, List, Optional

from .. import backend as backend_registry
from ..backend.base import GroupBase, check_replicas
from ..host import Cluster, Host, HostParams
from ..sim.engine import Event, Simulator
from ..traffic.admission import AdmissionConfig, AdmissionQueue
from .placement import PLACEMENTS, Assignment, PlacementPolicy, make_placement
from .router import DEFAULT_VNODES, HashRing

__all__ = ["ShardedConfig", "GroupHandle", "ShardedDeployment",
           "build_deployment", "encode_record"]

_RECORD_HEADER = struct.Struct("<QQ")  # key u64, seq u64


def encode_record(key: int, seq: int, record_size: int) -> bytes:
    """Deterministic record payload: ``(key, seq)`` header + fill.

    The rebalance tests use this as a write oracle: after any sequence
    of splits/moves, the record read back for ``key`` must decode to the
    last *acknowledged* ``seq``.
    """
    if record_size < _RECORD_HEADER.size:
        raise ValueError(
            f"record_size must be >= {_RECORD_HEADER.size}, got {record_size}")
    header = _RECORD_HEADER.pack(key & 0xFFFFFFFFFFFFFFFF,
                                 seq & 0xFFFFFFFFFFFFFFFF)
    fill = (f"r{key}.{seq}:".encode() * (record_size // 4 + 1))
    return header + fill[:record_size - _RECORD_HEADER.size]


@dataclass
class ShardedConfig:
    """Everything needed to stand up one sharded deployment."""

    shards: int = 4                  # Initial shard (group) count.
    replicas: int = 3                # Replication factor per shard.
    backend: str = "hyperloop"       # Registry name; see repro.backend.names().
    seed: int = 0                    # Experiment RNG + ring seed.
    hosts: int = 0                   # Host-pool size; 0 = shards*(replicas+1).
    cores: int = 16                  # Cores per host.
    vnodes: int = DEFAULT_VNODES     # Virtual nodes per shard on the ring.
    placement: str = "round-robin"   # Shard→host policy (see placement.py).
    record_size: int = 1024          # Bytes per key slot in a shard's region.
    records_per_shard: int = 4096    # Key-slot capacity per shard.
    host_tenants: int = 0            # CPU-bound tenant threads per pool host.
    tenant_kind: str = "bursty"      # Tenant load profile.
    admission_depth: int = 0         # Per-shard admission queue; 0 = none.
    admission_window: int = 32       # Concurrent dispatches per shard.
    backend_kwargs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.record_size < _RECORD_HEADER.size:
            raise ValueError(
                f"record_size must be >= {_RECORD_HEADER.size}, "
                f"got {self.record_size}")
        if self.records_per_shard < 1:
            raise ValueError("records_per_shard must be >= 1")
        if self.admission_depth < 0:
            raise ValueError(
                f"admission_depth must be >= 0, got {self.admission_depth}")
        if self.admission_depth and self.admission_window < 1:
            raise ValueError(
                f"admission_window must be >= 1, got {self.admission_window}")
        known = backend_registry.names()
        if self.backend not in known:
            raise ValueError(
                f"unknown replication backend {self.backend!r}; "
                f"registered: {', '.join(known)}")
        check_replicas(backend_registry.get(self.backend).group_cls,
                       self.replicas)
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement policy {self.placement!r}; "
                f"known: {', '.join(sorted(PLACEMENTS))}")
        if self.pool_size() < self.group_size():
            raise ValueError(
                f"host pool of {self.pool_size()} cannot hold a chain of "
                f"{self.group_size()} distinct hosts")

    def group_size(self) -> int:
        """Distinct hosts per shard chain: client + replicas."""
        return self.replicas + 1

    def pool_size(self) -> int:
        """Hosts in the shared pool (default: dedicated chain per shard)."""
        return self.hosts or self.shards * self.group_size()

    def region_size(self) -> int:
        """Replicated-region bytes per shard (records + scratch slack)."""
        return self.records_per_shard * self.record_size + 4096


class GroupHandle:
    """One shard: its live group, key directory, and routing state.

    The directory maps keys to fixed-size record slots inside the
    group's replicated region.  It lives *here*, not in the group —
    groups replicate bytes, the cluster layer decides what they mean —
    and it travels with the shard through splits and moves.
    """

    __slots__ = ("shard_id", "group", "assignment", "keys", "record_size",
                 "capacity", "state", "ops", "admission", "_next_record",
                 "_free", "_resume_waiters", "sim")

    def __init__(self, shard_id: int, group: GroupBase,
                 assignment: Assignment, record_size: int,
                 capacity: int, sim: Simulator,
                 admission: Optional[AdmissionQueue] = None) -> None:
        self.shard_id = shard_id
        self.group = group
        self.assignment = assignment
        self.record_size = record_size
        self.capacity = capacity
        self.sim = sim
        self.keys: Dict[int, int] = {}   # key -> record index
        self.state = "serving"           # "serving" | "draining"
        self.ops = 0                     # Routed ops accepted (stats).
        # Optional bounded load-leveling queue in front of the shard;
        # survives group swaps (it belongs to the shard, not the chain).
        self.admission = admission
        self._next_record = 0
        self._free: List[int] = []       # Slots freed by migrations out.
        self._resume_waiters: List[Event] = []

    # -- directory ------------------------------------------------------
    def offset_of(self, key: int, create: bool = False) -> int:
        """Region offset of ``key``'s record slot."""
        index = self.keys.get(key)
        if index is None:
            if not create:
                raise KeyError(
                    f"key {key} has no record on shard {self.shard_id}")
            if self._free:
                index = self._free.pop()
            else:
                index = self._next_record
                self._next_record += 1
            if index >= self.capacity:
                raise RuntimeError(
                    f"shard {self.shard_id} is full "
                    f"({self.capacity} records); split it first")
            self.keys[key] = index
        return index * self.record_size

    def release(self, key: int) -> None:
        """Forget ``key`` (its record migrated to another shard)."""
        index = self.keys.pop(key, None)
        if index is not None:
            self._free.append(index)

    # -- routing state --------------------------------------------------
    def pause(self) -> None:
        """Stop accepting routed ops; arrivals park until :meth:`resume`."""
        self.state = "draining"

    def resume(self) -> None:
        """Serve again and release every parked request to re-route."""
        self.state = "serving"
        if self._resume_waiters:
            waiters, self._resume_waiters = self._resume_waiters, []
            for waiter in waiters:
                waiter.succeed()

    def park(self) -> Event:
        """An event that fires when the shard resumes serving."""
        waiter = self.sim.event()
        self._resume_waiters.append(waiter)
        return waiter

    def swap_group(self, group: GroupBase,
                   assignment: Assignment) -> GroupBase:
        """Point the handle at a successor group; returns the old one."""
        old, self.group = self.group, group
        self.assignment = assignment
        return old

    def __repr__(self) -> str:
        return (f"<GroupHandle shard={self.shard_id} state={self.state} "
                f"keys={len(self.keys)} hosts={self.assignment.host_names()}>")


class ShardedDeployment:
    """N routed replication groups over one shared simulated cluster."""

    def __init__(self, config: ShardedConfig, cluster: Cluster,
                 pool: List[Host], ring: HashRing,
                 placement: PlacementPolicy) -> None:
        self.config = config
        self.cluster = cluster
        self.pool = pool
        self.ring = ring
        self.placement = placement
        self.handles: Dict[int, GroupHandle] = {}
        self.rebalances = 0              # Completed splits + moves.
        self._next_shard = 0
        self._acked_seq: Dict[int, int] = {}  # Write oracle: key -> last seq.
        self._closed = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_shard(self, shard_id: int,
                     exclude: Any = ()) -> GroupHandle:
        config = self.config
        assignment = self.placement.place(shard_id, config.group_size(),
                                          exclude=exclude)
        kwargs = dict(config.backend_kwargs)
        kwargs.setdefault("region_size", config.region_size())
        group = backend_registry.create(
            config.backend, assignment.client, assignment.replicas,
            group_name=f"shard{shard_id}", **kwargs)
        admission = None
        if config.admission_depth:
            admission = AdmissionQueue(
                self.sim,
                AdmissionConfig(depth=config.admission_depth,
                                window=config.admission_window),
                name=f"shard{shard_id}-admission")
        return GroupHandle(shard_id, group, assignment,
                           config.record_size, config.records_per_shard,
                           self.sim, admission=admission)

    @property
    def sim(self) -> Simulator:
        return self.cluster.sim

    @property
    def epoch(self) -> int:
        """The ring epoch: bumps on every split/move (monotonic)."""
        return self.ring.epoch

    # ------------------------------------------------------------------
    # Routing & data path
    # ------------------------------------------------------------------
    def shard_of(self, key: int) -> int:
        return self.ring.lookup(key)

    def handle_of(self, key: int) -> GroupHandle:
        return self.handles[self.ring.lookup(key)]

    def submit_write(self, key: int, size: Optional[int] = None,
                     durable: bool = False,
                     payload: Optional[bytes] = None) -> Event:
        """Route a write for ``key``; returns its completion event.

        The routed equivalent of ``group.gwrite``: looks the key up on
        the ring, lands the record in the owning shard's region and
        replicates it.  If the shard is mid-rebalance the request parks
        and — once the ring flips — *forwards* to the key's new owner;
        the returned event completes either way, so callers never
        observe the move beyond added latency.

        With ``admission_depth`` configured, the write first passes the
        owning shard's bounded :class:`~repro.traffic.admission.AdmissionQueue`
        and may come back already failed with
        :class:`~repro.traffic.admission.ShedError`.
        """
        if self._closed:
            raise RuntimeError("deployment is closed")
        size = self.config.record_size if size is None else size
        if size > self.config.record_size:
            raise ValueError(
                f"write of {size} bytes exceeds record_size "
                f"{self.config.record_size}")
        handle = self.handles[self.ring.lookup(key)]
        if handle.admission is None:
            return self._issue_write(key, size, durable, payload)
        # Per-shard load leveling: the write reaches the group (and its
        # payload is materialized) only at dispatch; beyond the queue's
        # depth the returned event is already failed with ShedError.  The
        # thunk re-resolves the ring at dispatch time, so ops queued
        # across an epoch flip chase the key to its new owner.
        return handle.admission.offer(
            lambda: self._issue_write(key, size, durable, payload))

    def _issue_write(self, key: int, size: int, durable: bool,
                     payload: Optional[bytes]) -> Event:
        """Land a routed write on the key's current owner (post-admission)."""
        handle = self.handles[self.ring.lookup(key)]
        if handle.state == "serving":
            handle.ops += 1
            offset = handle.offset_of(key, create=True)
            if payload is not None:
                handle.group.write_local(offset, payload)
            return handle.group.gwrite(offset, size, durable=durable)
        # Mid-rebalance: park on the shard, forward after the epoch flip.
        done = self.sim.event()

        def forward(_waiter: Event) -> None:
            inner = self._issue_write(key, size, durable, payload)
            inner.add_callback(
                lambda event: done.succeed(event.value) if event.ok
                else done.fail(event.value))

        handle.park().add_callback(forward)
        return done

    def write_record(self, key: int, seq: int,
                     durable: bool = False) -> Event:
        """Routed write of the deterministic ``(key, seq)`` record.

        Updates the deployment's write oracle when (and only when) the
        write is acknowledged — :meth:`verify_records` then proves that
        no acknowledged write is ever lost to a rebalance.
        """
        payload = encode_record(key, seq, self.config.record_size)
        done = self.submit_write(key, durable=durable, payload=payload)

        def record_ack(event: Event) -> None:
            if event.ok and seq >= self._acked_seq.get(key, -1):
                self._acked_seq[key] = seq

        done.add_callback(record_ack)
        return done

    def read_record(self, key: int) -> bytes:
        """The owning shard's client-side copy of ``key``'s record."""
        handle = self.handle_of(key)
        return handle.group.read_local(handle.offset_of(key),
                                       self.config.record_size)

    def read_record_replica(self, key: int, hop: int) -> bytes:
        """``key``'s record as stored on replica ``hop`` of its shard."""
        handle = self.handle_of(key)
        return handle.group.read_replica(hop, handle.offset_of(key),
                                         self.config.record_size)

    # ------------------------------------------------------------------
    # Online rebalancing
    # ------------------------------------------------------------------
    def split_shard(self) -> Generator[Event, Any, int]:
        """Add a shard under load; returns the new shard id.

        Drive from a sim process: ``new_id = yield from d.split_shard()``.
        Follows the drain→copy→flip protocol in the module docstring.
        """
        new_id = self._next_shard
        self._next_shard += 1
        new_handle = self._build_shard(new_id)
        # Probe the post-split map: consistent hashing guarantees keys
        # only ever move *onto* the new shard, so the movers are exactly
        # the keys the probe assigns to new_id.
        probe = self.ring.copy()
        probe.add_shard(new_id)
        movers: List[tuple[GroupHandle, int]] = []
        for shard_id in sorted(self.handles):
            handle = self.handles[shard_id]
            for key in sorted(handle.keys):
                if probe.lookup(key) == new_id:
                    movers.append((handle, key))
        sources = sorted({handle.shard_id for handle, _ in movers})
        yield from self._migrate(sources, movers, new_handle)
        self.handles[new_id] = new_handle
        self.ring.add_shard(new_id)       # Epoch flip.
        for handle, key in movers:
            handle.release(key)
        for shard_id in sources:
            self.handles[shard_id].resume()
        self.rebalances += 1
        return new_id

    def move_shard(self, shard_id: int,
                   assignment: Optional[Assignment] = None
                   ) -> Generator[Event, Any, Assignment]:
        """Relocate a whole shard to different hosts, under load.

        The key→shard map does not change, so the ring's membership is
        untouched — but the epoch still bumps, invalidating any cached
        route to the old group.  Returns the new assignment.
        """
        handle = self.handles[shard_id]
        if assignment is None:
            exclude = set(handle.assignment.host_names())
            assignment = self.placement.place(
                shard_id, self.config.group_size(), exclude=exclude)
        kwargs = dict(self.config.backend_kwargs)
        kwargs.setdefault("region_size", self.config.region_size())
        new_group = backend_registry.create(
            self.config.backend, assignment.client, assignment.replicas,
            group_name=f"shard{shard_id}m{self.rebalances}", **kwargs)
        movers = [(handle, key) for key in sorted(handle.keys)]
        target = GroupHandle(shard_id, new_group, assignment,
                             handle.record_size, handle.capacity, self.sim)
        yield from self._migrate([shard_id], movers, target)
        self.placement.on_release(handle.assignment)
        old_group = handle.swap_group(new_group, assignment)
        # The directory was rebuilt on the target handle during the copy;
        # adopt it (record slots may differ from the source's layout).
        handle.keys = target.keys
        handle._free = target._free
        handle._next_record = target._next_record
        old_group.close()
        self.ring.bump_epoch()            # Epoch flip (placement-only).
        handle.resume()
        self.rebalances += 1
        return assignment

    def _migrate(self, sources: List[int],
                 movers: List[tuple[GroupHandle, int]],
                 target: GroupHandle) -> Iterator[Event]:
        """Drain ``sources``, then copy ``movers`` into ``target``.

        The copy goes through the backend's replication primitive — a
        durable ``gwrite`` per record — so migrated state lands on every
        replica of the successor chain before the flip.
        """
        sim = self.sim
        for shard_id in sources:
            self.handles[shard_id].pause()
        drains = [self.handles[shard_id].group.drain()
                  for shard_id in sources]
        if drains:
            yield sim.all_of(drains)
        copies: List[Event] = []
        for handle, key in movers:
            data = handle.group.snapshot_range(handle.offset_of(key),
                                               handle.record_size)
            offset = target.offset_of(key, create=True)
            target.group.write_local(offset, data)
            copies.append(target.group.gwrite(offset, handle.record_size,
                                              durable=True))
        if copies:
            yield sim.all_of(copies)

    # ------------------------------------------------------------------
    # Oracle & stats
    # ------------------------------------------------------------------
    def verify_records(self) -> List[int]:
        """Keys whose acknowledged state is missing or stale, on any
        replica of their owning shard.  Empty list == zero lost writes."""
        lost = []
        for key in sorted(self._acked_seq):
            expected = encode_record(key, self._acked_seq[key],
                                     self.config.record_size)
            handle = self.handle_of(key)
            try:
                copies = [self.read_record(key)]
                copies += [self.read_record_replica(key, hop)
                           for hop in range(handle.group.group_size)]
            except KeyError:
                lost.append(key)
                continue
            if any(copy != expected for copy in copies):
                lost.append(key)
        return lost

    @property
    def in_flight(self) -> int:
        return sum(self.handles[shard_id].group.in_flight
                   for shard_id in sorted(self.handles))

    def shard_rows(self) -> List[Dict[str, Any]]:
        """Per-shard summary rows (experiments print these)."""
        rows = []
        for shard_id in sorted(self.handles):
            handle = self.handles[shard_id]
            admission = handle.admission
            rows.append({
                "shard": shard_id,
                "state": handle.state,
                "keys": len(handle.keys),
                "ops": handle.ops,
                "admitted": admission.admitted if admission else handle.ops,
                "shed": admission.shed if admission else 0,
                "hosts": ",".join(handle.assignment.host_names()),
            })
        return rows

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for shard_id in sorted(self.handles):
            self.handles[shard_id].group.close()

    def run_until(self, done: Event, deadline_ns: int) -> None:
        """Advance the simulation until ``done`` fires (or the deadline).

        A deployment hosts long-lived engine processes (per-shard NIC and
        client loops), so drivers run *to an event*, never to event-queue
        exhaustion — the same convention as
        :func:`repro.experiments.common.run_until`.
        """
        sim = self.sim
        sim.run_until(done, deadline=sim.now + deadline_ns)


def build_deployment(config: Optional[ShardedConfig] = None,
                     **overrides: Any) -> ShardedDeployment:
    """Stand up a sharded deployment (hosts, ring, placement, groups).

    Keyword overrides apply on top of ``config`` (or a default config),
    mirroring :func:`repro.cluster.build_scenario`.
    """
    if config is None:
        config = ShardedConfig()
    if overrides:
        config = replace(config, **overrides)
    cluster = Cluster(seed=config.seed,
                      host_params=HostParams(cores=config.cores))
    pool = cluster.add_hosts(config.pool_size(), prefix="host")
    if config.host_tenants:
        for host in pool:
            host.add_tenant_load(config.host_tenants,
                                 kind=config.tenant_kind)
    ring = HashRing(vnodes=config.vnodes, seed=config.seed)
    placement = make_placement(config.placement, pool)
    deployment = ShardedDeployment(config, cluster, pool, ring, placement)
    for shard_id in range(config.shards):
        deployment.handles[shard_id] = deployment._build_shard(shard_id)
        ring.add_shard(shard_id)
        deployment._next_shard = shard_id + 1
    return deployment
