"""The replication-backend protocol: what every group implementation owes.

The paper's storage stack (§5) and every experiment in §6 program against
one surface — the four Table-1 primitives plus local/remote region access
and lifecycle hooks.  Historically that surface was duck-typed between
:class:`repro.core.group.HyperLoopGroup` and
:class:`repro.baseline.naive.NaiveGroup`; this module makes it a
first-class, checkable :class:`typing.Protocol` so new backends (sharded,
batched, SmartNIC-style) plug in without forking the consumers.

A conforming backend is constructed as ``Backend(client_host,
replica_hosts, config=None, name="")`` and is normally obtained through
the registry (:mod:`repro.backend.registry`) rather than by importing the
class:

    from repro import backend
    group = backend.create("hyperloop", client, replicas, slots=64)

Conformance is enforced for every registered backend by
``tests/backend/test_conformance.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    List,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from ..host import Host
from ..sim.engine import Event

__all__ = ["OpResult", "ReplicationBackend"]


@dataclass
class OpResult:
    """Completion record for one group operation."""

    slot: int
    latency_ns: int
    result_map: bytes

    def cas_results(self) -> List[int]:
        """Per-replica original values from a gCAS (zero where skipped)."""
        return [int.from_bytes(self.result_map[i:i + 8], "little")
                for i in range(0, len(self.result_map), 8)]


@runtime_checkable
class ReplicationBackend(Protocol):
    """The group-primitive surface every replication backend implements.

    Data path (Table 1): :meth:`gwrite` (write/append), :meth:`gcas`,
    :meth:`gmemcpy`, :meth:`gflush`; reads via :meth:`read_local` /
    :meth:`read_replica` / :meth:`remote_read`.  All mutating calls
    return simulation :class:`~repro.sim.engine.Event`\\ s whose value is
    an :class:`OpResult` — drive them with ``yield`` inside a sim process.

    Recovery hooks: :meth:`abort_in_flight` fails every pending op when a
    chain failure is declared, and :meth:`close` returns every carved
    resource so a supervisor can rebuild (see
    :class:`repro.faults.reconfig.ReplicaSetManager`).

    Membership hooks: :attr:`group_size`, :attr:`replicas` (per-node
    engine objects, each exposing ``.host`` and ``.region``) and
    :meth:`member_hosts` let control-plane code reason about the chain
    without knowing the wire topology.
    """

    # -- identity / membership -----------------------------------------
    name: str
    client_host: Host
    group_size: int

    @property
    def replicas(self) -> Sequence:
        """Per-replica node engines (each has ``.host`` and ``.region``)."""
        ...

    def member_hosts(self) -> List[Host]:
        """The replica :class:`Host`\\ s, in chain/fan-out order."""
        ...

    # -- data path (Table 1) -------------------------------------------
    def gwrite(self, offset: int, size: int, durable: bool = False) -> Event:
        ...

    def gcas(self, offset: int, old_value: int, new_value: int,
             execute_map: Optional[Sequence[bool]] = None,
             durable: bool = False) -> Event:
        ...

    def gmemcpy(self, src_offset: int, dst_offset: int, size: int,
                durable: bool = False) -> Event:
        ...

    def gflush(self) -> Event:
        ...

    # -- region access --------------------------------------------------
    def write_local(self, offset: int, data: bytes) -> None:
        ...

    def read_local(self, offset: int, size: int) -> bytes:
        ...

    def read_replica(self, hop: int, offset: int, size: int) -> bytes:
        ...

    def remote_read(self, hop: int, offset: int, size: int) -> Event:
        ...

    # -- flow control ----------------------------------------------------
    @property
    def in_flight(self) -> int:
        ...

    # -- recovery hooks ---------------------------------------------------
    def abort_in_flight(self, reason: Exception) -> int:
        ...

    def close(self) -> None:
        ...

    # -- rebalance hooks --------------------------------------------------
    def drain(self) -> Event:
        """Fires once every queued and in-flight op has completed.

        The quiesce step of an online shard rebalance (see
        :class:`repro.cluster.ShardedDeployment`): stop routing, wait on
        this, then snapshot and copy state to the successor group.
        """
        ...

    def snapshot_range(self, offset: int, size: int) -> bytes:
        """Authoritative (post-drain) bytes of a region range."""
        ...
