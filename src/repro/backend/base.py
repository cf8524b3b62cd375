"""The backend contract and its shared client-side machinery.

Every backend in this tree — the NIC-offloaded chain
(:class:`~repro.core.group.HyperLoopGroup`), the CPU-forwarded baseline
(:class:`~repro.baseline.naive.NaiveGroup`), the NIC-offloaded fan-out
(:class:`~repro.core.fanout.FanoutGroup`) — and a shared chain's client
(:class:`~repro.core.multiclient.SharedChainClient`) is a
:class:`GroupBase`: the one statement of what a group offers (the
primitives its class declares, region access, flow control, drain, abort,
close).  Only the wire topology and per-node engines differ.

:class:`GroupBase` holds the shared half: identity and the replica-count
check (:func:`check_replicas`), the ACK hub (:func:`open_ack_hub`), the
submit loop (:meth:`GroupBase._submitter`) that posts every op to the
head the same way, the completion path (:func:`ack_loop`) and teardown
(:meth:`GroupBase.close`).  Teardown is by name: everything a group
makes — its node engines' verbs objects and memory, the ACK hub, the
client's buffers, the read path on both ends — is named ``<group>.…``,
and :func:`release` hands that name to
:meth:`~repro.host.Host.release` on every host the group touched.  A
backend implementation is reduced to: per-node engines that name what
they make under the group's name, the metadata message its head
consumes (``_metadata(op, slot)``) and what building it costs the client
CPU (``_build_ns``), plus :meth:`GroupBase._route` /
:meth:`GroupBase._result_map` if its ACKs are not one WRITE_WITH_IMM per
op carrying the slot.  Subclasses must provide the attributes listed
under :attr:`GroupBase` and may override :meth:`_region_limit` (e.g. to
reserve scratch space at the region tail).
"""

from __future__ import annotations

from collections import deque
from typing import (
    Any,
    Deque,
    Dict,
    FrozenSet,
    Generator,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from ..host import Host
from ..rdma.verbs import Access, WorkCompletion
from ..rdma.wqe import Opcode, Sge, WorkRequest
from ..sim.cpu import Thread
from ..sim.engine import Event
from .ops import READ, OpKind, OpResult, OpSpec

__all__ = ["GroupBase", "ack_loop", "check_replicas", "open_ack_hub",
           "release"]


def check_replicas(owner: Type, count: int) -> None:
    """The one replica-count check: ``owner`` (a group class or a shared
    chain) takes ``owner.min_replicas`` .. ``owner.max_replicas``
    replicas, inclusive; a ``max_replicas`` of None is unbounded."""
    low, high = owner.min_replicas, owner.max_replicas
    if count < low or (high is not None and count > high):
        raise ValueError(
            f"{owner.__name__} supports {low}.."
            f"{'unbounded' if high is None else high} replicas, "
            f"got {count}")


def ack_loop(hub: Any) -> Generator:
    """The one completion path: each WRITE_WITH_IMM on ``hub.ack_cq``
    completes the op ``hub._route(wc)`` names.  ``hub`` is a
    :class:`GroupBase` or the owner side of a shared chain.  A set
    ``hub.poller`` sees ACKs while it owns a core and pays only the CQ
    check; otherwise ``hub.ack_thread`` runs ``hub._ack_wake_ns``.
    """
    channel = hub.ack_cq.channel
    while True:
        hub.ack_cq.req_notify()
        yield channel.wait()
        if hub.poller is not None:
            yield hub.poller.when_running()
            yield hub.config.poll_overhead_ns  # bare-delay fast path
        else:
            yield hub.ack_thread.run(hub._ack_wake_ns)
        for wc in hub.ack_cq.poll(64):
            if not wc.has_imm:
                continue
            routed = hub._route(wc)
            if routed is None:
                continue
            client, slot = routed
            done = client._pop_acked(slot)
            client._release_window_waiters()
            if done is not None and not done.triggered:
                client._finish(done, slot, client._result_map(slot))


def open_ack_hub(hub: Any, host: Host, stride: int,
                 qp_names: Sequence[str], out_sq_slots: int = 0) -> None:
    """Build the ACK hub :func:`ack_loop` serves on ``host``: ``hub.ack_buf``
    (``stride`` bytes per slot) and ``hub.ack_mr``, the channel-backed
    ``hub.ack_cq``, and ``hub.ack_qps``, one per name, each with a cyclic
    receive ring of ``slots`` RECVs posted once and re-armed by the NIC.

    ``hub`` is a :class:`GroupBase` or the owner side of a shared chain.
    A group also gets its ``out_cq`` and ``qp_out`` (``out_sq_slots`` send
    slots) here, made after the ACK MR and before the ACK QPs, so every
    client's verbs objects and rings come in one fixed order."""
    config, name = hub.config, hub.name
    memory, nic = host.memory, host.nic
    hub.ack_stride = stride
    hub.ack_buf = memory.allocate(stride * config.slots, f"{name}.ack")
    hub.ack_mr = nic.register_mr(
        hub.ack_buf.address, hub.ack_buf.size,
        Access.LOCAL_WRITE | Access.REMOTE_WRITE, name=f"{name}.ackmr")
    if out_sq_slots:
        hub.out_cq = nic.create_cq(name=f"{name}.outcq")
    hub.ack_cq = nic.create_cq(with_channel=True, name=f"{name}.ackcq")
    if out_sq_slots:
        hub.qp_out = nic.create_qp(hub.out_cq, hub.out_cq,
                                   sq_slots=out_sq_slots, rq_slots=8,
                                   name=f"{name}.out")
    hub.ack_qps = [nic.create_qp(hub.ack_cq, hub.ack_cq, sq_slots=8,
                                 rq_slots=config.slots,
                                 name=f"{name}.{qp_name}")
                   for qp_name in qp_names]
    for qp in hub.ack_qps:
        qp.rq.cyclic = True
        qp.post_recv_list([WorkRequest(Opcode.RECV, [], wr_id=0)],
                          times=config.slots)


def release(owner: str, hosts: Iterable[Host]) -> None:
    """:meth:`~repro.host.Host.release` ``owner`` on each distinct host of
    ``hosts``, in first-seen order."""
    for host in dict.fromkeys(hosts):
        host.release(owner)


class GroupBase:
    """Client-side half of a replication backend, and the backend contract.

    ``GroupBase(client_host, replica_hosts, config=None, name="")`` sets
    the identity every group shares — ``config`` (default
    ``config_cls()``), ``name`` (default the class's ``_prefix``, numbered
    per cluster by :meth:`~repro.host.Cluster.next_name`),
    ``client_host``, ``sim``, ``group_size`` — after
    :func:`check_replicas`, and the op-state tables.  Subclasses then set
    ``replicas`` (node engines with ``.host``, ``.region`` and
    ``.region_mr``; ``replicas[0]`` is the head),
    ``region`` (the client's own copy of the replicated region),
    ``md_buf`` / ``md_stride`` (one metadata message of exactly
    ``md_stride`` bytes per slot), ``qp_out`` (connected to the head) and
    its ``out_cq`` (both from :func:`open_ack_hub`), ``_build_ns`` and
    ``_metadata`` (see :meth:`_submitter`) and, when they declare
    :data:`~repro.backend.ops.READ`, ``read_path`` (a
    :class:`~repro.core.readpath.ClientReadPath`); then call
    :meth:`_start_client`.  Every verbs object and allocation they make,
    on any host, is named ``<name>.…``: that name is what :meth:`close`
    releases.
    """

    #: The primitives this client serves: Table 1's four kinds and
    #: one-sided READ.  :meth:`submit` and :meth:`remote_read` refuse the
    #: rest with one NotImplementedError.
    primitives: FrozenSet[Union[OpKind, str]] = frozenset(OpKind) | {READ}
    #: Inclusive replica-count bounds (None: unbounded above), checked by
    #: :func:`check_replicas`.
    min_replicas = 1
    max_replicas: Optional[int] = None
    #: The backend's config dataclass; a group built without one gets
    #: ``config_cls()``.
    config_cls: Type
    #: Default-name prefix; each group class owns its own.
    _prefix: str
    #: Busy-polling ACK thread (poll mode), or None (event mode).
    poller: Optional[Thread] = None
    _closed = False

    def __init__(self, client_host: Host, replica_hosts: Sequence[Host],
                 config: Any = None, name: str = "") -> None:
        check_replicas(type(self), len(replica_hosts))
        self.config = config or self.config_cls()
        self.name = name or client_host.cluster.next_name(self._prefix)
        self.client_host = client_host
        self.sim = client_host.sim
        self.group_size = len(replica_hosts)
        self._next_slot = 0
        self._acked = 0
        self._ack_events: Dict[int, Event] = {}
        # Submission time per claimed slot — the simulation kernel's Event
        # is __slots__-lean, so latency bookkeeping lives here, not on the
        # event object.
        self._issue_ns: Dict[int, int] = {}
        self._window_waiters: List[Event] = []
        self._drain_waiters: List[Event] = []
        self._submit_queue: Deque = deque()
        self._submit_kick: Optional[Event] = None
        # The op the submitter has popped but not yet given a slot (it
        # waits out a stall or a full window): still pending, so abort
        # fails it and drain waits for it.
        self._held: Optional[Tuple[OpSpec, Event, int]] = None
        # Transient service stall (fault injection / overload scenarios):
        # the submitter refuses to claim new slots before this timestamp.
        self._stall_until = 0

    # ------------------------------------------------------------------
    # Public API (Table 1)
    # ------------------------------------------------------------------
    def gwrite(self, offset: int, size: int, durable: bool = False) -> Event:
        """Replicate ``region[offset:offset+size]`` to every replica.

        The caller must already have written the payload into the client's
        own region.  Returns an event whose value is an :class:`OpResult`.
        """
        self._check_range(offset, size)
        return self.submit(OpSpec(OpKind.GWRITE, offset=offset, size=size,
                                  durable=durable))

    def gcas(self, offset: int, old_value: int, new_value: int,
             execute_map: Optional[Sequence[bool]] = None,
             durable: bool = False) -> Event:
        """Group compare-and-swap on an 8-byte word at ``offset``."""
        if execute_map is not None:
            execute_map = list(execute_map)
            if len(execute_map) != self.group_size:
                raise ValueError("execute map size mismatch")
        self._check_range(offset, 8)
        return self.submit(OpSpec(OpKind.GCAS, offset=offset,
                                  old_value=old_value, new_value=new_value,
                                  execute_map=execute_map, durable=durable))

    def gmemcpy(self, src_offset: int, dst_offset: int, size: int,
                durable: bool = False) -> Event:
        """Copy ``size`` bytes from ``src_offset`` to ``dst_offset`` on all
        nodes (including the client's own region, done in software here)."""
        self._check_range(src_offset, size)
        self._check_range(dst_offset, size)
        return self.submit(OpSpec(OpKind.GMEMCPY, src_offset=src_offset,
                                  dst_offset=dst_offset, size=size,
                                  durable=durable))

    def gflush(self) -> Event:
        """Flush every replica's NIC cache to NVM."""
        return self.submit(OpSpec(OpKind.GFLUSH, durable=True))

    def submit(self, op: OpSpec) -> Event:
        """Queue an operation; the event fires with its :class:`OpResult`."""
        if op.kind not in self.primitives:
            raise self._unsupported(op.kind.value)
        if self._closed:
            raise RuntimeError(f"{self.name} is closed")
        done = self.sim.event()
        # Latency is measured from submission, so client-side queueing and
        # metadata construction are included — as a caller would see it.
        self._submit_queue.append((op, done, self.sim.now))
        if self._submit_kick is not None and not self._submit_kick.triggered:
            self._submit_kick.succeed()
        return done

    # ------------------------------------------------------------------
    # Region access
    # ------------------------------------------------------------------
    def write_local(self, offset: int, data: bytes) -> None:
        """Software store into the client's own copy of the region."""
        self._check_range(offset, len(data))
        self.client_host.memory.write(self.region.address + offset, data)

    def read_local(self, offset: int, size: int) -> bytes:
        self._check_range(offset, size)
        return self.client_host.memory.read(self.region.address + offset, size)

    def read_replica(self, hop: int, offset: int, size: int) -> bytes:
        """Direct read of a replica's region (test/verification helper)."""
        replica = self.replicas[hop]
        return replica.host.memory.read(replica.region.address + offset, size)

    def remote_read(self, hop: int, offset: int, size: int) -> Event:
        """One-sided READ of ``region[offset:offset+size]`` on replica ``hop``."""
        if READ not in self.primitives:
            raise self._unsupported(READ)
        if self._closed:
            raise RuntimeError(f"{self.name} is closed")
        self._check_range(offset, size)
        return self.read_path.read(hop, offset, size)

    def _unsupported(self, primitive: str) -> NotImplementedError:
        return NotImplementedError(
            f"{type(self).__name__} {self.name!r} does not support "
            f"{primitive}")

    def _region_limit(self) -> int:
        """Bytes of the region addressable by callers (override to reserve
        scratch space at the tail)."""
        return self.config.region_size

    def _check_range(self, offset: int, size: int) -> None:
        limit = self._region_limit()
        if offset < 0 or size < 0 or offset + size > limit:
            raise ValueError(
                f"[{offset}, {offset + size}) outside region of "
                f"{limit} bytes")

    # ------------------------------------------------------------------
    # Rebalance hooks (drain + snapshot)
    # ------------------------------------------------------------------
    def drain(self) -> Event:
        """An event that fires once every queued and in-flight op is done.

        This is the quiesce half of an online rebalance: the deployment
        layer stops routing new work at the group, waits on ``drain()``,
        then snapshots the key-range state it is migrating.  Draining is
        cooperative — the caller must stop calling :meth:`submit` first;
        operations submitted after ``drain()`` returns are not waited on.

        Already-idle groups (and groups whose in-flight ops were aborted)
        get a triggered event, so ``yield group.drain()`` never hangs.
        """
        done = self.sim.event()
        if self._idle:
            done.succeed()
        else:
            self._drain_waiters.append(done)
        return done

    def snapshot_range(self, offset: int, size: int) -> bytes:
        """The client-side bytes of ``region[offset:offset+size]``.

        After a :meth:`drain` the client's copy of the region is
        authoritative (every ACKed op has been applied along the whole
        chain), so a rebalance can copy key-range state from here into a
        successor group via the replication primitives.
        """
        return self.read_local(offset, size)

    @property
    def _idle(self) -> bool:
        return self.in_flight == 0 and not self._submit_queue \
            and self._held is None

    def _release_drain_waiters(self) -> None:
        if self._drain_waiters and self._idle:
            waiters, self._drain_waiters = self._drain_waiters, []
            for waiter in waiters:
                waiter.succeed()

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def member_hosts(self) -> List[Host]:
        """The replica hosts, in chain/fan-out order."""
        return [replica.host for replica in self.replicas]

    # ------------------------------------------------------------------
    # Flow control
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return self._next_slot - self._acked

    # ------------------------------------------------------------------
    # Queue hooks (traffic layer / fault injection)
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Operations submitted but not yet claimed by the submitter.

        Together with :attr:`in_flight` this is the load signal the
        traffic layer (:mod:`repro.traffic`) reads: admission control
        bounds *its own* queue in front of the group precisely so that
        this internal one stays shallow.
        """
        return len(self._submit_queue)

    def stall(self, duration_ns: int) -> None:
        """Transiently halt op service for ``duration_ns`` from now.

        Models a replica-side brownout (GC pause, NIC reset, a straggler
        taking the chain hostage): queued and newly submitted operations
        are *not* failed — they wait, exactly like a real stall — but no
        new operation is claimed by the submitter until the stall
        expires.  Operations already claimed keep flowing.  Overlapping
        stalls extend each other (the latest deadline wins).
        """
        if duration_ns < 0:
            raise ValueError(f"stall duration must be >= 0, "
                             f"got {duration_ns}")
        self._stall_until = max(self._stall_until,
                                self.sim.now + duration_ns)

    @property
    def stalled(self) -> bool:
        """True while a :meth:`stall` window is active."""
        return self.sim.now < self._stall_until

    # ------------------------------------------------------------------
    # Recovery hooks
    # ------------------------------------------------------------------
    def abort_in_flight(self, reason: Exception) -> int:
        """Fail every unacknowledged operation (chain failure detected).

        Returns the number of operations aborted: in flight, held by the
        submitter, and queued.  Each ends in one ``op.failed`` trace event.
        """
        failed = list(self._ack_events.items())
        held = [self._held] if self._held is not None else []
        failed += [(-1, done) for _op, done, _issue
                   in held + list(self._submit_queue)]
        self._ack_events.clear()
        self._issue_ns.clear()
        self._submit_queue.clear()
        self._held = None
        self._acked = self._next_slot
        tracer = self.client_host.cluster.tracer
        aborted = 0
        for slot, done in failed:
            if done.triggered:
                continue
            if tracer is not None:
                tracer.emit(self.sim.now, f"{self.name}.client", "op.failed",
                            op_slot=slot)
            done.fail(reason)
            aborted += 1
        # A submitter waiting for a slot for its held op goes back to the
        # queue.
        self._release_window_waiters()
        # The group is now (vacuously) drained; anyone quiescing it for a
        # rebalance must not hang on ops that will never complete.
        self._release_drain_waiters()
        return aborted

    def close(self) -> None:
        """Tear the whole group down and return every carved resource.

        Pending operations fail with a RuntimeError, the poller stops, and
        every member host and the client release what carries the group's
        name (:func:`release`): zeroed and reusable (recovery rebuilds
        call this on the superseded group after copying its state out).
        With the ACK CQ gone nothing notifies :func:`ack_loop` again, so
        it stays parked for good.  One-sided reads still in flight fail
        last.
        """
        if not self._begin_close():
            return
        release(self.name, [*self.member_hosts(), self.client_host])
        if READ in self.primitives:
            self.read_path.close()

    def _begin_close(self) -> bool:
        """Idempotence guard + in-flight abort; True if teardown should run."""
        if self._closed:
            return False
        self._closed = True
        self.abort_in_flight(RuntimeError(f"{self.name} closed"))
        if self.poller is not None:
            self.poller.stop()
        return True

    # ------------------------------------------------------------------
    # Client processes and their building blocks
    # ------------------------------------------------------------------
    def _start_client(self, polling: bool, wake_ns: int) -> None:
        """Spawn the client threads and start the submit loop and
        :func:`ack_loop`.  ``polling`` gives the ACK path a busy poller;
        ``wake_ns`` is what an event-mode ACK wakeup costs."""
        host = self.client_host
        self.submit_thread = host.spawn_thread(f"{self.name}.submit")
        self.ack_thread = host.spawn_thread(f"{self.name}.ack")
        if polling:
            self.poller = host.spawn_thread(f"{self.name}.poller")
            self.poller.run_forever()
        self._ack_wake_ns = wake_ns
        self.sim.process(self._submitter(), name=f"{self.name}.submitter")
        self.sim.process(ack_loop(self), name=f"{self.name}.ack")

    def _route(self, wc: WorkCompletion) -> Optional[Tuple["GroupBase", int]]:
        """The client and slot an ACK completion finishes (None: none)."""
        return self, wc.imm

    def ack_addr(self, slot: int) -> int:
        """Where ``slot``'s ACK (its result map) lands on the client."""
        return self.ack_buf.address \
            + (slot % self.config.slots) * self.ack_stride

    def _result_map(self, slot: int) -> bytes:
        return self.client_host.memory.read(self.ack_addr(slot),
                                            self.ack_stride)

    def _submitter(self):
        """Turns each queued op into posted work requests, one at a time.

        Runs on the client CPU — the offloaded backends remove *replica*
        CPUs from the critical path; the client still spends its own
        cycles building the message and posting.  Table 1's path is the
        same for every backend: payload WRITE and 0-byte flush READ to
        the head, then one SEND of ``self._metadata(op, slot)``.
        """
        sim, config = self.sim, self.config
        memory = self.client_host.memory
        head = self.replicas[0]
        while True:
            op, done, slot = yield from self._dequeue()
            tracer = self.client_host.cluster.tracer
            if tracer is not None:
                tracer.emit(sim.now, f"{self.name}.client", "op.submit",
                            op.kind.value, op_slot=slot)
            yield self.submit_thread.run(self._build_ns)
            if self._closed:
                return  # Torn down mid-build; abort already failed the op.
            md_addr = self.md_buf.address \
                + (slot % config.slots) * self.md_stride
            memory.write(md_addr, self._metadata(op, slot))
            posts = 1
            if op.kind is OpKind.GWRITE and op.size > 0:
                self.qp_out.post_send(WorkRequest(
                    Opcode.WRITE,
                    [Sge(self.region.address + op.offset, op.size)],
                    remote_addr=head.region.address + op.offset,
                    rkey=head.region_mr.rkey, signaled=False))
                posts += 1
            if op.kind is OpKind.GMEMCPY:
                # The client's own copy of the region must move too.
                memory.copy_within(self.region.address + op.src_offset,
                                   self.region.address + op.dst_offset,
                                   op.size)
            if op.flushes:
                self.qp_out.post_send(WorkRequest(
                    Opcode.READ, [Sge(0, 0)],
                    remote_addr=head.region.address,
                    rkey=head.region_mr.rkey, signaled=False))
                posts += 1
            self.qp_out.post_send(WorkRequest(
                Opcode.SEND, [Sge(md_addr, self.md_stride)],
                wr_id=slot, signaled=False))
            yield self.submit_thread.run(posts * config.post_ns)
            if tracer is not None:
                tracer.emit(sim.now, f"{self.name}.client", "op.posted",
                            op.kind.value, op_slot=slot)

    def _dequeue(self):
        """Generator step for submitter processes: wait for a queued op and
        a free pipeline slot, then claim the slot.  Returns
        ``(op, done, slot)``.  Until the claim the op is ``_held``; one
        an abort fails meanwhile is dropped for the next queued op."""
        sim = self.sim
        done = None
        while done is None or done.triggered:  # Failed by an abort: next.
            while not self._submit_queue:
                self._submit_kick = sim.event()
                yield self._submit_kick
            op, done, issue = self._held = self._submit_queue.popleft()
            # Transient service stall: hold the op (don't fail it) until
            # the stall window passes.  Re-check after waking —
            # overlapping stalls may have pushed the deadline out.
            while sim.now < self._stall_until:
                yield sim.timeout(self._stall_until - sim.now)
            # Flow control: never exceed the pipeline depth.
            while self.in_flight >= self.config.slots:
                waiter = sim.event()
                self._window_waiters.append(waiter)
                yield waiter
        self._held = None
        slot = self._next_slot
        self._next_slot += 1
        self._ack_events[slot] = done
        self._issue_ns[slot] = issue
        return op, done, slot

    def _pop_acked(self, slot: int) -> Optional[Event]:
        """Account one ACKed slot; returns its completion event.

        A slot :meth:`abort_in_flight` already wrote off returns None and
        is not counted again — a late ACK must not open the window.
        """
        done = self._ack_events.pop(slot, None)
        if done is None:
            return None
        self._acked += 1
        self._release_drain_waiters()
        return done

    def _release_window_waiters(self) -> None:
        if self._window_waiters:
            waiters, self._window_waiters = self._window_waiters, []
            for waiter in waiters:
                waiter.succeed()

    def _finish(self, done: Event, slot: int, result_map: bytes) -> None:
        """Complete ``done`` with an :class:`OpResult` stamped now."""
        tracer = self.client_host.cluster.tracer
        if tracer is not None:
            tracer.emit(self.sim.now, f"{self.name}.client", "op.acked",
                        op_slot=slot)
        issue = self._issue_ns.pop(slot, self.sim.now)
        done.succeed(OpResult(slot=slot,
                              latency_ns=self.sim.now - issue,
                              result_map=result_map))
