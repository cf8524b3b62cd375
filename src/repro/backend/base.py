"""Shared client-side machinery for replication backends.

Every backend in this tree — the NIC-offloaded chain
(:class:`~repro.core.group.HyperLoopGroup`), the CPU-forwarded baseline
(:class:`~repro.baseline.naive.NaiveGroup`) and the NIC-offloaded fan-out
(:class:`~repro.core.fanout.FanoutGroup`) — shares the same *client-side*
contract: a bounded submission pipeline (``slots`` ops in flight), a
slot-indexed ACK table, local region accessors, and abort/teardown hooks.
Only the wire topology and per-node engines differ.

:class:`GroupBase` holds that shared half, including the submit loop
(:meth:`GroupBase._submitter`) that posts every op to the head the same
way.  A backend implementation is reduced to: per-node engine setup, the
metadata message its head consumes (``_metadata(op, slot)``) and what
building it costs the client CPU (``_build_ns``), and an ACK dispatcher
that calls :meth:`_pop_acked` / :meth:`_release_window_waiters` /
:meth:`_finish`.  Subclasses must provide the attributes listed under
:attr:`GroupBase` and may override :meth:`_region_limit` (e.g. to reserve
scratch space at the region tail).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence

from ..host import Host
from ..rdma.wqe import Opcode, Sge, WorkRequest
from ..sim.engine import Event
from .api import OpResult
from .ops import OpKind, OpSpec

__all__ = ["GroupBase"]


class GroupBase:
    """Client-side half of a replication backend.

    Subclasses set (typically in ``__init__``): ``config`` (with ``slots``,
    ``region_size`` and ``post_ns``), ``name``, ``client_host``, ``sim``,
    ``group_size``, ``replicas`` (node engines with ``.host``, ``.region``
    and ``.region_mr``; ``replicas[0]`` is the head), ``region`` (the
    client's own copy of the replicated region), ``md_buf`` /
    ``md_stride`` (one metadata message of exactly ``md_stride`` bytes
    per slot), ``qp_out`` (connected to the head), ``submit_thread``,
    ``_build_ns`` and ``_metadata`` (see :meth:`_submitter`) and
    ``read_path`` (a :class:`~repro.core.readpath.ClientReadPath`), then
    call :meth:`_init_op_state` before starting their client processes.
    """

    # ------------------------------------------------------------------
    # Shared state
    # ------------------------------------------------------------------
    def _init_op_state(self) -> None:
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
        if getattr(self, "_closed", False):
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
        self._check_range(offset, size)
        return self.read_path.read(hop, offset, size)

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
        if self.in_flight == 0 and not self._submit_queue:
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

    def _release_drain_waiters(self) -> None:
        if self._drain_waiters and self.in_flight == 0 \
                and not self._submit_queue:
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

        Returns the number of operations aborted.  Queued-but-unsubmitted
        operations are failed too.
        """
        aborted = 0
        for event in list(self._ack_events.values()):
            if not event.triggered:
                event.fail(reason)
                aborted += 1
        self._ack_events.clear()
        self._issue_ns.clear()
        for _op, done, _issue in self._submit_queue:
            if not done.triggered:
                done.fail(reason)
                aborted += 1
        self._submit_queue.clear()
        self._acked = self._next_slot
        # The group is now (vacuously) drained; anyone quiescing it for a
        # rebalance must not hang on ops that will never complete.
        self._release_drain_waiters()
        return aborted

    def _begin_close(self) -> bool:
        """Idempotence guard + in-flight abort; True if teardown should run."""
        if getattr(self, "_closed", False):
            return False
        self._closed = True
        self.abort_in_flight(RuntimeError(f"{self.name} closed"))
        return True

    # ------------------------------------------------------------------
    # Submitter/dispatcher building blocks
    # ------------------------------------------------------------------
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
            if op.durable or op.kind is OpKind.GFLUSH:
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
        ``(op, done, slot)``."""
        sim = self.sim
        while not self._submit_queue:
            self._submit_kick = sim.event()
            yield self._submit_kick
        op, done, issue = self._submit_queue.popleft()
        # Transient service stall: hold the op (don't fail it) until the
        # stall window passes.  Re-check after waking — overlapping
        # stalls may have pushed the deadline out.
        while sim.now < self._stall_until:
            yield sim.timeout(self._stall_until - sim.now)
        # Flow control: never exceed the pipeline depth.
        while self.in_flight >= self.config.slots:
            waiter = sim.event()
            self._window_waiters.append(waiter)
            yield waiter
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
