"""Verbs-style userspace RDMA API.

This mirrors the slice of ``libibverbs`` that HyperLoop and its baselines
are written against: protection domains are implicit (one per NIC), and the
objects here are memory regions with lkeys/rkeys and access flags, completion
queues with optional completion channels (event mode), and reliable-connected
queue pairs.

The separation of concerns matches real systems: *verbs* is the user-facing
API, :mod:`repro.rdma.driver` owns descriptor rings, and
:mod:`repro.rdma.nic` executes descriptors.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from enum import Enum, IntFlag
from typing import (TYPE_CHECKING, Callable, Deque, Dict, List, Optional,
                    Sequence, Tuple)

from ..sim.engine import Event, Simulator
from .driver import WorkQueue
from .wqe import Opcode, WorkRequest

if TYPE_CHECKING:
    from .nic import RNIC

__all__ = [
    "Access",
    "MemoryRegion",
    "RemoteAccessError",
    "WCStatus",
    "WorkCompletion",
    "CompletionChannel",
    "CompletionQueue",
    "QPState",
    "QueuePair",
]


class Access(IntFlag):
    """Memory-region access permissions."""

    LOCAL_WRITE = 1
    REMOTE_READ = 2
    REMOTE_WRITE = 4
    REMOTE_ATOMIC = 8


class RemoteAccessError(Exception):
    """rkey mismatch, out-of-bounds access, or missing permission."""


@dataclass(frozen=True, slots=True)
class MemoryRegion:
    """A registered slice of host memory.

    ``rkey`` authenticates remote access; bounds and access flags are checked
    by the NIC on every remote operation (the paper's safety requirement for
    exposing driver metadata regions, §7).
    """

    addr: int
    length: int
    lkey: int
    rkey: int
    access: Access
    name: str = ""

    def check(self, address: int, size: int, needed: Access) -> None:
        if not (self.addr <= address and address + size <= self.addr + self.length):
            raise RemoteAccessError(
                f"MR {self.name or self.rkey}: [{address}, {address + size}) "
                f"outside [{self.addr}, {self.addr + self.length})")
        if needed and not (self.access & needed):
            raise RemoteAccessError(
                f"MR {self.name or self.rkey}: missing access {needed!r}")


class WCStatus(Enum):
    SUCCESS = "success"
    REMOTE_ACCESS_ERROR = "remote-access-error"
    RNR_RETRY_EXCEEDED = "rnr-retry-exceeded"
    FLUSHED = "flushed"


@dataclass(frozen=True, slots=True)
class WorkCompletion:
    """A completion-queue entry as returned by ``poll``."""

    wr_id: int
    opcode: Opcode
    status: WCStatus
    byte_len: int = 0
    imm: int = 0
    qp_num: int = 0
    has_imm: bool = False


class CompletionChannel:
    """Event-mode completion notification (``ibv_comp_channel``).

    A host thread blocks on :meth:`wait` and is woken when an armed CQ gets a
    completion.  The *scheduling* cost of that wakeup is paid by the caller
    via the CPU model — this is exactly where Naïve-RDMA's latency comes
    from.
    """

    __slots__ = ("sim", "_pending", "_waiter")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._pending = 0
        self._waiter: Optional[Event] = None

    def notify(self) -> None:
        self._pending += 1
        if self._waiter is not None and not self._waiter.triggered:
            waiter, self._waiter = self._waiter, None
            waiter.succeed()

    def wait(self) -> Event:
        """Event that fires when a notification is (or becomes) available."""
        event = self.sim.event()
        if self._pending > 0:
            self._pending -= 1
            event.succeed()
        else:
            if self._waiter is not None and not self._waiter.triggered:
                raise RuntimeError("completion channel already has a waiter")
            self._waiter = event
        return event


class CompletionQueue:
    """A completion queue.

    ``count`` is the total number of CQEs ever added — the monotonic counter
    that WAIT work requests compare against (CORE-Direct semantics).  A
    ``count_only`` CQ feeds only WAITs and stores no entries, as mlx5's
    ignore-overrun CQs under CORE-Direct do: nothing polls it.
    """

    __slots__ = ("sim", "cq_id", "name", "channel", "_entries", "count",
                 "_wait_consumed", "_armed", "_wait_subscribers")

    _ids = itertools.count(1)

    def __init__(self, sim: Simulator, channel: Optional[CompletionChannel] = None,
                 name: str = "", count_only: bool = False) -> None:
        self.sim = sim
        self.cq_id = next(CompletionQueue._ids)
        self.name = name or f"cq{self.cq_id}"
        self.channel = channel
        self._entries: Deque[WorkCompletion] = \
            deque(maxlen=0) if count_only else deque()
        self.count = 0
        # Completions consumed by consume-mode WAIT WQEs, per waiting QP
        # (CORE-Direct semantics: each waiting queue advances through the
        # CQ's completion stream independently, so several queues can fan
        # out from one CQ and static cyclic WAIT descriptors need no
        # per-op count patching).
        self._wait_consumed: Dict[int, int] = {}
        self._armed = False
        self._wait_subscribers: List[Tuple[int, Callable[[], None]]] = []

    @property
    def wait_consumed(self) -> int:
        """Total consume-mode WAIT consumptions (diagnostics)."""
        return sum(self._wait_consumed.values())

    def wait_cursor(self, qp_num: int) -> int:
        """How many completions the given QP's WAITs have consumed."""
        return self._wait_consumed.get(qp_num, 0)

    def advance_wait_cursor(self, qp_num: int, target: int) -> None:
        self._wait_consumed[qp_num] = target

    def push(self, wc: WorkCompletion) -> None:
        """Add a completion (NIC side)."""
        self._entries.append(wc)
        self.count += 1
        if self.channel is not None and self._armed:
            self._armed = False
            self.channel.notify()
        if self._wait_subscribers:
            ready = [s for s in self._wait_subscribers if s[0] <= self.count]
            self._wait_subscribers = [s for s in self._wait_subscribers
                                      if s[0] > self.count]
            for _target, callback in ready:
                callback()

    def poll(self, max_entries: int = 16) -> List[WorkCompletion]:
        """Drain up to ``max_entries`` completions (software side)."""
        got = []
        while self._entries and len(got) < max_entries:
            got.append(self._entries.popleft())
        return got

    def req_notify(self) -> None:
        """Arm the CQ: next completion notifies the channel (event mode)."""
        if self.channel is None:
            raise RuntimeError(f"{self.name}: no completion channel")
        self._armed = True
        if self._entries:
            # Edge case mirrored from real verbs: arm after completions
            # arrived — notify immediately so the consumer never sleeps
            # through a completion.
            self._armed = False
            self.channel.notify()

    def subscribe_count(self, target_count: int,
                        callback: Callable[[], None]) -> None:
        """Run ``callback`` once ``count`` reaches ``target_count`` (WAIT)."""
        if self.count >= target_count:
            callback()
        else:
            self._wait_subscribers.append((target_count, callback))


class QPState(Enum):
    RESET = "reset"
    RTS = "rts"       # Ready-to-send (we collapse INIT/RTR/RTS).
    ERROR = "error"


class QueuePair:
    """A reliable-connected queue pair.

    Created via :meth:`repro.rdma.nic.RNIC.create_qp`.  ``connect`` wires two
    QPs together (or a QP to itself for HyperLoop's loopback copy/CAS QPs).
    """

    __slots__ = ("nic", "qp_num", "name", "sq", "rq", "send_cq", "recv_cq",
                 "state", "remote", "uses_srq")

    _nums = itertools.count(1)

    def __init__(self, nic: "RNIC", send_queue: WorkQueue, recv_queue: WorkQueue,
                 send_cq: CompletionQueue, recv_cq: CompletionQueue, name: str = "") -> None:
        self.nic = nic
        self.qp_num = next(QueuePair._nums)
        self.name = name or f"qp{self.qp_num}"
        self.sq = send_queue
        self.rq = recv_queue
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.state = QPState.RESET
        self.remote: Optional["QueuePair"] = None
        self.uses_srq = False  # Set by RNIC.create_qp for shared-RQ QPs.

    def connect(self, remote: "QueuePair") -> None:
        """Transition both QPs to RTS, connected to each other.

        Self-connection (``qp.connect(qp)``) creates a loopback QP, used by
        HyperLoop for local memory copy and local CAS (§4.2).
        """
        if self.state is not QPState.RESET and self.remote is not remote:
            raise RuntimeError(f"{self.name}: already connected")
        self.remote = remote
        self.state = QPState.RTS
        if remote is not self:
            remote.remote = self
            remote.state = QPState.RTS

    @property
    def is_loopback(self) -> bool:
        return self.remote is self

    # ------------------------------------------------------------------
    # Posting (delegates to driver rings, then rings the NIC doorbell)
    # ------------------------------------------------------------------
    def post_send(self, wr: WorkRequest, owned: bool = True) -> int:
        """Post to the send queue; returns the absolute slot index.

        ``owned=False`` is HyperLoop's deferred-ownership pre-posting.
        """
        if self.state is not QPState.RTS:
            raise RuntimeError(f"{self.name}: not connected (state={self.state})")
        if wr.opcode is Opcode.RECV:
            raise ValueError("RECV work requests go to post_recv")
        index = self.sq.post(wr, owned=owned)
        self.nic.doorbell(self)
        return index

    def post_send_list(self, wrs: Sequence[WorkRequest],
                       owned: Sequence[bool], times: int = 1) -> int:
        """List form of :meth:`post_send`: the block ``wrs`` ``times`` over,
        checked as a whole, one doorbell (:meth:`WorkQueue.post_list`)."""
        if self.state is not QPState.RTS:
            raise RuntimeError(f"{self.name}: not connected (state={self.state})")
        if any(wr.opcode is Opcode.RECV for wr in wrs):
            raise ValueError("RECV work requests go to post_recv")
        index = self.sq.post_list(wrs, owned, times)
        if self.sq.tail > index:
            self.nic.doorbell(self)
        return index

    def post_recv(self, wr: WorkRequest) -> int:
        if wr.opcode is not Opcode.RECV:
            raise ValueError(f"post_recv requires RECV, got {wr.opcode}")
        return self.rq.post(wr, owned=True)

    def post_recv_list(self, wrs: Sequence[WorkRequest], times: int = 1) -> int:
        """List form of :meth:`post_recv`."""
        if any(wr.opcode is not Opcode.RECV for wr in wrs):
            raise ValueError("post_recv_list requires RECV work requests")
        return self.rq.post_list(wrs, (True,) * len(wrs), times)

    def grant_send(self, index: int) -> None:
        """Grant NIC ownership of a deferred send WQE, then doorbell."""
        self.sq.grant(index)
        self.nic.doorbell(self)

    def to_error(self) -> None:
        """Flush the QP: outstanding WQEs complete with FLUSHED status."""
        self.state = QPState.ERROR
        # A dead QP's rings stop re-arming (cyclic rings would otherwise
        # never drain).  A shared RQ keeps serving its other QPs.
        self.sq.cyclic = False
        if not self.uses_srq:
            self.rq.cyclic = False
        # A pre-posted ring flushes thousands of identical descriptors; the
        # completions are immutable, so equal ones are one shared object.
        completions: Dict[Tuple[Opcode, int], WorkCompletion] = {}
        for flushed in self.sq.flush():
            wc = completions.get(flushed)
            if wc is None:
                opcode, wr_id = flushed
                wc = completions[flushed] = WorkCompletion(
                    wr_id=wr_id, opcode=opcode, status=WCStatus.FLUSHED,
                    qp_num=self.qp_num)
            self.send_cq.push(wc)
        if not self.uses_srq:
            self.rq.reset()
