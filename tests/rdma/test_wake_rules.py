"""Adversarial tests of the rules that let the NIC and driver skip work:

* a stalled send queue is re-evaluated only when inbound DMA overlaps its
  *head descriptor* (``RNIC.wake_written``);
* ``peek_head`` re-reads ring memory on every look but reuses the parse of
  an image it has already seen (content-keyed, bounded memo);
* the cyclic write-back and ``grant`` flip the OWNED bit in place instead
  of re-writing the flags byte.

Each test is built to fail if the rule it aims at is wrong: a missed wake
leaves the patched operation unexecuted, a stale parse executes the old
parameters, a spurious wake shows up as an extra send-queue step.
"""

import pytest

from repro.nvm.memory import NVM
from repro.nvm.power import PowerDomain
from repro.rdma import driver
from repro.rdma.verbs import Access, WCStatus, WorkCompletion
from repro.rdma.wqe import (
    OFF_WAIT_COUNT,
    WQE_SIZE,
    Opcode,
    Sge,
    WorkRequest,
    encode_wqe,
)
from repro.rdma.nic import RNIC
from repro.sim.units import ms, us

from .test_nic import Pair

RING_ACCESS = Access.LOCAL_WRITE | Access.REMOTE_WRITE


@pytest.fixture
def pair(sim):
    return Pair(sim)


@pytest.fixture
def steps(monkeypatch):
    """Send-queue steps taken so far, by QP name: one per look at the head
    (the first, one per wake, one after each executed descriptor)."""
    counts = {}
    original = RNIC._sq_step

    def counting_step(nic, qp):
        counts[qp.name] = counts.get(qp.name, 0) + 1
        original(nic, qp)

    monkeypatch.setattr(RNIC, "_sq_step", counting_step)
    return counts


def loopback_qp(pair, srq=None):
    """A self-connected QP on b — the kind HyperLoop pre-posts into."""
    cq = pair.nic_b.create_cq()
    qp = pair.nic_b.create_qp(cq, cq, sq_slots=16, rq_slots=16, srq=srq)
    qp.connect(qp)
    return qp


def stalled_placeholder(pair):
    """A loopback QP with one RECV (landing at buf_b + 1024) and an unowned
    NOP placeholder at its send-queue head; returns (qp, slot address)."""
    qp = loopback_qp(pair)
    qp.post_recv(WorkRequest(
        Opcode.RECV, [Sge(pair.buf_b.address + 1024, 64)]))
    index = qp.post_send(WorkRequest(Opcode.NOP, signaled=False),
                         owned=False)
    return qp, qp.sq.slot_address(index)


def send_image(pair, image, offset=0):
    """a SENDs ``image``; b's next RECV decides where it scatters."""
    pair.mem_a.write(pair.buf_a.address + offset, image)
    pair.qp_a.post_send(WorkRequest(
        Opcode.SEND, [Sge(pair.buf_a.address + offset, len(image))]))


def loopback_send_image(pair, payload_at, size):
    """Descriptor image of an owned loopback SEND of b's own bytes."""
    return encode_wqe(WorkRequest(
        Opcode.SEND, [Sge(pair.buf_b.address + payload_at, size)],
        signaled=False), owned=True)


class TestPatchedHeadExecutes:
    def test_patch_after_peek(self, sim, pair):
        """The queue has already stalled on — and memoised — the unowned
        placeholder when the scatter rewrites it; the *patched* parameters
        must execute, not the remembered NOP."""
        qp_out, slot = stalled_placeholder(pair)
        sim.run(until=us(50))
        assert pair.mem_b.read(slot, WQE_SIZE) in driver._parse_memo
        pair.qp_b.post_recv(WorkRequest(Opcode.RECV, [Sge(slot, WQE_SIZE)]))
        pair.mem_b.write(pair.buf_b.address + 900, b"patched-op")
        send_image(pair, loopback_send_image(pair, 900, 10))
        sim.run(until=ms(2))
        assert pair.mem_b.read(pair.buf_b.address + 1024, 10) == b"patched-op"

    def test_two_step_patch(self, sim, pair, steps):
        """Fields land first (the head wakes, is still unowned, stalls
        again); opcode + ownership land in a later message."""
        qp_out, slot = stalled_placeholder(pair)
        pair.qp_b.post_recv(WorkRequest(
            Opcode.RECV, [Sge(slot + 2, WQE_SIZE - 2)]))
        pair.qp_b.post_recv(WorkRequest(Opcode.RECV, [Sge(slot, 2)]))
        pair.mem_b.write(pair.buf_b.address + 900, b"two-step")
        image = loopback_send_image(pair, 900, 8)
        sim.run(until=us(50))
        before = steps[qp_out.name]
        send_image(pair, image[2:])
        sim.run(until=us(200))
        assert steps[qp_out.name] == before + 1  # Woken, re-stalled.
        assert pair.mem_b.read(pair.buf_b.address + 1024, 8) == bytes(8)
        send_image(pair, image[:2], offset=512)
        sim.run(until=ms(2))
        assert pair.mem_b.read(pair.buf_b.address + 1024, 8) == b"two-step"

    def test_patched_wait_count_is_re_evaluated(self, sim, pair):
        """A WAIT-stalled head whose ``wait_count`` is rewritten below the
        CQ's count proceeds — no completion arrives to fire its CQ
        subscription, only the DMA can wake it."""
        qp_out = loopback_qp(pair)
        watched = pair.nic_b.create_cq()
        watched.push(WorkCompletion(wr_id=0, opcode=Opcode.NOP,
                                    status=WCStatus.SUCCESS))
        qp_out.post_recv(WorkRequest(
            Opcode.RECV, [Sge(pair.buf_b.address + 1024, 64)]))
        index = qp_out.post_send(WorkRequest(
            Opcode.WAIT, wait_cq=watched.cq_id, wait_count=5, signaled=False))
        pair.mem_b.write(pair.buf_b.address + 900, b"after-wait")
        qp_out.post_send(WorkRequest(
            Opcode.SEND, [Sge(pair.buf_b.address + 900, 10)], signaled=False))
        ring = pair.nic_b.ring_mr(qp_out)
        sim.run(until=us(50))
        assert qp_out.sq.head == index  # Stalled on the WAIT.
        pair.mem_a.write(pair.buf_a.address, (1).to_bytes(4, "little"))
        pair.qp_a.post_send(WorkRequest(
            Opcode.WRITE, [Sge(pair.buf_a.address, 4)],
            remote_addr=qp_out.sq.field_address(index, OFF_WAIT_COUNT),
            rkey=ring.rkey))
        sim.run(until=ms(2))
        assert pair.mem_b.read(pair.buf_b.address + 1024, 10) == b"after-wait"


class TestWakeIsTargeted:
    def _stalled_at_slot_one(self, sim, pair):
        """A queue stalled on an unowned head in slot 1 (slot 0 consumed),
        so a write can end exactly where the head begins."""
        qp_out = loopback_qp(pair)
        qp_out.post_send(WorkRequest(Opcode.NOP, signaled=False))
        index = qp_out.post_send(WorkRequest(Opcode.NOP, signaled=False),
                                 owned=False)
        ring = pair.nic_b.ring_mr(qp_out)
        sim.run(until=us(50))
        assert qp_out.sq.head == index
        return qp_out, qp_out.sq.slot_address(index), ring

    def _write(self, sim, pair, remote_addr, size, rkey):
        pair.qp_a.post_send(WorkRequest(
            Opcode.WRITE, [Sge(pair.buf_a.address, size)],
            remote_addr=remote_addr, rkey=rkey))
        sim.run(until=sim.now + us(100))

    def test_write_touching_last_byte_wakes(self, sim, pair, steps):
        qp_out, head, ring = self._stalled_at_slot_one(sim, pair)
        before = steps[qp_out.name]
        self._write(sim, pair, head + WQE_SIZE - 1, 2, ring.rkey)
        assert steps[qp_out.name] == before + 1

    def test_write_ending_at_first_byte_does_not_wake(self, sim, pair, steps):
        qp_out, head, ring = self._stalled_at_slot_one(sim, pair)
        before = steps[qp_out.name]
        self._write(sim, pair, head - 8, 8, ring.rkey)
        assert steps[qp_out.name] == before
        self._write(sim, pair, head + WQE_SIZE, 8, ring.rkey)  # Next slot.
        assert steps[qp_out.name] == before

    def test_straddling_write_wakes_only_the_queue_whose_head_it_hit(
            self, sim, pair, steps):
        """Two rings adjacent in memory, both queues stalled on slot 0; a
        write straddling the first ring's last slot and the second ring's
        first wakes only the second queue."""
        srq = pair.nic_b.create_srq(slots=16)
        first, second = loopback_qp(pair, srq), loopback_qp(pair, srq)
        assert first.sq.ring.end == second.sq.ring.address
        for qp in (first, second):
            qp.post_send(WorkRequest(Opcode.NOP, signaled=False), owned=False)
        both = pair.nic_b.register_mr(
            first.sq.ring.address, first.sq.ring.size + second.sq.ring.size,
            RING_ACCESS)
        sim.run(until=us(50))
        before = dict(steps)
        self._write(sim, pair, second.sq.ring.address - 4, 8, both.rkey)
        assert steps[second.name] == before[second.name] + 1
        assert steps[first.name] == before[first.name]


class TestListPostedDescriptors:
    """A list post writes one image into many slots; each slot is still its
    own bytes in ring memory, patched and invalidated on its own."""

    SLOTS = 1024

    def _blitted(self, pair, slots=SLOTS, cyclic=False):
        """A loopback QP whose whole send ring is one list post of unowned
        NOP placeholders."""
        cq = pair.nic_b.create_cq()
        qp = pair.nic_b.create_qp(cq, cq, sq_slots=slots, rq_slots=16)
        qp.connect(qp)
        qp.sq.cyclic = cyclic
        qp.post_send_list([WorkRequest(Opcode.NOP, signaled=False)], [False],
                          times=slots)
        return qp

    def test_patching_one_blitted_slot_changes_that_slot_only(self, sim, pair):
        qp_out = self._blitted(pair)
        placeholder = encode_wqe(WorkRequest(Opcode.NOP, signaled=False),
                                 owned=False)
        patched = 700
        slot = qp_out.sq.slot_address(patched)
        pair.qp_b.post_recv(WorkRequest(Opcode.RECV, [Sge(slot, WQE_SIZE)]))
        image = loopback_send_image(pair, 900, 10)
        send_image(pair, image)
        sim.run(until=ms(2))
        # Every look goes through ring memory and the parse memo, as the
        # NIC's would; the real queue's indices stay untouched.
        view = driver.WorkQueue(pair.mem_b, qp_out.sq.ring)
        view.tail = self.SLOTS
        for index in range(self.SLOTS):
            view.head = index
            raw = pair.mem_b.read(view.slot_address(index), WQE_SIZE)
            wqe = view.peek_head()  # simlint: disable=WQ03 (the NIC's look, on a shadow queue)
            if index == patched:
                assert raw == image
                assert wqe.owned and wqe.opcode is Opcode.SEND
            else:
                assert raw == placeholder
                assert not wqe.owned and wqe.opcode is Opcode.NOP
        assert qp_out.sq.head == 0  # Slot 0 is still an unowned head.

    def test_patch_execute_rearm_and_patch_the_same_slot_again(self, sim, pair):
        """A one-slot cyclic ring: the write-back after the first patched op
        re-arms the blitted slot unowned; a second patch runs a second op."""
        qp_out = self._blitted(pair, slots=1, cyclic=True)
        slot = qp_out.sq.slot_address(0)
        for op, payload in enumerate((b"first-op", b"second-op")):
            landing = pair.buf_b.address + 1024 + 64 * op
            qp_out.post_recv(WorkRequest(Opcode.RECV, [Sge(landing, 64)]))
            pair.qp_b.post_recv(WorkRequest(
                Opcode.RECV, [Sge(slot, WQE_SIZE)]))
            pair.mem_b.write(pair.buf_b.address + 900, payload)
            send_image(pair, loopback_send_image(pair, 900, len(payload)))
            sim.run(until=sim.now + ms(2))
            assert pair.mem_b.read(landing, len(payload)) == payload
            # Consumed, re-armed at the tail, ownership cleared again.
            assert (qp_out.sq.head, qp_out.sq.tail) == (op + 1, op + 2)
            assert qp_out.sq.slot_address(qp_out.sq.head) == slot
            assert not driver.decode_wqe(
                pair.mem_b.read(slot, WQE_SIZE)).owned

    def test_power_failure_after_a_list_post_reverts_like_single_posts(
            self, sim):
        """Both rings hold a persisted first half; the second half — one
        list post vs one post per descriptor — is visible only, and power
        loss takes it back identically."""
        wait = WorkRequest(Opcode.WAIT, wait_cq=7, signaled=False)
        nop = WorkRequest(Opcode.NOP, signaled=False)
        outcomes = []
        for as_list in (True, False):
            each = Pair(sim)
            domain = PowerDomain("b")
            domain.register(each.mem_b)
            cq = each.nic_b.create_cq()
            qp = each.nic_b.create_qp(cq, cq, sq_slots=8, rq_slots=8)
            qp.connect(qp)
            ring = qp.sq.ring
            qp.post_send_list([wait, nop], [True, False], times=2)
            each.mem_b.persist(ring.address, ring.size)
            if as_list:
                qp.post_send_list([wait, nop], [True, False], times=2)
            else:
                for _ in range(2):
                    qp.post_send(wait)
                    qp.post_send(nop, owned=False)
            visible = each.mem_b.read(ring.address, ring.size)
            domain.fail()
            outcomes.append((visible, each.mem_b.read(ring.address, ring.size),
                             qp.sq.head, qp.sq.tail))
        assert outcomes[0] == outcomes[1]
        visible, reverted, head, tail = outcomes[0]
        half = 4 * WQE_SIZE
        assert visible[half:] == visible[:half] != bytes(half)
        assert reverted == visible[:half] + bytes(half)
        assert (head, tail) == (0, 8)


class TestFlagFlipInPlace:
    """One lap of a cyclic ring: the NIC's write-back clears OWNED on the
    plain descriptors only, and touches no other byte — also in slot 1,
    whose opcode and flags bytes sit on two pages."""

    WRS = (WorkRequest(Opcode.WAIT, wait_cq=3, wait_count=2),
           WorkRequest(Opcode.SEND, [Sge(64, 8)], wr_id=11),
           WorkRequest(Opcode.RECV, [Sge(128, 16)], wr_id=12),
           WorkRequest(Opcode.WRITE, [Sge(64, 8)], remote_addr=4096,
                       static=True),
           WorkRequest(Opcode.NOP, wr_id=13))
    PLAIN = (1, 4)

    def test_write_back_grant_and_power_failure(self):
        memory = NVM(1 << 16)
        domain = PowerDomain()
        domain.register(memory)
        memory.allocate(4095 - WQE_SIZE, "pad", align=1)
        ring = memory.allocate(len(self.WRS) * WQE_SIZE, "ring", align=1)
        wq = driver.WorkQueue(memory, ring, cyclic=True)
        assert wq.slot_address(1) == 4095
        wq.post_list(self.WRS, [True] * len(self.WRS))
        memory.persist(ring.address, ring.size)
        posted = [encode_wqe(wr, owned=True) for wr in self.WRS]
        armed = [encode_wqe(wr, owned=index not in self.PLAIN)
                 for index, wr in enumerate(self.WRS)]
        for index in self.PLAIN:  # The flags byte, nothing else.
            assert [at for at in range(WQE_SIZE)
                    if armed[index][at] != posted[index][at]] == [1]

        def slot(index):
            return memory.read(wq.slot_address(index), WQE_SIZE)

        for index in range(len(self.WRS)):  # Parse every owned image first.
            assert wq.peek_head().owned  # simlint: disable=WQ03 (the NIC's look)
            wq.advance_head()  # simlint: disable=WQ03 (the NIC's write-back)
            assert slot(index) == armed[index]
        assert (wq.head, wq.tail) == (len(self.WRS), 2 * len(self.WRS))
        for index in range(len(self.WRS)):
            wqe = wq.peek_head()  # simlint: disable=WQ03 (the NIC's look)
            assert wqe.owned is (index not in self.PLAIN)
            assert driver._parse_memo[slot(index)] == wqe
            if index in self.PLAIN:
                wq.grant(wq.head)  # simlint: disable=WQ01 (the driver's grant)
                assert slot(index) == posted[index]
                assert wq.peek_head().owned  # simlint: disable=WQ03 (the NIC's look)
            wq.advance_head()  # simlint: disable=WQ03 (the NIC's write-back)
        assert b"".join(map(slot, range(len(self.WRS)))) == b"".join(armed)
        domain.fail()
        assert memory.read(ring.address, ring.size) == b"".join(posted)
