"""Tests for the modified userspace driver: descriptor rings."""

from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.chain import prepost_gated
from repro.nvm.memory import NVM
from repro.rdma import driver
from repro.rdma.driver import RingFullError, WorkQueue
from repro.rdma.wqe import (
    OFF_NUM_SGE,
    OFF_OPCODE,
    WQE_SIZE,
    Opcode,
    Sge,
    WorkRequest,
    encode_wqe,
)


@pytest.fixture
def ring():
    memory = NVM(64 * 1024)
    alloc = memory.allocate(8 * WQE_SIZE, "ring")
    return memory, WorkQueue(memory, alloc, name="testwq")


class TestPosting:
    def test_post_and_peek(self, ring):
        _memory, wq = ring
        index = wq.post(WorkRequest(Opcode.SEND, [Sge(0, 4)], wr_id=9))
        assert index == 0
        decoded = wq.peek_head()
        assert decoded.opcode is Opcode.SEND
        assert decoded.wr_id == 9
        assert decoded.owned

    def test_deferred_ownership(self, ring):
        """The HyperLoop driver change: post without yielding ownership."""
        _memory, wq = ring
        wq.post(WorkRequest(Opcode.WRITE), owned=False)
        assert not wq.peek_head().owned
        wq.grant(0)
        assert wq.peek_head().owned

    def test_ring_full(self, ring):
        _memory, wq = ring
        for _ in range(8):
            wq.post(WorkRequest(Opcode.NOP))
        with pytest.raises(RingFullError):
            wq.post(WorkRequest(Opcode.NOP))

    def test_fifo_order(self, ring):
        _memory, wq = ring
        for wr_id in range(4):
            wq.post(WorkRequest(Opcode.NOP, wr_id=wr_id))
        seen = []
        while wq.peek_head() is not None:
            seen.append(wq.peek_head().wr_id)
            wq.advance_head()
        assert seen == [0, 1, 2, 3]

    def test_slot_reuse_after_advance(self, ring):
        _memory, wq = ring
        for _ in range(8):
            wq.post(WorkRequest(Opcode.NOP))
        for _ in range(8):
            wq.advance_head()
        index = wq.post(WorkRequest(Opcode.SEND))
        assert index == 8
        assert wq.slot_address(8) == wq.slot_address(0)

    def test_advance_past_tail_rejected(self, ring):
        _memory, wq = ring
        with pytest.raises(RuntimeError):
            wq.advance_head()

    def test_empty_peek(self, ring):
        _memory, wq = ring
        assert wq.peek_head() is None


class TestRemotePatching:
    def test_memory_patch_changes_behaviour(self, ring):
        """Writing descriptor bytes directly into ring memory changes what
        the NIC decodes — the substance of remote WR manipulation."""
        memory, wq = ring
        from repro.rdma.wqe import encode_wqe
        index = wq.post(WorkRequest(Opcode.NOP), owned=False)
        patch = encode_wqe(WorkRequest(
            Opcode.WRITE, [Sge(0x500, 128)], remote_addr=0x900, rkey=3),
            owned=True)
        memory.write(wq.slot_address(index), patch)
        decoded = wq.peek_head()
        assert decoded.opcode is Opcode.WRITE
        assert decoded.owned
        assert decoded.remote_addr == 0x900

    def test_field_address(self, ring):
        _memory, wq = ring
        base = wq.slot_address(2)
        assert wq.field_address(2, 16) == base + 16
        with pytest.raises(ValueError):
            wq.field_address(0, WQE_SIZE)


class TestCyclicRings:
    def test_cyclic_rearms_slots(self):
        memory = NVM(64 * 1024)
        alloc = memory.allocate(4 * WQE_SIZE, "cyc")
        wq = WorkQueue(memory, alloc, cyclic=True)
        for _ in range(4):
            wq.post(WorkRequest(Opcode.NOP), owned=False)
        for _ in range(10):  # Far more consumes than slots.
            wq.advance_head()
        assert wq.outstanding == 4  # Tail follows head.

    def test_cyclic_clears_ownership_on_writeback(self):
        memory = NVM(64 * 1024)
        alloc = memory.allocate(2 * WQE_SIZE, "cyc2")
        wq = WorkQueue(memory, alloc, cyclic=True)
        wq.post(WorkRequest(Opcode.SEND), owned=True)
        wq.post(WorkRequest(Opcode.SEND), owned=True)
        wq.advance_head()
        wq.advance_head()
        # Re-armed descriptors are unowned: they stall until re-patched.
        assert not wq.peek_head().owned

    def test_cyclic_keeps_wait_armed(self):
        memory = NVM(64 * 1024)
        alloc = memory.allocate(2 * WQE_SIZE, "cyc3")
        wq = WorkQueue(memory, alloc, cyclic=True)
        wq.post(WorkRequest(Opcode.WAIT, wait_cq=1, wait_count=0))
        wq.post(WorkRequest(Opcode.NOP), owned=False)
        wq.advance_head()
        wq.advance_head()
        assert wq.peek_head().owned  # The WAIT stays NIC-owned.

    def test_cyclic_keeps_recv_armed(self):
        memory = NVM(64 * 1024)
        alloc = memory.allocate(WQE_SIZE, "cyc4")
        wq = WorkQueue(memory, alloc, cyclic=True)
        wq.post(WorkRequest(Opcode.RECV, [Sge(0, 64)]))
        wq.advance_head()
        decoded = wq.peek_head()
        assert decoded.opcode is Opcode.RECV
        assert decoded.owned


def test_misaligned_ring_rejected():
    memory = NVM(4096)
    alloc = memory.allocate(WQE_SIZE + 1, "bad")
    with pytest.raises(ValueError):
        WorkQueue(memory, alloc)


class TestParseMemo:
    """``peek_head`` reads ring memory every time and reuses only the
    *parse* of an image it has seen: whatever rewrites the bytes — a DMA
    patch, a power failure, free + re-allocate — is a different key."""

    def test_identical_slots_share_a_parse_until_one_is_patched(self, ring):
        memory, wq = ring
        wr = WorkRequest(Opcode.WRITE, [Sge(64, 8)], remote_addr=0x100)
        wq.post(wr, owned=False)
        wq.post(wr, owned=False)
        original = wq.peek_head()
        memory.write(wq.slot_address(0), encode_wqe(WorkRequest(
            Opcode.WRITE, [Sge(64, 8)], remote_addr=0x200), owned=True))
        head = wq.peek_head()
        assert head.owned and head.remote_addr == 0x200
        wq.advance_head()
        sibling = wq.peek_head()  # The bytes slot 0 used to hold.
        assert sibling is original
        assert not sibling.owned and sibling.remote_addr == 0x100

    def test_parses_are_immutable(self, ring):
        _memory, wq = ring
        wq.post(WorkRequest(Opcode.WRITE, [Sge(64, 8)]))
        wqe = wq.peek_head()
        with pytest.raises(FrozenInstanceError):
            wqe.owned = False
        assert isinstance(wqe.sg_list, tuple)

    def test_power_failure_reverts_a_memoised_head(self, ring):
        memory, wq = ring
        index = wq.post(WorkRequest(Opcode.WRITE, [Sge(64, 8)]), owned=False)
        memory.persist(wq.ring.address, wq.ring.size)
        wq.grant(index)  # Visible, never persisted.
        assert wq.peek_head().owned
        memory.on_power_failure()
        assert not wq.peek_head().owned

    def test_free_and_reallocate_reads_a_blank_descriptor(self, ring):
        memory, wq = ring
        wq.post(WorkRequest(Opcode.WRITE, [Sge(64, 8)], wr_id=9))
        assert wq.peek_head().wr_id == 9
        memory.free(wq.ring)
        again = WorkQueue(memory, memory.allocate(8 * WQE_SIZE, "ring2"))
        assert again.ring.address == wq.ring.address
        again.tail = 1  # Look at slot 0 without posting over it.
        blank = again.peek_head()
        assert blank.opcode is Opcode.NOP and not blank.owned
        assert blank.wr_id == 0

    def test_memo_is_bounded(self, ring):
        _memory, wq = ring
        for wr_id in range(driver._PARSE_MEMO_ENTRIES + 50):
            wq.post(WorkRequest(Opcode.NOP, wr_id=wr_id))
            assert wq.peek_head().wr_id == wr_id
            wq.advance_head()
        assert len(driver._parse_memo) <= driver._PARSE_MEMO_ENTRIES


def _wr_pool():
    """A few WR objects to draw lists from — repeats share identity, the
    way a pre-posted pattern repeats one WAIT and one placeholder."""
    return [
        WorkRequest(Opcode.NOP, signaled=False),
        WorkRequest(Opcode.WAIT, wait_cq=3, wait_count=0, signaled=False),
        WorkRequest(Opcode.WRITE, [Sge(64, 8)], remote_addr=0x100, rkey=7),
        WorkRequest(Opcode.SEND, [Sge(8 * i, i) for i in range(6)],
                    wr_id=11, static=True),
        WorkRequest(Opcode.RECV, [Sge(512, 32)], wr_id=5),
    ]


def _twin_rings(slots, offset):
    """Two identical empty rings whose next slot is ``offset``."""
    twins = []
    for _ in range(2):
        memory = NVM(slots * WQE_SIZE + 4096)
        wq = WorkQueue(memory, memory.allocate(slots * WQE_SIZE, "ring"))
        wq.head = wq.tail = offset
        twins.append((memory, wq))
    return twins


def _ring_bytes(memory, wq):
    return memory.read(wq.ring.address, wq.ring.size)


class TestListPost:
    """``post_list`` is ``post`` in a loop, minus the repeated work."""

    @settings(max_examples=200, deadline=None)
    @given(picks=st.lists(st.tuples(st.integers(0, 4), st.booleans()),
                          max_size=6),
           times=st.integers(0, 5), slots=st.integers(1, 12),
           offset=st.integers(0, 40), taken=st.integers(0, 3))
    def test_same_ring_as_one_post_per_descriptor(self, picks, times, slots,
                                                  offset, taken):
        pool = _wr_pool()
        wrs = [pool[i] for i, _own in picks]
        owned = [own for _i, own in picks]
        (mem_list, wq_list), (mem_each, wq_each) = _twin_rings(slots, offset)
        for memory, wq in ((mem_list, wq_list), (mem_each, wq_each)):
            for _ in range(min(taken, slots)):  # Outstanding, not ours.
                wq.post(WorkRequest(Opcode.NOP, wr_id=99))
        before = _ring_bytes(mem_list, wq_list), wq_list.tail
        if len(wrs) * times > wq_each.free_slots:
            with pytest.raises(RingFullError):
                wq_list.post_list(wrs, owned, times)
            assert (_ring_bytes(mem_list, wq_list), wq_list.tail) == before
            return
        first = wq_each.tail
        for _ in range(times):
            for wr, own in zip(wrs, owned):
                wq_each.post(wr, owned=own)
        assert wq_list.post_list(wrs, owned, times) == first
        assert wq_list.tail == wq_each.tail
        assert _ring_bytes(mem_list, wq_list) == _ring_bytes(mem_each, wq_each)

    def test_a_list_that_does_not_fit_changes_nothing(self, ring):
        memory, wq = ring
        wq.post(WorkRequest(Opcode.NOP, wr_id=1))
        before = _ring_bytes(memory, wq)
        with pytest.raises(RingFullError):
            wq.post_list([WorkRequest(Opcode.NOP)] * 2, [True, False],
                         times=4)  # 8 into 7 free slots.
        assert (_ring_bytes(memory, wq), wq.tail) == (before, 1)
        wq.post_list([WorkRequest(Opcode.NOP)], [True], times=7)  # Just fits.
        assert wq.free_slots == 0

    def test_a_list_that_does_not_encode_changes_nothing(self, ring):
        memory, wq = ring
        too_wide = WorkRequest(Opcode.SEND, [Sge(0, 1)] * 7)
        with pytest.raises(ValueError):
            wq.post_list([WorkRequest(Opcode.NOP, wr_id=4), too_wide],
                         [True, True])
        assert _ring_bytes(memory, wq) == bytes(wq.ring.size)
        assert wq.tail == 0
        with pytest.raises(ValueError):  # Mask and list must pair up.
            wq.post_list([WorkRequest(Opcode.NOP)] * 2, [True])
        with pytest.raises(ValueError):
            wq.post_list([WorkRequest(Opcode.NOP)], [True], times=-1)

    def test_each_distinct_wr_is_encoded_once(self, monkeypatch):
        (memory, wq), (mem_each, wq_each) = _twin_rings(slots=1024,
                                                        offset=1002)
        wait, nop = _wr_pool()[1], _wr_pool()[0]
        for _ in range(256):
            for wr, own in ((wait, True), (nop, False), (nop, False),
                            (nop, False)):
                wq_each.post(wr, owned=own)
        encodes = []
        encode = driver.encode_wqe

        def counting_encode(wr, owned):
            encodes.append(wr)
            return encode(wr, owned)

        monkeypatch.setattr(driver, "encode_wqe", counting_encode)
        wq.post_list([wait, nop, nop, nop], [True, False, False, False],
                     times=256)
        # WAIT and the unowned placeholder, though the ring wraps two
        # descriptors into a block, onto 160 pattern pages.
        assert len(encodes) == 2
        assert wq.outstanding == 1024
        assert _ring_bytes(memory, wq) == _ring_bytes(mem_each, wq_each)
        # The same WR posted owned and unowned is two images.
        wq.head = wq.tail
        wq.post_list([nop, nop], [True, False])
        assert len(encodes) == 4

    def test_a_gated_ring_stores_one_page_per_pattern_phase(self, cluster):
        """1 024 slots of ``[WAIT, NOP x 3]`` (640 B) fill 160 ring pages;
        all but the two edge pages are one of five shared objects."""
        host = cluster.add_host("pp")
        cq = host.nic.create_cq()
        qp = host.nic.create_qp(cq, cq, sq_slots=4 * 1024, rq_slots=8)
        qp.connect(qp)
        prepost_gated(qp, cq, 3, 1024)
        ring, store = qp.sq.ring, host.memory._data
        first = ring.address // store.page_size
        last = (ring.end - 1) // store.page_size
        held = {index: store._pages[index]
                for index in range(first, last + 1)}
        shared = {id(page) for page in held.values()
                  if isinstance(page, bytes)}
        private = [index for index, page in held.items()
                   if not isinstance(page, bytes)]
        assert len(shared) <= 5
        assert set(private) <= {first, last}
        block = b"".join(
            host.memory.read(qp.sq.slot_address(index), WQE_SIZE)
            for index in range(4))
        assert host.memory.read(ring.address, ring.size) == block * 1024


class TestFlush:
    def test_wrapped_ring_flushes_in_ring_order(self, ring):
        _memory, wq = ring
        wq.head = wq.tail = 5
        for wr_id in range(8):
            wq.post(WorkRequest(Opcode.SEND if wr_id % 2 else Opcode.WAIT,
                                wr_id=wr_id), owned=bool(wr_id % 3))
        assert list(wq.flush()) == [
            (Opcode.SEND if wr_id % 2 else Opcode.WAIT, wr_id)
            for wr_id in range(8)]
        assert wq.head == wq.tail == 13

    @pytest.mark.parametrize("field_offset, value", [
        (OFF_NUM_SGE, 7),     # More SGEs than a descriptor holds.
        (OFF_OPCODE, 99),     # No such opcode.
    ])
    def test_corrupt_descriptor_stops_the_flush_where_peek_would(
            self, ring, field_offset, value):
        memory, wq = ring
        for wr_id in range(4):
            wq.post(WorkRequest(Opcode.NOP, wr_id=wr_id))
        memory.write(wq.field_address(2, field_offset), bytes([value]))
        flushed = []
        with pytest.raises(ValueError):
            for entry in wq.flush():
                flushed.append(entry)
        assert flushed == [(Opcode.NOP, 0), (Opcode.NOP, 1)]
        assert wq.head == 2
        with pytest.raises(ValueError):  # What the NIC would have hit.
            wq.peek_head()


class TestPatternRings:
    """Copy-on-write at ring level: two gated rings of one storage host
    are pre-posted from one block, so every whole page of either is one of
    a few shared objects, and one op then patches a single slot."""

    SLOTS = 64                       # 256 descriptors, 10 ring pages.
    START = 4 * (SLOTS // 2)         # Mid-ring: a whole, shared page.

    def test_a_patched_slot_changes_nothing_else(self, cluster):
        client = cluster.add_host("cow-client")
        replica = cluster.add_host("cow-replica")
        nic, memory = replica.nic, replica.memory
        up_cq = nic.create_cq()
        rings = []
        for _ in range(2):
            loop_cq = nic.create_cq()
            qp = nic.create_qp(loop_cq, loop_cq, sq_slots=4 * self.SLOTS,
                               rq_slots=8)
            qp.connect(qp)
            qp.sq.cyclic = True
            qp.sq.head = qp.sq.tail = self.START
            prepost_gated(qp, up_cq, 3, self.SLOTS)
            # Persisted, as a driver would flush them, so that a power
            # failure keeps them (and the durable image shares their pages).
            memory.persist(qp.sq.ring.address, qp.sq.ring.size)
            rings.append(qp)
        target, other = rings

        def image(qp):
            return memory.read(qp.sq.ring.address, qp.sq.ring.size)

        def durable(qp):
            return memory.read_durable(qp.sq.ring.address, qp.sq.ring.size)

        before_target, before_other = image(target), image(other)
        assert before_target == before_other
        patched = slice(target.sq.slot_address(self.START + 1)
                        - target.sq.ring.address,
                        target.sq.slot_address(self.START + 4)
                        - target.sq.ring.address)
        page = target.sq.slot_address(self.START + 1) // 4096
        assert isinstance(memory._data._pages[page], bytes)
        assert isinstance(memory._durable_data._pages[page], bytes)

        # One op: the metadata SEND scatters three owned NOPs onto the
        # slot's placeholders; its RECV completion opens the WAIT; the NIC
        # runs them and its write-back clears OWNED again.
        patches = [WorkRequest(Opcode.NOP, wr_id=0x5A + hop, signaled=False)
                   for hop in range(3)]
        up_qp = nic.create_qp(loop_cq, up_cq, sq_slots=8, rq_slots=8)
        up_qp.post_recv(WorkRequest(Opcode.RECV, [
            Sge(target.sq.slot_address(self.START + hop), WQE_SIZE)
            for hop in (1, 2, 3)]))
        out_cq = client.nic.create_cq()
        out_qp = client.nic.create_qp(out_cq, out_cq, sq_slots=8, rq_slots=8)
        out_qp.connect(up_qp)
        metadata = client.memory.allocate(3 * WQE_SIZE, "metadata")
        client.memory.write(metadata.address, b"".join(
            encode_wqe(wr, owned=True) for wr in patches))
        out_qp.post_send(WorkRequest(Opcode.SEND,
                                     [Sge(metadata.address, 3 * WQE_SIZE)]))
        cluster.run(until=cluster.sim.now + 1_000_000)
        assert target.sq.head == self.START + 4

        def rest(ring_bytes):
            return ring_bytes[:patched.start] + ring_bytes[patched.stop:]

        ran = image(target)
        assert ran[patched] == b"".join(encode_wqe(wr, owned=False)
                                        for wr in patches)
        assert rest(ran) == rest(before_target)
        assert image(other) == before_other
        # The NIC cache wrote the scattered range back after the NIC ran
        # it, so the durable image holds the slot as run.
        assert durable(target) == ran
        assert durable(other) == before_other

        replica.fail_power()
        assert image(target) == durable(target) == ran
        assert image(other) == durable(other) == before_other

        # The group closes: the target's ring goes back to zeros.
        address, size = target.sq.ring.address, target.sq.ring.size
        nic.destroy_qp(target)
        assert memory.read(address, size) == bytes(size)
        assert memory.read_durable(address, size) == bytes(size)
        assert image(other) == durable(other) == before_other

        # The driver grants one placeholder of the other ring, on a page
        # the power failure left shared with the durable image: one flags
        # byte changes, in the visible image only.
        granted = self.START + 4 * 8 + 1
        at = other.sq.field_address(granted, 1) - other.sq.ring.address
        assert isinstance(memory._data._pages[
            other.sq.slot_address(granted) // 4096], bytes)
        other.sq.grant(granted)
        want = bytearray(before_other)
        want[at] |= 1
        assert image(other) == bytes(want)
        assert durable(other) == before_other
