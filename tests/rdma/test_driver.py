"""Tests for the modified userspace driver: descriptor rings."""
# These tests exercise driver/NIC descriptor internals (peek_head,
# advance_head, grant, raw ring writes) from test code by design.
# simlint: disable-file=WQ01,WQ02,WQ03

from dataclasses import FrozenInstanceError

import pytest

from repro.nvm.memory import NVM
from repro.rdma import driver
from repro.rdma.driver import RingFullError, WorkQueue
from repro.rdma.wqe import WQE_SIZE, Opcode, Sge, WorkRequest, encode_wqe


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
