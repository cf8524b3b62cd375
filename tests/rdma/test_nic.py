"""End-to-end tests of the RNIC model: operations, WAIT, remote patching."""

import pytest

from repro.nvm.memory import NVM
from repro.rdma.fabric import Fabric
from repro.rdma.nic import NICParams, RNIC
from repro.rdma.verbs import Access, RemoteAccessError, WCStatus
from repro.rdma.wqe import Opcode, Sge, WorkRequest, encode_wqe
from repro.sim.units import ms, us

FULL = Access.LOCAL_WRITE | Access.REMOTE_WRITE | Access.REMOTE_READ \
    | Access.REMOTE_ATOMIC


class Pair:
    """Two connected NICs with one QP pair and a registered MR each."""

    def __init__(self, sim, params=None):
        self.sim = sim
        fabric = Fabric(sim)
        self.mem_a = NVM(1 << 20, "a.mem")
        self.mem_b = NVM(1 << 20, "b.mem")
        self.nic_a = RNIC(sim, self.mem_a, fabric, "a", params=params)
        self.nic_b = RNIC(sim, self.mem_b, fabric, "b", params=params)
        self.cq_a = self.nic_a.create_cq()
        self.cq_b = self.nic_b.create_cq()
        self.qp_a = self.nic_a.create_qp(self.cq_a, self.cq_a,
                                         sq_slots=64, rq_slots=64)
        self.qp_b = self.nic_b.create_qp(self.cq_b, self.cq_b,
                                         sq_slots=64, rq_slots=64)
        self.qp_a.connect(self.qp_b)
        self.buf_a = self.mem_a.allocate(8192, "buf_a")
        self.buf_b = self.mem_b.allocate(8192, "buf_b")
        self.mr_a = self.nic_a.register_mr(self.buf_a.address, 8192, FULL)
        self.mr_b = self.nic_b.register_mr(self.buf_b.address, 8192, FULL)


@pytest.fixture
def pair(sim):
    return Pair(sim)


class TestWrite:
    def test_write_lands_remotely(self, sim, pair):
        pair.mem_a.write(pair.buf_a.address, b"payload")
        pair.qp_a.post_send(WorkRequest(
            Opcode.WRITE, [Sge(pair.buf_a.address, 7)], wr_id=1,
            remote_addr=pair.buf_b.address, rkey=pair.mr_b.rkey))
        sim.run(until=ms(1))
        assert pair.mem_b.read(pair.buf_b.address, 7) == b"payload"
        completions = pair.cq_a.poll()
        assert completions[0].status is WCStatus.SUCCESS

    def test_write_gathers_multiple_sges(self, sim, pair):
        pair.mem_a.write(pair.buf_a.address, b"AAAA")
        pair.mem_a.write(pair.buf_a.address + 100, b"BBBB")
        pair.qp_a.post_send(WorkRequest(
            Opcode.WRITE,
            [Sge(pair.buf_a.address, 4), Sge(pair.buf_a.address + 100, 4)],
            remote_addr=pair.buf_b.address, rkey=pair.mr_b.rkey))
        sim.run(until=ms(1))
        assert pair.mem_b.read(pair.buf_b.address, 8) == b"AAAABBBB"

    def test_bad_rkey_completes_with_error(self, sim, pair):
        pair.qp_a.post_send(WorkRequest(
            Opcode.WRITE, [Sge(pair.buf_a.address, 4)],
            remote_addr=pair.buf_b.address, rkey=0xDEAD))
        sim.run(until=ms(1))
        assert pair.cq_a.poll()[0].status is WCStatus.REMOTE_ACCESS_ERROR
        assert pair.nic_b.remote_access_errors.value == 1

    def test_out_of_bounds_write_rejected(self, sim, pair):
        pair.qp_a.post_send(WorkRequest(
            Opcode.WRITE, [Sge(pair.buf_a.address, 64)],
            remote_addr=pair.buf_b.address + 8192 - 8, rkey=pair.mr_b.rkey))
        sim.run(until=ms(1))
        assert pair.cq_a.poll()[0].status is WCStatus.REMOTE_ACCESS_ERROR

    def test_write_with_imm_consumes_recv(self, sim, pair):
        pair.qp_b.post_recv(WorkRequest(Opcode.RECV, [], wr_id=55))
        pair.mem_a.write(pair.buf_a.address, b"imm!")
        pair.qp_a.post_send(WorkRequest(
            Opcode.WRITE_WITH_IMM, [Sge(pair.buf_a.address, 4)],
            remote_addr=pair.buf_b.address, rkey=pair.mr_b.rkey, imm=777))
        sim.run(until=ms(1))
        recv_wc = pair.cq_b.poll()[0]
        assert recv_wc.wr_id == 55
        assert recv_wc.imm == 777
        assert recv_wc.has_imm
        assert pair.mem_b.read(pair.buf_b.address, 4) == b"imm!"


class TestSendRecv:
    def test_send_scatters_to_recv_sges(self, sim, pair):
        pair.qp_b.post_recv(WorkRequest(Opcode.RECV, [
            Sge(pair.buf_b.address, 3),
            Sge(pair.buf_b.address + 64, 16),
        ], wr_id=9))
        pair.mem_a.write(pair.buf_a.address, b"0123456789")
        pair.qp_a.post_send(WorkRequest(
            Opcode.SEND, [Sge(pair.buf_a.address, 10)]))
        sim.run(until=ms(1))
        assert pair.mem_b.read(pair.buf_b.address, 3) == b"012"
        assert pair.mem_b.read(pair.buf_b.address + 64, 7) == b"3456789"
        wc = pair.cq_b.poll()[0]
        assert wc.byte_len == 10

    def test_sends_consume_recvs_in_order(self, sim, pair):
        for wr_id in (1, 2, 3):
            pair.qp_b.post_recv(WorkRequest(
                Opcode.RECV, [Sge(pair.buf_b.address + wr_id * 64, 64)],
                wr_id=wr_id))
        for i in range(3):
            pair.mem_a.write(pair.buf_a.address, bytes([i]))
            pair.qp_a.post_send(WorkRequest(
                Opcode.SEND, [Sge(pair.buf_a.address, 1)]))
            sim.run(until=sim.now + us(50))
        assert [w.wr_id for w in pair.cq_b.poll()] == [1, 2, 3]

    def test_overflow_payload_errors(self, sim, pair):
        pair.qp_b.post_recv(WorkRequest(
            Opcode.RECV, [Sge(pair.buf_b.address, 4)]))
        pair.qp_a.post_send(WorkRequest(
            Opcode.SEND, [Sge(pair.buf_a.address, 100)]))
        with pytest.raises(Exception):
            sim.run(until=ms(1))

    def test_rnr_retry_until_recv_posted(self, sim, pair):
        """A SEND into an empty RQ retries until software posts a RECV."""
        pair.mem_a.write(pair.buf_a.address, b"wait-for-me")
        pair.qp_a.post_send(WorkRequest(
            Opcode.SEND, [Sge(pair.buf_a.address, 11)]))
        sim.run(until=us(200))
        assert pair.nic_b.rnr_retries.value > 0
        pair.qp_b.post_recv(WorkRequest(
            Opcode.RECV, [Sge(pair.buf_b.address, 64)]))
        sim.run(until=ms(2))
        assert pair.mem_b.read(pair.buf_b.address, 11) == b"wait-for-me"


class TestFatalErrors:
    """A model error in a NIC pipeline raises out of ``sim.run()`` — the
    pipelines are callbacks, so nothing can swallow it."""

    def test_wait_on_unknown_cq_raises(self, sim, pair):
        unknown = max(pair.nic_a.cqs) + 1000
        pair.qp_a.post_send(WorkRequest(
            Opcode.WAIT, wait_cq=unknown, wait_count=1, signaled=False))
        with pytest.raises(RemoteAccessError,
                           match=f"WAIT on unknown CQ id {unknown}"):
            sim.run(until=ms(1))

    def test_exhausted_rnr_retries_raise(self, sim):
        pair = Pair(sim, NICParams(max_rnr_retries=3))
        pair.qp_a.post_send(WorkRequest(
            Opcode.SEND, [Sge(pair.buf_a.address, 8)]))  # b posts no RECV.
        with pytest.raises(RuntimeError, match="RNR retries exhausted"):
            sim.run(until=ms(1))
        assert pair.nic_b.rnr_retries.value == 4
        assert sim.now == pytest.approx(us(3 * 20), abs=us(5))


class TestReadAndFlush:
    def test_read_returns_remote_data(self, sim, pair):
        pair.mem_b.write(pair.buf_b.address, b"remote-bytes")
        pair.qp_a.post_send(WorkRequest(
            Opcode.READ, [Sge(pair.buf_a.address, 12)],
            remote_addr=pair.buf_b.address, rkey=pair.mr_b.rkey))
        sim.run(until=ms(1))
        assert pair.mem_a.read(pair.buf_a.address, 12) == b"remote-bytes"

    def test_zero_byte_read_flushes_cache(self, sim, pair):
        """The gFLUSH mechanism: serving any READ drains the write cache."""
        pair.mem_a.write(pair.buf_a.address, b"to-be-durable")
        pair.qp_a.post_send(WorkRequest(
            Opcode.WRITE, [Sge(pair.buf_a.address, 13)],
            remote_addr=pair.buf_b.address, rkey=pair.mr_b.rkey))
        pair.qp_a.post_send(WorkRequest(
            Opcode.READ, [Sge(0, 0)],
            remote_addr=pair.buf_b.address, rkey=pair.mr_b.rkey))
        sim.run(until=ms(1))
        assert pair.mem_b.read_durable(pair.buf_b.address, 13) \
            == b"to-be-durable"

    def test_unflushed_write_not_durable(self, sim):
        """Without the READ, an ACKed WRITE can be lost on power failure."""
        local_sim = sim
        pair = Pair(local_sim, params=NICParams(cache_writeback_ns=ms(100)))
        pair.mem_a.write(pair.buf_a.address, b"doomed")
        pair.qp_a.post_send(WorkRequest(
            Opcode.WRITE, [Sge(pair.buf_a.address, 6)],
            remote_addr=pair.buf_b.address, rkey=pair.mr_b.rkey))
        local_sim.run(until=us(100))
        assert pair.cq_a.poll()[0].status is WCStatus.SUCCESS  # ACKed...
        pair.nic_b.on_power_failure()
        pair.mem_b.on_power_failure()
        assert pair.mem_b.read(pair.buf_b.address, 6) == bytes(6)  # ...lost.

    def test_read_requires_permission(self, sim, pair):
        limited = pair.nic_b.register_mr(pair.buf_b.address, 64,
                                         Access.REMOTE_WRITE)
        pair.qp_a.post_send(WorkRequest(
            Opcode.READ, [Sge(pair.buf_a.address, 8)],
            remote_addr=pair.buf_b.address, rkey=limited.rkey))
        sim.run(until=ms(1))
        assert pair.cq_a.poll()[0].status is WCStatus.REMOTE_ACCESS_ERROR


class TestAtomics:
    def test_cas_success_swaps(self, sim, pair):
        pair.mem_b.write(pair.buf_b.address, (10).to_bytes(8, "little"))
        pair.qp_a.post_send(WorkRequest(
            Opcode.CAS, [Sge(pair.buf_a.address, 8)],
            remote_addr=pair.buf_b.address, rkey=pair.mr_b.rkey,
            compare=10, swap=20))
        sim.run(until=ms(1))
        assert int.from_bytes(pair.mem_b.read(pair.buf_b.address, 8),
                              "little") == 20
        # Original value returned to the local SGE.
        assert int.from_bytes(pair.mem_a.read(pair.buf_a.address, 8),
                              "little") == 10

    def test_cas_mismatch_leaves_value(self, sim, pair):
        pair.mem_b.write(pair.buf_b.address, (10).to_bytes(8, "little"))
        pair.qp_a.post_send(WorkRequest(
            Opcode.CAS, [Sge(pair.buf_a.address, 8)],
            remote_addr=pair.buf_b.address, rkey=pair.mr_b.rkey,
            compare=99, swap=20))
        sim.run(until=ms(1))
        assert int.from_bytes(pair.mem_b.read(pair.buf_b.address, 8),
                              "little") == 10
        assert int.from_bytes(pair.mem_a.read(pair.buf_a.address, 8),
                              "little") == 10

    def test_cas_requires_atomic_permission(self, sim, pair):
        limited = pair.nic_b.register_mr(pair.buf_b.address, 64,
                                         Access.REMOTE_WRITE)
        pair.qp_a.post_send(WorkRequest(
            Opcode.CAS, [Sge(pair.buf_a.address, 8)],
            remote_addr=pair.buf_b.address, rkey=limited.rkey,
            compare=0, swap=1))
        sim.run(until=ms(1))
        assert pair.cq_a.poll()[0].status is WCStatus.REMOTE_ACCESS_ERROR


class TestWait:
    def test_wait_blocks_until_cq_count(self, sim, pair):
        """A WAIT at the head of one QP's SQ holds back later WQEs until a
        different CQ reaches the target count (CORE-Direct)."""
        nic_b = pair.nic_b
        out_cq = nic_b.create_cq()
        qp_out = nic_b.create_qp(out_cq, out_cq, sq_slots=16, rq_slots=16)
        # Loopback: b sends to itself so we don't need a third NIC.
        qp_out.connect(qp_out)
        qp_out.post_recv(WorkRequest(Opcode.RECV, [Sge(pair.buf_b.address
                                                       + 512, 64)], wr_id=1))
        pair.mem_b.write(pair.buf_b.address + 256, b"forwarded")
        qp_out.post_send(WorkRequest(
            Opcode.WAIT, wait_cq=pair.cq_b.cq_id, wait_count=1,
            signaled=False))
        qp_out.post_send(WorkRequest(
            Opcode.SEND, [Sge(pair.buf_b.address + 256, 9)]))
        sim.run(until=ms(1))
        # Nothing happened yet: the WAIT gate is closed.
        assert pair.mem_b.read(pair.buf_b.address + 512, 9) == bytes(9)
        # Satisfy the gate: a SEND from a consumes a RECV on b's main QP.
        pair.qp_b.post_recv(WorkRequest(Opcode.RECV,
                                        [Sge(pair.buf_b.address, 64)]))
        pair.qp_a.post_send(WorkRequest(Opcode.SEND,
                                        [Sge(pair.buf_a.address, 4)]))
        sim.run(until=ms(2))
        assert pair.mem_b.read(pair.buf_b.address + 512, 9) == b"forwarded"

    def test_wait_consume_mode(self, sim, pair):
        """wait_count=0 consumes one completion per WAIT, so identical
        static WAITs serve successive operations."""
        nic_a = pair.nic_a
        cq = pair.cq_a
        loop_cq = nic_a.create_cq()
        qp_loop = nic_a.create_qp(loop_cq, loop_cq, sq_slots=16, rq_slots=16)
        qp_loop.connect(qp_loop)
        fired = []
        for round_index in range(2):
            qp_loop.post_send(WorkRequest(
                Opcode.WAIT, wait_cq=cq.cq_id, wait_count=0, signaled=False))
            qp_loop.post_send(WorkRequest(Opcode.NOP, wr_id=round_index,
                                          signaled=True))
        # Generate two completions on cq_a via two remote WRITEs.
        for _ in range(2):
            pair.qp_a.post_send(WorkRequest(
                Opcode.WRITE, [Sge(pair.buf_a.address, 4)],
                remote_addr=pair.buf_b.address, rkey=pair.mr_b.rkey))
            sim.run(until=sim.now + us(100))
        sim.run(until=ms(2))
        nops = [w for w in loop_cq.poll(16) if w.opcode is Opcode.NOP]
        assert [w.wr_id for w in nops] == [0, 1]
        assert cq.wait_consumed == 2


class TestDeferredOwnership:
    def test_unowned_wqe_stalls_queue(self, sim, pair):
        pair.qp_a.post_send(WorkRequest(
            Opcode.WRITE, [Sge(pair.buf_a.address, 4)],
            remote_addr=pair.buf_b.address, rkey=pair.mr_b.rkey),
            owned=False)
        sim.run(until=ms(1))
        assert pair.mem_b.read(pair.buf_b.address, 4) == bytes(4)

    def test_grant_releases_stall(self, sim, pair):
        pair.mem_a.write(pair.buf_a.address, b"late")
        index = pair.qp_a.post_send(WorkRequest(
            Opcode.WRITE, [Sge(pair.buf_a.address, 4)],
            remote_addr=pair.buf_b.address, rkey=pair.mr_b.rkey),
            owned=False)
        sim.run(until=us(100))
        pair.qp_a.grant_send(index)
        sim.run(until=ms(1))
        assert pair.mem_b.read(pair.buf_b.address, 4) == b"late"

    def test_remote_scatter_patches_and_activates(self, sim, pair):
        """The full remote work-request manipulation flow: a's SEND scatters
        a descriptor image onto b's pre-posted unowned WQE, which then
        executes with the patched parameters."""
        nic_b, mem_b = pair.nic_b, pair.mem_b
        out_cq = nic_b.create_cq()
        qp_out = nic_b.create_qp(out_cq, out_cq, sq_slots=16, rq_slots=16)
        qp_out.connect(qp_out)
        qp_out.post_recv(WorkRequest(
            Opcode.RECV, [Sge(pair.buf_b.address + 1024, 64)], wr_id=3))
        placeholder_index = qp_out.post_send(
            WorkRequest(Opcode.NOP, signaled=False), owned=False)
        descriptor_addr = qp_out.sq.slot_address(placeholder_index)
        # b's main QP RECV scatters straight onto the descriptor.
        from repro.rdma.wqe import WQE_SIZE
        pair.qp_b.post_recv(WorkRequest(
            Opcode.RECV, [Sge(descriptor_addr, WQE_SIZE)]))
        # a builds the descriptor image: a loopback SEND on b.
        mem_b.write(pair.buf_b.address + 900, b"patched-op")
        image = encode_wqe(WorkRequest(
            Opcode.SEND, [Sge(pair.buf_b.address + 900, 10)],
            signaled=False), owned=True)
        pair.mem_a.write(pair.buf_a.address, image)
        pair.qp_a.post_send(WorkRequest(
            Opcode.SEND, [Sge(pair.buf_a.address, WQE_SIZE)]))
        sim.run(until=ms(2))
        assert mem_b.read(pair.buf_b.address + 1024, 10) == b"patched-op"


class TestFence:
    def test_fence_waits_for_outstanding(self, sim, pair):
        """A fenced WQE does not start until earlier ops complete."""
        pair.mem_a.write(pair.buf_a.address, b"first")
        pair.qp_a.post_send(WorkRequest(
            Opcode.READ, [Sge(pair.buf_a.address + 512, 8)],
            remote_addr=pair.buf_b.address, rkey=pair.mr_b.rkey))
        pair.qp_a.post_send(WorkRequest(
            Opcode.WRITE, [Sge(pair.buf_a.address, 5)],
            remote_addr=pair.buf_b.address + 64, rkey=pair.mr_b.rkey,
            fence=True))
        sim.run(until=ms(2))
        completions = pair.cq_a.poll(8)
        assert [w.opcode for w in completions] == [Opcode.READ, Opcode.WRITE]
        assert pair.mem_b.read(pair.buf_b.address + 64, 5) == b"first"


class TestLoopback:
    def test_loopback_write_is_local_dma(self, sim, pair):
        nic_a, mem_a = pair.nic_a, pair.mem_a
        cq = nic_a.create_cq()
        qp = nic_a.create_qp(cq, cq, sq_slots=8, rq_slots=8)
        qp.connect(qp)
        mem_a.write(pair.buf_a.address, b"local-copy")
        qp.post_send(WorkRequest(
            Opcode.WRITE, [Sge(pair.buf_a.address, 10)],
            remote_addr=pair.buf_a.address + 4096, rkey=pair.mr_a.rkey))
        sim.run(until=ms(1))
        assert mem_a.read(pair.buf_a.address + 4096, 10) == b"local-copy"
        assert pair.nic_a.port.messages_sent == 0  # Never touched the wire.


class TestPowerFailure:
    def test_nic_failure_flushes_qps(self, sim, pair):
        pair.nic_b.on_power_failure()
        assert pair.qp_b.state.value == "error"
        # In-flight ops from a never complete; a's pending map drains on
        # the dropped messages (no crash).
        pair.qp_a.post_send(WorkRequest(
            Opcode.WRITE, [Sge(pair.buf_a.address, 4)],
            remote_addr=pair.buf_b.address, rkey=pair.mr_b.rkey))
        sim.run(until=ms(1))
        assert pair.cq_a.poll() == []  # No completion: peer is gone.
