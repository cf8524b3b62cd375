"""Tests for verbs objects: MRs, CQs, channels, QP state machine."""

import pytest

from repro.nvm.memory import NVM
from repro.rdma.fabric import Fabric
from repro.rdma.nic import RNIC
from repro.rdma.verbs import (
    Access,
    CompletionChannel,
    CompletionQueue,
    MemoryRegion,
    QPState,
    RemoteAccessError,
    WCStatus,
    WorkCompletion,
)
from repro.rdma.wqe import Opcode, WorkRequest


class TestMemoryRegion:
    def make(self, access=Access.REMOTE_WRITE):
        return MemoryRegion(addr=1000, length=100, lkey=1, rkey=2,
                            access=access, name="mr")

    def test_in_bounds_passes(self):
        self.make().check(1000, 100, Access.REMOTE_WRITE)
        self.make().check(1050, 1, Access.REMOTE_WRITE)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(RemoteAccessError):
            self.make().check(999, 1, Access.REMOTE_WRITE)
        with pytest.raises(RemoteAccessError):
            self.make().check(1050, 51, Access.REMOTE_WRITE)

    def test_missing_permission_rejected(self):
        mr = self.make(access=Access.REMOTE_READ)
        with pytest.raises(RemoteAccessError):
            mr.check(1000, 8, Access.REMOTE_WRITE)

    def test_combined_permissions(self):
        mr = self.make(access=Access.REMOTE_READ | Access.REMOTE_ATOMIC)
        mr.check(1000, 8, Access.REMOTE_ATOMIC)
        mr.check(1000, 8, Access.REMOTE_READ)


class TestCompletionQueue:
    def wc(self, wr_id=0):
        return WorkCompletion(wr_id=wr_id, opcode=Opcode.SEND,
                              status=WCStatus.SUCCESS)

    def test_push_poll(self, sim):
        cq = CompletionQueue(sim)
        cq.push(self.wc(1))
        cq.push(self.wc(2))
        assert [w.wr_id for w in cq.poll()] == [1, 2]
        assert cq.poll() == []
        assert cq.count == 2  # Count is monotonic, not drained by poll.

    def test_poll_respects_max(self, sim):
        cq = CompletionQueue(sim)
        for i in range(5):
            cq.push(self.wc(i))
        assert len(cq.poll(max_entries=3)) == 3
        assert len(cq.poll(max_entries=3)) == 2

    def test_subscribe_count_future(self, sim):
        cq = CompletionQueue(sim)
        fired = []
        cq.subscribe_count(2, lambda: fired.append(cq.count))
        cq.push(self.wc())
        assert fired == []
        cq.push(self.wc())
        assert fired == [2]

    def test_subscribe_count_already_met(self, sim):
        cq = CompletionQueue(sim)
        cq.push(self.wc())
        fired = []
        cq.subscribe_count(1, lambda: fired.append(True))
        assert fired == [True]

    def test_notify_requires_channel(self, sim):
        cq = CompletionQueue(sim)
        with pytest.raises(RuntimeError):
            cq.req_notify()

    def test_event_mode_notification(self, sim):
        channel = CompletionChannel(sim)
        cq = CompletionQueue(sim, channel=channel)
        got = []

        def waiter(sim):
            cq.req_notify()
            yield channel.wait()
            got.append(cq.poll())

        sim.process(waiter(sim))
        sim.run()
        assert got == []
        cq.push(self.wc(7))
        sim.run()
        assert [w.wr_id for w in got[0]] == [7]

    def test_arm_after_completion_fires_immediately(self, sim):
        """The classic verbs race: completions arriving before req_notify
        must still notify, or the consumer sleeps forever."""
        channel = CompletionChannel(sim)
        cq = CompletionQueue(sim, channel=channel)
        cq.push(self.wc())
        woke = []

        def waiter(sim):
            cq.req_notify()
            yield channel.wait()
            woke.append(sim.now)

        sim.process(waiter(sim))
        sim.run()
        assert woke == [0]

    def test_wait_consumed_counter(self, sim):
        cq = CompletionQueue(sim)
        assert cq.wait_consumed == 0


class TestCompletionChannel:
    def test_pending_notification_consumed(self, sim):
        channel = CompletionChannel(sim)
        channel.notify()
        event = channel.wait()
        assert event.triggered

    def test_single_waiter_enforced(self, sim):
        channel = CompletionChannel(sim)
        channel.wait()
        with pytest.raises(RuntimeError):
            channel.wait()


class TestQueuePair:
    @pytest.fixture
    def nics(self, sim):
        fabric = Fabric(sim)
        mem_a, mem_b = NVM(1 << 20), NVM(1 << 20)
        return RNIC(sim, mem_a, fabric, "a"), RNIC(sim, mem_b, fabric, "b")

    def test_post_before_connect_rejected(self, nics):
        nic_a, _nic_b = nics
        cq = nic_a.create_cq()
        qp = nic_a.create_qp(cq, cq, sq_slots=8, rq_slots=8)
        with pytest.raises(RuntimeError):
            qp.post_send(WorkRequest(Opcode.SEND))

    def test_connect_transitions_both(self, nics):
        nic_a, nic_b = nics
        cq_a, cq_b = nic_a.create_cq(), nic_b.create_cq()
        qp_a = nic_a.create_qp(cq_a, cq_a, sq_slots=8, rq_slots=8)
        qp_b = nic_b.create_qp(cq_b, cq_b, sq_slots=8, rq_slots=8)
        qp_a.connect(qp_b)
        assert qp_a.state is QPState.RTS
        assert qp_b.state is QPState.RTS
        assert not qp_a.is_loopback

    def test_loopback_connect(self, nics):
        nic_a, _ = nics
        cq = nic_a.create_cq()
        qp = nic_a.create_qp(cq, cq, sq_slots=8, rq_slots=8)
        qp.connect(qp)
        assert qp.is_loopback

    def test_recv_goes_to_post_recv(self, nics):
        nic_a, nic_b = nics
        cq_a, cq_b = nic_a.create_cq(), nic_b.create_cq()
        qp_a = nic_a.create_qp(cq_a, cq_a, sq_slots=8, rq_slots=8)
        qp_b = nic_b.create_qp(cq_b, cq_b, sq_slots=8, rq_slots=8)
        qp_a.connect(qp_b)
        with pytest.raises(ValueError):
            qp_a.post_send(WorkRequest(Opcode.RECV))
        with pytest.raises(ValueError):
            qp_a.post_recv(WorkRequest(Opcode.SEND))

    def test_to_error_flushes(self, nics, sim):
        nic_a, nic_b = nics
        cq_a, cq_b = nic_a.create_cq(), nic_b.create_cq()
        qp_a = nic_a.create_qp(cq_a, cq_a, sq_slots=8, rq_slots=8)
        qp_b = nic_b.create_qp(cq_b, cq_b, sq_slots=8, rq_slots=8)
        qp_a.connect(qp_b)
        qp_a.post_send(WorkRequest(Opcode.SEND, signaled=True), owned=False)
        qp_a.to_error()
        completions = cq_a.poll()
        assert len(completions) == 1
        assert completions[0].status is WCStatus.FLUSHED

    def test_to_error_flushes_a_wrapped_cyclic_ring_in_ring_order(
            self, nics, sim):
        """Three owned NOPs execute and re-arm at the tail, so the eight
        outstanding descriptors start mid-ring and wrap its end."""
        nic_a, _nic_b = nics
        cq = nic_a.create_cq()
        qp = nic_a.create_qp(cq, cq, sq_slots=8, rq_slots=8)
        qp.connect(qp)
        qp.sq.cyclic = True
        for wr_id in range(8):
            qp.post_send(WorkRequest(
                Opcode.NOP if wr_id < 3 else Opcode.WRITE, wr_id=wr_id,
                signaled=False), owned=wr_id < 3)
        sim.run(until=1_000_000)
        assert (qp.sq.head, qp.sq.tail) == (3, 11)
        qp.to_error()
        flushed = cq.poll(16)
        assert all(wc.status is WCStatus.FLUSHED and wc.qp_num == qp.qp_num
                   for wc in flushed)
        assert [wc.wr_id for wc in flushed] == [3, 4, 5, 6, 7, 0, 1, 2]
        assert [wc.opcode for wc in flushed] == \
            [Opcode.WRITE] * 5 + [Opcode.NOP] * 3
        assert qp.sq.outstanding == 0 and not qp.sq.cyclic

    def test_list_forms_run_the_single_post_checks(self, nics):
        nic_a, nic_b = nics
        cq_a, cq_b = nic_a.create_cq(), nic_b.create_cq()
        qp_a = nic_a.create_qp(cq_a, cq_a, sq_slots=8, rq_slots=8)
        qp_b = nic_b.create_qp(cq_b, cq_b, sq_slots=8, rq_slots=8)
        nop, recv = WorkRequest(Opcode.NOP), WorkRequest(Opcode.RECV)
        with pytest.raises(RuntimeError):  # Not connected yet.
            qp_a.post_send_list([nop], [True])
        qp_a.connect(qp_b)
        with pytest.raises(ValueError):
            qp_a.post_send_list([nop, recv], [True, True])
        with pytest.raises(ValueError):
            qp_a.post_recv_list([recv, nop])
        assert qp_a.sq.tail == qp_a.rq.tail == 0
        assert qp_a.post_send_list([nop], [False], times=3) == 0
        assert qp_a.post_recv_list([recv], times=2) == 0
        assert (qp_a.sq.tail, qp_a.rq.tail) == (3, 2)
