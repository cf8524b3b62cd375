"""Tests for the tracing facility."""

from repro.sim.trace import TraceEvent, Tracer, span_durations
from repro.sim.units import ms, us


class TestTracer:
    def test_emit_and_query(self):
        tracer = Tracer()
        tracer.emit(10, "a.nic", "msg.rx", "send")
        tracer.emit(20, "a.nic", "wqe.initiate", "WRITE")
        tracer.emit(30, "b.nic", "msg.rx", "write")
        assert len(tracer.events) == 3
        assert len(tracer.by_kind("msg.rx")) == 2
        assert len(tracer.by_component("a.")) == 2
        assert tracer.kinds() == {"msg.rx": 2, "wqe.initiate": 1}

    def test_capacity_drops(self):
        tracer = Tracer(capacity=2)
        for i in range(5):
            tracer.emit(i, "x", "k")
        assert len(tracer.events) == 2
        assert tracer.dropped == 3

    def test_slot_query_sorted(self):
        tracer = Tracer()
        tracer.emit(30, "c", "late", op_slot=7)
        tracer.emit(10, "a", "early", op_slot=7)
        tracer.emit(20, "b", "mid", op_slot=8)
        events = tracer.for_slot(7)
        assert [event.kind for event in events] == ["early", "late"]

    def test_clear(self):
        tracer = Tracer()
        tracer.emit(1, "x", "k")
        tracer.clear()
        assert tracer.events == []

    def test_span_durations(self):
        events = [
            TraceEvent(100, "a", "start"),
            TraceEvent(150, "b", "middle"),
            TraceEvent(175, "c", "end"),
        ]
        spans = span_durations(events)
        assert spans == [("a:start", 50), ("b:middle", 25)]


class TestIntegration:
    def test_group_ops_traced(self, cluster, client_kind, client_group):
        """Every client machinery emits the same op lifecycle."""
        tracer = cluster.enable_tracing()
        group = client_group

        def proc():
            group.write_local(0, b"traced")
            yield group.gwrite(0, 6)

        process = cluster.sim.process(proc())
        while not process.triggered and cluster.sim.peek() is not None:
            cluster.sim.step()
        assert process.ok
        kinds = tracer.kinds()
        assert kinds["op.submit"] == kinds["op.posted"] \
            == kinds["op.acked"] == 1
        # Every replica's NIC executed WQEs; the offloaded designs run the
        # local op and the forwards on each of the 3 NICs.
        replica_wqes = [event for event in tracer.by_kind("wqe.initiate")
                        if event.component.startswith("cg-replica")]
        assert {event.component for event in replica_wqes} \
            == {f"cg-replica{hop}.nic" for hop in range(3)}
        if client_kind != "naive":
            assert len(replica_wqes) >= 9
        # Abort case: ten more ops (in flight, held and queued) fail, and
        # each submit() ends in exactly one terminal event.
        for index in range(10):
            group.gwrite(index * 64, 64)
        cluster.run(until=cluster.sim.now + us(3))
        group.abort_in_flight(RuntimeError("chain failure"))
        cluster.run(until=cluster.sim.now + ms(5))
        kinds = tracer.kinds()
        assert kinds["op.failed"] > 0
        assert kinds["op.acked"] + kinds["op.failed"] == 11

    def test_tracing_disabled_by_default(self, cluster):
        client = cluster.add_host("ntr-client")
        assert cluster.tracer is None
        assert client.nic.tracer is None

    def test_enable_covers_existing_hosts(self, cluster):
        host = cluster.add_host("pre-existing")
        tracer = cluster.enable_tracing()
        assert host.nic.tracer is tracer
