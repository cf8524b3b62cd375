"""The client machinery every backend shares (``GroupBase``).

Parametrized over every registered backend plus one client of a shared
(SRQ) chain through the ``client_kind`` / ``client_group`` fixtures, so
the window and ACK bookkeeping is held to one contract wherever the
submit loop is used.
"""

from repro.sim.units import ms, us


def test_late_acks_after_abort_leave_window_empty(cluster, client_group):
    """ACKs that arrive for ops ``abort_in_flight`` already failed must
    not be counted: the window stays at zero and ``drain()`` fires."""
    group = client_group
    sim = cluster.sim
    events = [group.gwrite(index * 64, 64) for index in range(4)]
    # Long enough for the first SENDs to be posted, too short for an ACK.
    cluster.run(until=sim.now + us(3))
    assert not any(event.triggered for event in events)
    assert group.abort_in_flight(RuntimeError("chain failure")) == 4
    assert all(not event.ok for event in events)
    cluster.run(until=sim.now + ms(5))
    assert group.in_flight == 0
    assert group.drain().triggered
    # The window still works: a fresh write completes and drains.
    group.write_local(0, b"after")
    done = group.gwrite(0, 5)
    cluster.run(until=sim.now + ms(5))
    assert done.ok
    assert group.in_flight == 0
