"""Tests for gCAS-based group locking (mutual exclusion, undo, read locks)."""

import pytest

from repro.core.client import StoreConfig, initialize
from repro.core.group import GroupConfig, HyperLoopGroup
from repro.experiments.common import build_testbed, make_hyperloop
from repro.sim.units import ms
from repro.storage.locktable import READER_MASK, WRITER_FLAG


@pytest.fixture
def store(cluster):
    client = cluster.add_host("client")
    replicas = cluster.add_hosts(3, prefix="replica")
    group = HyperLoopGroup(client, replicas,
                           GroupConfig(slots=32, region_size=2 << 20))
    return initialize(group, StoreConfig(wal_size=256 * 1024, num_locks=8))


def run_to_completion(cluster, *generators, deadline_ms=5000):
    processes = [cluster.sim.process(gen) for gen in generators]
    done = cluster.sim.all_of(processes)
    deadline = cluster.sim.now + ms(deadline_ms)
    while not done.triggered and cluster.sim.peek() is not None \
            and cluster.sim.peek() <= deadline:
        cluster.sim.step()
    assert done.triggered, "lock workload did not finish"
    for process in processes:
        if not process.ok:
            raise process.value
    return [process.value for process in processes]


class TestWriteLocks:
    def test_lock_sets_word_everywhere(self, cluster, store):
        def proc():
            yield from store.wr_lock(3)

        run_to_completion(cluster, proc())
        offset = store.layout.lock_offset(3)
        for hop in range(3):
            word = int.from_bytes(store.group.read_replica(hop, offset, 8),
                                  "little")
            assert word == WRITER_FLAG

    def test_unlock_clears_word(self, cluster, store):
        def proc():
            yield from store.wr_lock(3)
            yield from store.wr_unlock(3)

        run_to_completion(cluster, proc())
        offset = store.layout.lock_offset(3)
        for hop in range(3):
            assert store.group.read_replica(hop, offset, 8) == bytes(8)

    def test_unlock_without_lock_raises(self, cluster, store):
        def proc():
            yield from store.wr_unlock(0)

        with pytest.raises(RuntimeError):
            run_to_completion(cluster, proc())

    def test_mutual_exclusion(self, cluster, store):
        """Two contending lockers never hold the same lock concurrently."""
        holding = {"count": 0, "max": 0, "acquisitions": 0}

        def contender(tag):
            for _ in range(5):
                yield from store.wr_lock(1)
                holding["count"] += 1
                holding["max"] = max(holding["max"], holding["count"])
                holding["acquisitions"] += 1
                yield store.sim.timeout(5000)
                holding["count"] -= 1
                yield from store.wr_unlock(1)

        run_to_completion(cluster, contender("a"), contender("b"))
        assert holding["acquisitions"] == 10
        assert holding["max"] == 1

    def test_contention_uses_undo(self, cluster, store):
        """Contended wr_lock retries (and may undo partial acquisitions)."""
        def contender():
            for _ in range(10):
                yield from store.wr_lock(2)
                yield from store.wr_unlock(2)

        run_to_completion(cluster, contender(), contender(), contender())
        offset = store.layout.lock_offset(2)
        for hop in range(3):
            assert store.group.read_replica(hop, offset, 8) == bytes(8)


class TestReadLocks:
    def test_read_lock_single_replica_only(self, cluster, store):
        def proc():
            yield from store.rd_lock(4, hop=1)

        run_to_completion(cluster, proc())
        offset = store.layout.lock_offset(4)
        words = [int.from_bytes(store.group.read_replica(h, offset, 8),
                                "little") for h in range(3)]
        assert words == [0, 1, 0]

    def test_read_locks_accumulate(self, cluster, store):
        def reader():
            yield from store.rd_lock(4, hop=0)

        run_to_completion(cluster, reader(), reader(), reader())
        offset = store.layout.lock_offset(4)
        word = int.from_bytes(store.group.read_replica(0, offset, 8),
                              "little")
        assert word & READER_MASK == 3

    def test_read_unlock(self, cluster, store):
        def proc():
            yield from store.rd_lock(5, hop=2)
            yield from store.rd_unlock(5, hop=2)

        run_to_completion(cluster, proc())
        offset = store.layout.lock_offset(5)
        assert store.group.read_replica(2, offset, 8) == bytes(8)

    def test_writer_blocks_new_readers(self, cluster, store):
        order = []

        def writer():
            yield from store.wr_lock(6)
            order.append("locked")
            yield store.sim.timeout(ms(1))
            order.append("unlocking")
            yield from store.wr_unlock(6)

        def reader():
            yield store.sim.timeout(100_000)  # Arrive after the writer.
            yield from store.rd_lock(6, hop=0)
            order.append("read-locked")
            yield from store.rd_unlock(6, hop=0)

        run_to_completion(cluster, writer(), reader())
        assert order.index("read-locked") > order.index("unlocking")

    def test_reader_blocks_writer(self, cluster, store):
        order = []

        def reader():
            yield from store.rd_lock(7, hop=1)
            order.append("read-locked")
            yield store.sim.timeout(ms(1))
            order.append("read-unlocking")
            yield from store.rd_unlock(7, hop=1)

        def writer():
            yield store.sim.timeout(100_000)
            yield from store.wr_lock(7)
            order.append("write-locked")
            yield from store.wr_unlock(7)

        run_to_completion(cluster, reader(), writer())
        assert order.index("write-locked") > order.index("read-unlocking")


def test_backoff_stream_depends_on_the_build_alone():
    """Two identical builds in one process draw identical backoffs: the
    stream is named after the group, whose default name is numbered per
    cluster, not by how many groups the process built before."""

    def draws():
        group = make_hyperloop(build_testbed(3, seed=5))
        store = initialize(group, StoreConfig())
        return group.name, [store.locks._backoff(attempt)
                            for attempt in (3, 4, 5)]

    assert draws() == draws()
