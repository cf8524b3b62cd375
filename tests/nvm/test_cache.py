"""Tests for the NIC volatile write cache (the gFLUSH hazard)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.nvm.cache import NICWriteCache
from repro.nvm.memory import NVM
from repro.nvm.power import PowerDomain
from repro.sim.engine import Simulator
from repro.sim.units import us


@pytest.fixture
def setup():
    sim = Simulator()
    memory = NVM(64 * 1024)
    cache = NICWriteCache(sim, memory, writeback_delay_ns=us(100),
                          capacity_bytes=1024)
    return sim, memory, cache


class TestDmaPath:
    def test_write_visible_immediately(self, setup):
        _sim, memory, cache = setup
        cache.dma_write(0, b"payload")
        assert memory.read(0, 7) == b"payload"
        assert cache.dma_read(0, 7) == b"payload"

    def test_write_not_durable_until_flush(self, setup):
        _sim, memory, cache = setup
        cache.dma_write(0, b"payload")
        assert memory.read_durable(0, 7) == bytes(7)
        cache.flush()
        assert memory.read_durable(0, 7) == b"payload"

    def test_empty_write_ignored(self, setup):
        _sim, _memory, cache = setup
        cache.dma_write(0, b"")
        assert cache.dirty_bytes == 0

    def test_copy_within_via_cache(self, setup):
        _sim, memory, cache = setup
        memory.write(0, b"abcdef")
        cache.dma_copy_within(0, 100, 6)
        assert memory.read(100, 6) == b"abcdef"
        assert cache.dirty_bytes == 6

    def test_out_of_bounds_rejected(self, setup):
        _sim, _memory, cache = setup
        with pytest.raises(IndexError):
            cache.dma_write(64 * 1024 - 2, b"toolong")


class TestFlushAndWriteback:
    def test_flush_returns_bytes_drained(self, setup):
        _sim, _memory, cache = setup
        cache.dma_write(0, b"12345678")
        assert cache.flush() == 8
        assert cache.dirty_bytes == 0
        assert cache.flushes == 1

    def test_background_writeback_after_delay(self, setup):
        sim, memory, cache = setup
        cache.dma_write(0, b"lazy")
        sim.run(until=us(50))
        assert memory.read_durable(0, 4) == bytes(4)
        sim.run(until=us(150))
        assert memory.read_durable(0, 4) == b"lazy"
        assert cache.writebacks == 1

    def test_capacity_pressure_forces_flush(self, setup):
        _sim, memory, cache = setup
        cache.dma_write(0, b"x" * 1024)
        cache.dma_write(2048, b"y")  # Pushes past capacity.
        assert memory.read_durable(0, 1024) == b"x" * 1024
        assert cache.flushes == 1

    def test_flush_preserves_write_order(self, setup):
        _sim, memory, cache = setup
        cache.dma_write(0, b"first")
        cache.dma_write(0, b"secon")
        cache.flush()
        assert memory.read_durable(0, 5) == b"secon"


class TestPowerFailure:
    def test_unflushed_data_lost(self, setup):
        _sim, memory, cache = setup
        cache.dma_write(0, b"doomed")
        cache.on_power_failure()
        memory.on_power_failure()
        assert memory.read(0, 6) == bytes(6)
        assert cache.bytes_lost_on_power_failure == 6

    def test_flushed_data_survives(self, setup):
        _sim, memory, cache = setup
        cache.dma_write(0, b"safe!!")
        cache.flush()
        cache.on_power_failure()
        memory.on_power_failure()
        assert memory.read(0, 6) == b"safe!!"

    def test_mixed_flushed_and_pending(self, setup):
        _sim, memory, cache = setup
        cache.dma_write(0, b"early")
        cache.flush()
        cache.dma_write(100, b"late")
        cache.on_power_failure()
        memory.on_power_failure()
        assert memory.read(0, 5) == b"early"
        assert memory.read(100, 4) == bytes(4)


PAGE = 4096
DEVICE = 3 * PAGE
CAPACITY = 600
#: Allocations the ``free`` operation returns and takes back; both come
#: back at the same address (first fit, and the break folds back).
AREAS = (("low", 5000), ("high", 4000))

_address = st.one_of(
    st.integers(min_value=0, max_value=DEVICE - 1),
    st.sampled_from([PAGE - 7, PAGE, 2 * PAGE - 150, 2 * PAGE + 3]))
_data = st.binary(min_size=1, max_size=300)
_operation = st.one_of(
    st.tuples(st.just("dma"), _address, _data),
    st.tuples(st.just("dma_adjacent"), _data),     # At the last one's end.
    st.tuples(st.just("dma_overlap"), _data),      # At the last one's start.
    st.tuples(st.just("dma_gap"), st.integers(min_value=1, max_value=16),
              _data),                               # Just past the last one.
    st.tuples(st.just("dma_capacity"), _address),  # Over capacity alone.
    st.tuples(st.just("cpu"), _address, _data),
    st.tuples(st.just("cpu_adjacent"), _data),     # At the last DMA's end.
    st.tuples(st.just("flush")),
    st.tuples(st.just("run"), st.sampled_from([us(1), us(60), us(100)])),
    st.tuples(st.just("free"), st.sampled_from([name for name, _ in AREAS])),
    st.tuples(st.just("fail")))


class TestDrainAgainstModel:
    """The cache + NVM pair against two flat images and a write log that
    is persisted entry by entry, in write order, on every drain."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_operation, max_size=40))
    def test_images_match_entry_by_entry_model(self, operations):
        sim = Simulator()
        memory = NVM(DEVICE)
        cache = NICWriteCache(sim, memory, writeback_delay_ns=us(100),
                              capacity_bytes=CAPACITY)
        domain = PowerDomain()
        domain.register(cache)
        domain.register(memory)
        areas = {name: memory.allocate(size, name) for name, size in AREAS}
        visible, durable = bytearray(DEVICE), bytearray(DEVICE)
        log = []                        # (address, size), in write order.
        due = None                      # When the lazy writeback fires.
        last = (0, 0)                   # The previous DMA write.

        def drain():
            for address, size in log:
                durable[address:address + size] = \
                    visible[address:address + size]
            log.clear()

        def dma(address, data):
            nonlocal due, last
            address = min(address, DEVICE - len(data))
            cache.dma_write(address, data)
            visible[address:address + len(data)] = data
            log.append((address, len(data)))
            last = (address, address + len(data))
            if sum(size for _, size in log) > CAPACITY:
                drain()
            elif due is None:
                due = sim.now + us(100)

        for operation in operations:
            kind = operation[0]
            if kind == "dma":
                dma(operation[1], operation[2])
            elif kind == "dma_adjacent":
                dma(last[1], operation[1])
            elif kind == "dma_overlap":
                dma(last[0], operation[1])
            elif kind == "dma_gap":
                dma(last[1] + operation[1], operation[2])
            elif kind == "dma_capacity":
                dma(operation[1], bytes(range(256)) * 3)
            elif kind in ("cpu", "cpu_adjacent"):
                data = operation[-1]
                address = min(operation[1] if kind == "cpu" else last[1],
                              DEVICE - len(data))
                memory.write(address, data)
                visible[address:address + len(data)] = data
            elif kind == "flush":
                assert cache.flush() == sum(size for _, size in log)
                drain()
            elif kind == "run":
                until = sim.now + operation[1]
                sim.run(until=until)
                if due is not None and due <= until:
                    drain()
                    due = None
            elif kind == "free":
                area = areas[operation[1]]
                memory.free(area)
                areas[area.name] = memory.allocate(area.size, area.name)
                assert areas[area.name].address == area.address
                for image in (visible, durable):
                    image[area.address:area.end] = bytes(area.size)
            else:
                domain.fail()
                log.clear()
                visible[:] = durable
            assert cache.dirty_bytes == sum(size for _, size in log)
            assert memory.read(0, DEVICE) == bytes(visible)
            assert memory.read_durable(0, DEVICE) == bytes(durable)
