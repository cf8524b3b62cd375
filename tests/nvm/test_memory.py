"""Tests for memory devices: allocation, access, durability semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.nvm.memory import DRAM, NVM, MemoryDevice, OutOfMemoryError
from repro.nvm.power import PowerDomain


class TestAllocation:
    def test_bump_allocation(self):
        memory = NVM(1024)
        a = memory.allocate(100, "a")
        b = memory.allocate(100, "b")
        assert a.address + a.size <= b.address
        assert memory.bytes_free <= 1024 - 200

    def test_alignment(self):
        memory = NVM(4096)
        memory.allocate(3, "odd")
        aligned = memory.allocate(8, "aligned", align=64)
        assert aligned.address % 64 == 0

    def test_bad_alignment_rejected(self):
        memory = NVM(1024)
        with pytest.raises(ValueError):
            memory.allocate(8, align=3)

    def test_out_of_memory(self):
        memory = NVM(128)
        with pytest.raises(OutOfMemoryError):
            memory.allocate(256)

    def test_duplicate_name_rejected(self):
        memory = NVM(1024)
        memory.allocate(8, "x")
        with pytest.raises(ValueError):
            memory.allocate(8, "x")

    def test_lookup_by_name(self):
        memory = NVM(1024)
        alloc = memory.allocate(64, "wal")
        assert memory.allocation("wal") is alloc

    def test_contains(self):
        memory = NVM(1024)
        alloc = memory.allocate(64, "region")
        assert alloc.contains(alloc.address, 64)
        assert not alloc.contains(alloc.address + 60, 8)

    def test_zero_size_rejected(self):
        memory = NVM(1024)
        with pytest.raises(ValueError):
            memory.allocate(0)


class TestAccess:
    def test_write_read_roundtrip(self):
        memory = NVM(1024)
        memory.write(10, b"hello")
        assert memory.read(10, 5) == b"hello"

    def test_bounds_checked(self):
        memory = NVM(64)
        with pytest.raises(IndexError):
            memory.read(60, 10)
        with pytest.raises(IndexError):
            memory.write(-1, b"x")

    def test_fill(self):
        memory = NVM(64)
        memory.fill(0, 8, 0xAB)
        assert memory.read(0, 8) == b"\xAB" * 8

    def test_copy_within(self):
        memory = NVM(1024)
        memory.write(0, b"source-data")
        memory.copy_within(0, 500, 11)
        assert memory.read(500, 11) == b"source-data"

    @given(st.integers(min_value=0, max_value=1000),
           st.binary(min_size=1, max_size=24))
    def test_roundtrip_property(self, address, data):
        memory = NVM(1024)
        memory.write(address, data)
        assert memory.read(address, len(data)) == data


class TestDurability:
    def test_writes_visible_but_not_durable(self):
        memory = NVM(256)
        memory.write(0, b"volatile")
        assert memory.read(0, 8) == b"volatile"
        assert memory.read_durable(0, 8) == bytes(8)

    def test_persist_makes_durable(self):
        memory = NVM(256)
        memory.write(0, b"durable!")
        memory.persist(0, 8)
        assert memory.read_durable(0, 8) == b"durable!"

    def test_power_failure_reverts_to_durable_image(self):
        memory = NVM(256)
        memory.write(0, b"saved")
        memory.persist(0, 5)
        memory.write(100, b"lost")
        memory.on_power_failure()
        assert memory.read(0, 5) == b"saved"
        assert memory.read(100, 4) == bytes(4)

    def test_partial_persist(self):
        memory = NVM(256)
        memory.write(0, b"AAAABBBB")
        memory.persist(0, 4)
        memory.on_power_failure()
        assert memory.read(0, 8) == b"AAAA" + bytes(4)

    def test_dram_loses_everything(self):
        memory = DRAM(256)
        memory.write(0, b"gone")
        memory.persist(0, 4)  # No-op for DRAM.
        memory.on_power_failure()
        assert memory.read(0, 4) == bytes(4)

    def test_durable_flags(self):
        assert NVM(16).durable
        assert not DRAM(16).durable

    @given(st.binary(min_size=1, max_size=32),
           st.binary(min_size=1, max_size=32))
    def test_only_persisted_prefix_survives(self, persisted, overwrite):
        memory = NVM(256)
        memory.write(0, persisted)
        memory.persist(0, len(persisted))
        memory.write(0, overwrite)
        memory.on_power_failure()
        survived = memory.read(0, len(persisted))
        expected = bytearray(persisted)
        assert survived == bytes(expected)


class TestFree:
    def test_unaligned_neighbours_on_both_edge_pages_survive(self):
        memory = NVM(1 << 20)
        left = memory.allocate(4096 + 104, "left")      # Ends mid-page 1.
        middle = memory.allocate(3 * 4096, "middle")    # Mid-page 1 .. 4.
        right = memory.allocate(512, "right")           # Shares page 4.
        assert left.end % 4096 and middle.end % 4096
        for allocation in (left, middle, right):
            memory.write(allocation.address, b"\xAB" * allocation.size)
            memory.persist(allocation.address, allocation.size)
        memory.free(middle)
        for image in (memory.read, memory.read_durable):
            assert image(left.address, left.size) == b"\xAB" * left.size
            assert image(right.address, right.size) == b"\xAB" * right.size
            assert image(middle.address, middle.size) == bytes(middle.size)

    def test_next_owner_reads_zeros_also_after_power_failure(self):
        memory = NVM(1 << 20)
        domain = PowerDomain()
        domain.register(memory)
        memory.allocate(100, "pad")                     # Unalign the victim.
        first = memory.allocate(3 * 4096, "first")
        memory.write(first.address, b"secret" * 2048)
        memory.persist(first.address, first.size)
        memory.free(first)
        domain.fail()
        again = memory.allocate(3 * 4096, "again")
        assert again.address == first.address
        assert memory.read(again.address, again.size) == bytes(again.size)
        assert memory.read_durable(again.address, again.size) \
            == bytes(again.size)

    def test_free_materialises_nothing(self):
        memory = NVM(1 << 30)
        big = memory.allocate(256 << 20, "big")
        memory.write(big.address + 12345, b"x")
        memory.free(big)
        assert memory._data.resident_bytes == 0
        assert memory._durable_data.resident_bytes == 0


def test_invalid_size():
    with pytest.raises(ValueError):
        MemoryDevice(0)
