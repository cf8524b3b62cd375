"""Property tests for the sparse page store against a flat-bytes model."""

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.nvm.memory import NVM, SparsePages


class TestBasics:
    def test_absent_reads_zero(self):
        pages = SparsePages()
        assert pages.read(0, 16) == bytes(16)
        assert pages.read(123_456_789, 8) == bytes(8)

    def test_write_read(self):
        pages = SparsePages()
        pages.write(100, b"hello")
        assert pages.read(100, 5) == b"hello"
        assert pages.read(99, 7) == b"\0hello\0"

    def test_cross_page_write(self):
        pages = SparsePages(page_size=16)
        pages.write(10, b"0123456789ABCDEF")  # Spans three 16B pages.
        assert pages.read(10, 16) == b"0123456789ABCDEF"
        assert pages.read(0, 10) == bytes(10)

    def test_zero_size_read(self):
        pages = SparsePages()
        assert pages.read(0, 0) == b""

    def test_empty_write(self):
        pages = SparsePages()
        pages.write(0, b"")
        assert pages.resident_bytes == 0

    def test_resident_accounting(self):
        pages = SparsePages(page_size=4096)
        pages.write(0, b"x")
        pages.write(4096 * 10, b"y")
        assert pages.resident_bytes == 2 * 4096

    def test_zero_drops_covered_pages_and_blanks_the_edges(self):
        pages = SparsePages(page_size=16)
        pages.write(0, b"x" * 64)                    # Pages 0..3.
        pages.zero(10, 40)                           # [10, 50)
        assert pages.read(0, 64) == b"x" * 10 + bytes(40) + b"x" * 14
        assert pages.resident_bytes == 2 * 16        # Pages 1, 2 are gone.

    def test_zero_inside_one_page_and_over_absent_pages(self):
        pages = SparsePages(page_size=16)
        pages.write(16, b"y" * 16)
        pages.zero(20, 4)
        assert pages.read(16, 16) == b"yyyy" + bytes(4) + b"y" * 8
        pages.zero(100, 1000)                        # Nothing resident there.
        pages.zero(0, 0)
        assert pages.resident_bytes == 16

    def test_zero_drops_an_edge_page_once_it_is_blank(self):
        """Two unaligned neighbours share page 1; freeing both must not
        leave it resident as zeros."""
        pages = SparsePages(page_size=16)
        pages.write(0, b"z" * 48)
        pages.zero(0, 24)
        assert pages.resident_bytes == 2 * 16
        pages.zero(24, 24)
        assert pages.resident_bytes == 0

    def test_clear(self):
        pages = SparsePages()
        pages.write(0, b"gone")
        pages.clear()
        assert pages.read(0, 4) == bytes(4)
        assert pages.resident_bytes == 0

    def test_snapshot_into(self):
        source = SparsePages()
        source.write(8, b"copied")
        dest = SparsePages()
        dest.write(100, b"overwritten-away")
        source.snapshot_into(dest)
        assert dest.read(8, 6) == b"copied"
        assert dest.read(100, 4) == bytes(4)
        # The snapshot is a deep copy: later source writes don't leak.
        source.write(8, b"XXXXXX")
        assert dest.read(8, 6) == b"copied"


class TestAgainstModel:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=3000),
                              st.binary(min_size=1, max_size=300)),
                    max_size=25),
           st.integers(min_value=0, max_value=3000),
           st.integers(min_value=0, max_value=400))
    def test_write_sequence_matches_flat_model(self, writes, read_at,
                                               read_len):
        """Any sequence of overlapping writes reads back exactly like a
        flat bytearray — across page boundaries (page size 64)."""
        pages = SparsePages(page_size=64)
        model = bytearray(4096)
        for address, data in writes:
            pages.write(address, data)
            model[address:address + len(data)] = data
        expected = bytes(model[read_at:read_at + read_len])
        # The model slice shrinks at the end; pad like the sparse store.
        expected = expected.ljust(read_len, b"\0")
        assert pages.read(read_at, read_len) == expected

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=1000),
                              st.binary(min_size=1, max_size=100)),
                    min_size=1, max_size=10))
    def test_snapshot_equals_source(self, writes):
        source = SparsePages(page_size=32)
        for address, data in writes:
            source.write(address, data)
        dest = SparsePages(page_size=32)
        source.snapshot_into(dest)
        assert dest.read(0, 1200) == source.read(0, 1200)

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.just("write"),
                  st.integers(min_value=0, max_value=3000),
                  st.binary(min_size=1, max_size=300)),
        st.tuples(st.just("zero"),
                  st.integers(min_value=0, max_value=3500),
                  st.integers(min_value=0, max_value=600))), max_size=25))
    def test_zero_matches_flat_model(self, operations):
        """Range-zeroing at arbitrary unaligned offsets, over resident and
        absent pages, reads back like zero-filling a flat bytearray — and
        leaves no page resident that it fully covered."""
        pages = SparsePages(page_size=64)
        model = bytearray(4096)
        for kind, address, arg in operations:
            if kind == "write":
                pages.write(address, arg)
                model[address:address + len(arg)] = arg
            else:
                pages.zero(address, arg)
                model[address:address + arg] = bytes(
                    len(model[address:address + arg]))
                covered = set(range(-(-address // 64), (address + arg) // 64))
                assert not covered & set(pages._pages)
        assert pages.read(0, 4096) == bytes(model)

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.just("write"), st.booleans(),
                  st.integers(min_value=0, max_value=3000),
                  st.binary(min_size=1, max_size=300)),
        st.tuples(st.just("zero"), st.booleans(),
                  st.integers(min_value=0, max_value=3500),
                  st.integers(min_value=0, max_value=600)),
        st.tuples(st.just("copy"), st.just(True),
                  st.integers(min_value=0, max_value=3500),
                  st.integers(min_value=0, max_value=600))), max_size=25))
    def test_copy_from_matches_flat_model(self, operations):
        """``copy_from`` makes a destination range read as the source does,
        over pages absent on either side, and makes no page resident that
        the source lacks."""
        stores = {False: SparsePages(page_size=64),
                  True: SparsePages(page_size=64)}
        models = {False: bytearray(4096), True: bytearray(4096)}
        for kind, into_dest, address, arg in operations:
            pages, model = stores[into_dest], models[into_dest]
            if kind == "write":
                pages.write(address, arg)
                model[address:address + len(arg)] = arg
            elif kind == "zero":
                pages.zero(address, arg)
                model[address:address + arg] = bytes(
                    len(model[address:address + arg]))
            else:
                before = set(pages._pages) | set(stores[False]._pages)
                pages.copy_from(stores[False], address, arg)
                model[address:address + arg] = \
                    models[False][address:address + arg]
                assert set(pages._pages) <= before
        for into_dest in (False, True):
            assert stores[into_dest].read(0, 4096) == bytes(models[into_dest])

    @settings(max_examples=60, deadline=None)
    @given(st.binary(min_size=1, max_size=200),
           st.integers(min_value=0, max_value=300),
           st.integers(min_value=1, max_value=40))
    def test_modify_edits_in_place_across_pages(self, data, address, size):
        """``modify`` reads and writes the bytes it is given, whether they
        sit in one page, straddle two, or are not resident yet."""
        pages = SparsePages(page_size=64)
        pages.write(0, data)
        model = bytearray(512)
        model[:len(data)] = data

        def invert(buffer, offset):
            for at in range(offset, offset + size):
                buffer[at] ^= 0xFF

        pages.modify(address, size, invert)
        for at in range(address, address + size):
            model[at] ^= 0xFF
        assert pages.read(0, 512) == bytes(model)


# ----------------------------------------------------------------------
# Pattern pages: copy-on-write against flat oracles
# ----------------------------------------------------------------------
_PAGE = 64
_SPAN = 16 * _PAGE                    # Two SparsePages of 16 small pages.
_NVM_SPAN = 4 * 4096                  # One NVM of four real pages.


def _xor(mask):
    def change(buffer, offset, size):
        for at in range(offset, offset + size):
            buffer[at] ^= mask
    return change


class PatternPages(RuleBasedStateMachine):
    """Two ``SparsePages`` and one ``NVM`` under random pattern writes and
    every mutator; after each step every store reads byte for byte like a
    flat ``bytearray`` oracle (the NVM's visible and durable images both),
    and no private page is reachable from two places."""

    def __init__(self):
        super().__init__()
        self.stores = [SparsePages(page_size=_PAGE),
                       SparsePages(page_size=_PAGE)]
        self.models = [bytearray(_SPAN), bytearray(_SPAN)]
        self.nvm = NVM(_NVM_SPAN)
        self.visible = bytearray(_NVM_SPAN)
        self.durable = bytearray(_NVM_SPAN)

    # -- the two page stores ------------------------------------------
    @rule(which=st.integers(0, 1), address=st.integers(0, _SPAN - 1),
          unit=st.binary(min_size=1, max_size=150),
          count=st.integers(0, 40))
    def write_pattern(self, which, address, unit, count):
        count = min(count, (_SPAN - address) // len(unit))
        self.stores[which].write_pattern(address, unit, count)
        self.models[which][address:address + len(unit) * count] = \
            unit * count

    @rule(which=st.integers(0, 1), address=st.integers(0, _SPAN - 1),
          data=st.binary(min_size=1, max_size=200))
    def write(self, which, address, data):
        data = data[:_SPAN - address]
        self.stores[which].write(address, data)
        self.models[which][address:address + len(data)] = data

    @rule(which=st.integers(0, 1), address=st.integers(0, _SPAN - 1),
          size=st.integers(1, 40), mask=st.integers(1, 255))
    def modify(self, which, address, size, mask):
        size = min(size, _SPAN - address)
        change = _xor(mask)
        self.stores[which].modify(
            address, size, lambda buffer, at: change(buffer, at, size))
        change(self.models[which], address, size)

    @rule(which=st.integers(0, 1), address=st.integers(0, _SPAN - 1),
          size=st.integers(0, 300))
    def zero(self, which, address, size):
        size = min(size, _SPAN - address)
        self.stores[which].zero(address, size)
        self.models[which][address:address + size] = bytes(size)

    @rule(into=st.integers(0, 1), address=st.integers(0, _SPAN - 1),
          size=st.integers(0, 400))
    def copy_from(self, into, address, size):
        size = min(size, _SPAN - address)
        self.stores[into].copy_from(self.stores[1 - into], address, size)
        self.models[into][address:address + size] = \
            self.models[1 - into][address:address + size]

    @rule(into=st.integers(0, 1))
    def snapshot_into(self, into):
        self.stores[1 - into].snapshot_into(self.stores[into])
        self.models[into] = bytearray(self.models[1 - into])

    # -- one NVM: visible and durable images --------------------------
    @rule(address=st.integers(0, _NVM_SPAN - 1),
          unit=st.binary(min_size=1, max_size=700),
          count=st.integers(0, 40))
    def nvm_write_pattern(self, address, unit, count):
        count = min(count, (_NVM_SPAN - address) // len(unit))
        self.nvm.write_pattern(address, unit, count)
        self.visible[address:address + len(unit) * count] = unit * count

    @rule(address=st.integers(0, _NVM_SPAN - 1),
          data=st.binary(min_size=1, max_size=200))
    def nvm_write(self, address, data):
        data = data[:_NVM_SPAN - address]
        self.nvm.write(address, data)
        self.visible[address:address + len(data)] = data

    @rule(address=st.integers(0, _NVM_SPAN - 1), size=st.integers(1, 40),
          mask=st.integers(1, 255))
    def nvm_modify(self, address, size, mask):
        size = min(size, _NVM_SPAN - address)
        change = _xor(mask)
        self.nvm.modify(address, size,
                        lambda buffer, at: change(buffer, at, size))
        change(self.visible, address, size)

    @rule(address=st.integers(0, _NVM_SPAN - 1),
          size=st.integers(0, 3 * 4096))
    def nvm_persist(self, address, size):
        size = min(size, _NVM_SPAN - address)
        self.nvm.persist(address, size)
        self.durable[address:address + size] = \
            self.visible[address:address + size]

    @rule(filler=st.integers(1, 9000), size=st.integers(1, 9000))
    def nvm_free(self, filler, size):
        """``free`` zeroes both images: an area that starts ``filler``
        bytes in (unaligned edges), then the filler."""
        size = min(size, _NVM_SPAN - filler)
        if size <= 0:
            return
        hole = self.nvm.allocate(filler, "filler", align=1)
        area = self.nvm.allocate(size, "area", align=1)
        self.nvm.free(area)
        self.nvm.free(hole)
        for image in (self.visible, self.durable):
            image[hole.address:area.end] = bytes(filler + size)

    @rule()
    def nvm_power_failure(self):
        self.nvm.on_power_failure()
        self.visible = bytearray(self.durable)

    # -- checks --------------------------------------------------------
    @invariant()
    def every_store_reads_like_its_oracle(self):
        for store, model in zip(self.stores, self.models):
            assert store.read(0, _SPAN) == bytes(model)
        assert self.nvm.read(0, _NVM_SPAN) == bytes(self.visible)
        assert self.nvm.read_durable(0, _NVM_SPAN) == bytes(self.durable)

    @invariant()
    def private_pages_are_never_aliased(self):
        stores = self.stores + [self.nvm._data, self.nvm._durable_data]
        private = [id(page) for store in stores
                   for page in store._pages.values()
                   if isinstance(page, bytearray)]
        assert len(private) == len(set(private))


PatternPages.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None)
TestPatternPages = PatternPages.TestCase


class TestWritePattern:
    def test_whole_pages_share_one_object_per_phase(self):
        """A 640 B unit over 4 KiB pages has five phases; the unaligned
        edges are private."""
        pages = SparsePages()
        unit = bytes(range(256)) * 2 + bytes(128)
        pages.write_pattern(1000, unit, 1024)
        assert pages.read(1000, 640 * 1024) == unit * 1024
        held = list(pages._pages.values())
        shared = {id(page) for page in held if isinstance(page, bytes)}
        assert len(shared) == 5
        assert [index for index, page in pages._pages.items()
                if isinstance(page, bytearray)] == [0, 160]
        # Each distinct page object is counted once.
        assert pages.resident_bytes == (5 + 2) * 4096

    def test_a_range_inside_one_page_is_a_plain_write(self):
        pages = SparsePages(page_size=64)
        pages.write_pattern(10, b"ab", 20)
        assert pages.read(0, 64) == bytes(10) + b"ab" * 20 + bytes(14)
        assert all(isinstance(page, bytearray)
                   for page in pages._pages.values())
        pages.write_pattern(10, b"zz", 0)
        assert pages.read(10, 2) == b"ab"

    def test_a_unit_longer_than_a_page(self):
        pages = SparsePages(page_size=64)
        unit = bytes(range(150))
        pages.write_pattern(5, unit, 3)
        assert pages.read(0, 500) == bytes(5) + unit * 3 + bytes(45)

    def test_page_aligned_zero_drops_pattern_pages_without_copying(
            self, monkeypatch):
        """Freeing a pattern range that starts and ends on page boundaries
        pops its edge pages; no shared page is copied only to be blanked."""
        pages = SparsePages(page_size=64)
        pages.write_pattern(0, bytes(range(1, 33)), 16)    # Pages 0..7.
        pages.write(512, b"next")

        def no_copy(self, index):
            raise AssertionError(f"page {index} made private")

        monkeypatch.setattr(SparsePages, "_writable", no_copy)
        pages.zero(64, 128)                                # Pages 1, 2.
        pages.zero(0, 64)                                  # Page 0 alone.
        pages.zero(192, 320)                               # Pages 3..7.
        assert sorted(pages._pages) == [8]
        assert pages.read(0, 516) == bytes(512) + b"next"
