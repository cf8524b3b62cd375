"""Byte-addressable memory devices.

Two device types back every simulated host:

* :class:`DRAM` — volatile; contents are lost on power failure.
* :class:`NVM` — non-volatile (the paper's battery-backed DRAM / 3D-XPoint);
  contents survive power failure.

Both expose flat ``read``/``write`` over sparse page storage plus a
first-fit allocator with a coalescing free list, so higher layers
(write-ahead logs, database regions, driver metadata regions) can carve
out — and return — named areas.  Addresses are plain integers —
offsets into the device — which is exactly how RDMA rkey-scoped addressing
is modelled in :mod:`repro.rdma.verbs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

__all__ = ["MemoryDevice", "DRAM", "NVM", "Allocation", "OutOfMemoryError"]


class OutOfMemoryError(Exception):
    """The device has no room left for an allocation."""


class SparsePages:
    """Page-granular sparse byte storage.

    A simulated host advertises gigabytes of memory but touches only a
    small fraction; storing untouched pages would make multi-host
    simulations cost real gigabytes.  Pages materialize on first write and
    absent pages read as zeros.

    A page is a private ``bytearray`` or an immutable ``bytes`` that
    :meth:`write_pattern` maps to every page of one pattern phase.  Every
    mutator swaps a shared page for a private copy before it writes
    (copy-on-write); reads, the source side of :meth:`copy_from` and
    :meth:`snapshot_into` leave it shared.
    """

    __slots__ = ("page_size", "_pages")

    def __init__(self, page_size: int = 4096) -> None:
        self.page_size = page_size
        self._pages: Dict[int, Union[bytes, bytearray]] = {}

    def _writable(self, index: int) -> bytearray:
        """Page ``index`` as a private buffer: made if absent, copied if
        shared."""
        page = self._pages.get(index)
        if isinstance(page, bytearray):
            return page
        private = self._pages[index] = (bytearray(self.page_size)
                                        if page is None else bytearray(page))
        return private

    def read(self, address: int, size: int) -> bytes:
        if size <= 0:
            return b""
        page_size = self.page_size
        first = address // page_size
        last = (address + size - 1) // page_size
        if first == last:
            page = self._pages.get(first)
            offset = address - first * page_size
            if page is None:
                return bytes(size)
            return bytes(page[offset:offset + size])
        parts: List[Union[bytes, memoryview]] = []
        end = address + size
        for index in range(first, last + 1):
            base = index * page_size
            start = address - base if address > base else 0
            stop = end - base if end - base < page_size else page_size
            page = self._pages.get(index)
            parts.append(bytes(stop - start) if page is None
                         else memoryview(page)[start:stop])  # One copy.
        return b"".join(parts)

    def write(self, address: int, data: bytes) -> None:
        if not data:
            return
        page_size = self.page_size
        index = address // page_size
        offset = address - index * page_size
        if offset + len(data) <= page_size:
            page = self._pages.get(index)
            if not isinstance(page, bytearray):
                page = self._writable(index)
            page[offset:offset + len(data)] = data
            return
        view = memoryview(data)
        end = address + len(data)
        for index in range(address // page_size, (end - 1) // page_size + 1):
            base = index * page_size
            start = address - base if address > base else 0
            stop = end - base if end - base < page_size else page_size
            at = base + start - address
            self._writable(index)[start:stop] = view[at:at + stop - start]

    def write_pattern(self, address: int, unit: bytes, count: int) -> None:
        """Write ``unit`` ``count`` times over from ``address``.

        Reads back as ``write(address, unit * count)``.  Each whole page
        inside the range maps to one shared ``bytes`` per pattern phase,
        ``(page_base - address) % len(unit)``: a 640 B unit on 4 KiB pages
        has five.  The edge pages are written as by :meth:`write`.
        """
        width = len(unit)
        end = address + width * count
        if end <= address:
            return
        page_size = self.page_size
        first = -(-address // page_size)      # First whole page.
        stop = end // page_size               # One past the last.
        if first >= stop:
            self.write(address, unit * count)
            return
        shared: Dict[int, bytes] = {}
        for index in range(first, stop):
            phase = (index * page_size - address) % width
            page = shared.get(phase)
            if page is None:
                page = shared[phase] = _cycle(unit, phase, page_size)
            self._pages[index] = page
        head, tail = first * page_size, stop * page_size
        if head > address:
            self.write(address, _cycle(unit, 0, head - address))
        if end > tail:
            self.write(tail, _cycle(unit, (tail - address) % width,
                                    end - tail))

    def zero(self, address: int, size: int) -> None:
        """Make ``[address, address + size)`` read as zeros by dropping the
        pages it covers whole; an edge page a neighbour also uses is blanked
        (in a private copy if it is a pattern page) and dropped once nothing
        but zeros is left on it."""
        if size <= 0:
            return
        page_size = self.page_size
        pages = self._pages
        end = address + size
        first = address // page_size
        last = (end - 1) // page_size
        inner = range(first + 1, last)
        for index in (inner if len(inner) < len(pages)
                      else [i for i in pages if i in inner]):
            pages.pop(index, None)
        for index in (first, last):
            if index not in pages:
                continue
            start = max(address - index * page_size, 0)
            stop = min(end - index * page_size, page_size)
            if stop - start < page_size:
                page = self._writable(index)
                page[start:stop] = bytes(stop - start)
                if any(page):
                    continue
            del pages[index]

    def modify(self, address: int, size: int,
               change: Callable[[bytearray, int], None]) -> None:
        """``change(buffer, offset)`` edits ``[address, address + size)`` as
        ``buffer[offset:offset + size]``: in its page, else in a copy."""
        index, offset = divmod(address, self.page_size)
        page = self._pages.get(index)
        if page is not None and offset + size <= self.page_size:
            if not isinstance(page, bytearray):
                page = self._writable(index)
            change(page, offset)
        else:
            image = bytearray(self.read(address, size))
            change(image, 0)
            self.write(address, image)

    def copy_from(self, source: "SparsePages", address: int,
                  size: int) -> None:
        """Make ``[address, address + size)`` read as in ``source``, page by
        page; where ``source`` has no page, zero rather than materialize.
        A whole shared page is shared, not copied."""
        if size <= 0:
            return
        page_size = self.page_size
        end = address + size
        for index in range(address // page_size, (end - 1) // page_size + 1):
            base = index * page_size
            start = address - base if address > base else 0
            stop = end - base if end - base < page_size else page_size
            page = source._pages.get(index)
            if page is None:
                self.zero(base + start, stop - start)
            elif isinstance(page, bytes) and stop - start == page_size:
                self._pages[index] = page
            else:
                self._writable(index)[start:stop] = \
                    memoryview(page)[start:stop]

    def clear(self) -> None:
        self._pages.clear()

    def snapshot_into(self, other: "SparsePages") -> None:
        """Replace ``other``'s contents with a copy of this store; shared
        pages stay shared."""
        other._pages = {index: page if isinstance(page, bytes)
                        else bytearray(page)
                        for index, page in self._pages.items()}

    @property
    def resident_bytes(self) -> int:
        """Bytes of page storage held, each distinct page object counted
        once: a pattern page shared by many indices is one page."""
        return len({id(page) for page in self._pages.values()}) \
            * self.page_size


def _cycle(unit: bytes, phase: int, length: int) -> bytes:
    """``length`` bytes of ``unit`` repeated without end, from ``phase``."""
    head = unit[phase:phase + length]
    rest = length - len(head)
    if not rest:
        return head
    whole, part = divmod(rest, len(unit))
    return head + unit * whole + unit[:part]


@dataclass(frozen=True)
class Allocation:
    """A named, contiguous area of a memory device."""

    name: str
    address: int
    size: int

    @property
    def end(self) -> int:
        return self.address + self.size

    def contains(self, address: int, size: int = 1) -> bool:
        return self.address <= address and address + size <= self.end


class MemoryDevice:
    """Flat byte-addressable memory with a first-fit allocator.

    Allocation is bump-style with a coalescing free list, so long-lived
    simulations that build and tear down replication groups (recovery
    rebuilds) reuse address space instead of exhausting it.
    """

    #: Whether contents survive power failure.
    durable = False

    def __init__(self, size: int, name: str = "mem") -> None:
        if size <= 0:
            raise ValueError("memory size must be positive")
        self.size = size
        self.name = name
        self._data = SparsePages()
        self._brk = 0
        self._allocations: Dict[str, Allocation] = {}
        self._free_list: List[Tuple[int, int]] = []  # (address, size), sorted.

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(self, size: int, name: str = "", align: int = 8) -> Allocation:
        """Reserve ``size`` bytes; returns the allocation record."""
        if size <= 0:
            raise ValueError("allocation size must be positive")
        if align & (align - 1):
            raise ValueError("alignment must be a power of two")
        address = self._take_from_free_list(size, align)
        if address is None:
            address = (self._brk + align - 1) & ~(align - 1)
            if address + size > self.size:
                raise OutOfMemoryError(
                    f"{self.name}: cannot allocate {size} bytes "
                    f"({self.size - self._brk} free at the break)")
            self._brk = address + size
        allocation = Allocation(name or f"alloc@{address}", address, size)
        if allocation.name in self._allocations:
            raise ValueError(f"duplicate allocation name {allocation.name!r}")
        self._allocations[allocation.name] = allocation
        return allocation

    def _take_from_free_list(self, size: int, align: int) -> Optional[int]:
        for index, (hole_addr, hole_size) in enumerate(self._free_list):
            aligned = (hole_addr + align - 1) & ~(align - 1)
            slack = aligned - hole_addr
            if slack + size > hole_size:
                continue
            # Carve: return the aligned piece, keep the remainders free.
            del self._free_list[index]
            if slack:
                self._free_list.append((hole_addr, slack))
            tail = hole_size - slack - size
            if tail:
                self._free_list.append((aligned + size, tail))
            self._free_list.sort()
            return aligned
        return None

    def free(self, allocation: Allocation) -> None:
        """Return an allocation's bytes for reuse (coalescing neighbours).

        The contents are zeroed: the next owner must not observe stale
        bytes (or stale durable bytes after a crash).
        """
        recorded = self._allocations.pop(allocation.name, None)
        if recorded is not allocation:
            raise ValueError(
                f"{self.name}: {allocation.name!r} is not live here")
        self._data.zero(allocation.address, allocation.size)
        self._free_list.append((allocation.address, allocation.size))
        self._free_list.sort()
        # Coalesce adjacent holes (and fold the last hole into the break).
        merged: List[Tuple[int, int]] = []
        for address, size in self._free_list:
            if merged and merged[-1][0] + merged[-1][1] == address:
                merged[-1] = (merged[-1][0], merged[-1][1] + size)
            else:
                merged.append((address, size))
        if merged and merged[-1][0] + merged[-1][1] == self._brk:
            self._brk = merged.pop()[0]
        self._free_list = merged

    def allocation(self, name: str) -> Allocation:
        return self._allocations[name]

    @property
    def bytes_free(self) -> int:
        return (self.size - self._brk
                + sum(size for _addr, size in self._free_list))

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def _check(self, address: int, size: int) -> None:
        if address < 0 or size < 0 or address + size > self.size:
            raise IndexError(
                f"{self.name}: access [{address}, {address + size}) outside "
                f"device of size {self.size}")

    def read(self, address: int, size: int) -> bytes:
        self._check(address, size)
        return self._data.read(address, size)

    def write(self, address: int, data: bytes) -> None:
        self._check(address, len(data))
        self._data.write(address, data)

    def write_pattern(self, address: int, unit: bytes, count: int) -> None:
        """Write ``unit`` ``count`` times over from ``address``, storing each
        whole page once per pattern phase (:meth:`SparsePages.write_pattern`).
        """
        self._check(address, len(unit) * count)
        self._data.write_pattern(address, unit, count)

    def modify(self, address: int, size: int,
               change: Callable[[bytearray, int], None]) -> None:
        """Read-modify-write in place (a descriptor's flags byte):
        ``change(buffer, offset)`` edits ``buffer[offset:offset + size]``."""
        self._check(address, size)
        self._data.modify(address, size, change)

    def fill(self, address: int, size: int, byte: int = 0) -> None:
        self._check(address, size)
        self._data.write(address, bytes([byte]) * size)

    def copy_within(self, src: int, dst: int, size: int) -> None:
        """memmove inside the device (used by gMEMCPY's local DMA)."""
        self._check(src, size)
        self._check(dst, size)
        self._data.write(dst, self._data.read(src, size))

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def persist(self, address: int, size: int) -> None:
        """Make a visible range durable (clwb/flush semantics).

        No-op for volatile devices — their contents are lost regardless.
        """
        self._check(address, size)

    # ------------------------------------------------------------------
    # Power failure
    # ------------------------------------------------------------------
    def on_power_failure(self) -> None:
        """Volatile devices lose everything; durable ones keep it."""
        if not self.durable:
            self._data.clear()


class DRAM(MemoryDevice):
    """Volatile main memory."""

    durable = False

    def __init__(self, size: int, name: str = "dram") -> None:
        super().__init__(size, name)


class NVM(MemoryDevice):
    """Non-volatile memory (battery-backed DRAM / persistent memory).

    Distinguishes the *visible* image (what loads/DMA reads observe) from the
    *durable* image (what survives power failure).  Writes are visible
    immediately but only become durable after :meth:`persist` — which is what
    the NIC write cache's flush, and software ``clwb``-style flushes, invoke.
    This split is the mechanism behind the paper's gFLUSH primitive: an RDMA
    WRITE may be ACKed while its bytes are visible-but-not-durable.
    """

    durable = True

    def __init__(self, size: int, name: str = "nvm") -> None:
        super().__init__(size, name)
        self._durable_data = SparsePages()

    def free(self, allocation: Allocation) -> None:
        super().free(allocation)
        self._durable_data.zero(allocation.address, allocation.size)

    def persist(self, address: int, size: int) -> None:
        """Copy a visible range into the durable image."""
        self._check(address, size)
        self._durable_data.copy_from(self._data, address, size)

    def read_durable(self, address: int, size: int) -> bytes:
        """What a post-crash reader would see for this range."""
        self._check(address, size)
        return self._durable_data.read(address, size)

    def on_power_failure(self) -> None:
        """Visible image reverts to the durable image."""
        self._durable_data.snapshot_into(self._data)
