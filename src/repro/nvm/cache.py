"""The NIC's volatile write cache.

§4.2 of the paper (gFLUSH): "The destination NIC sends an ACK in response to
RDMA WRITE as soon as the data is stored in the NIC's volatile cache.  This
means that the data can be lost on power outage before the data is flushed
into NVM."  HyperLoop's gFLUSH primitive closes the gap by issuing a 0-byte
RDMA READ, which forces the NIC to drain its cache before the READ completes.

The model here matches real PCIe/ADR behaviour: a DMA write becomes *visible*
to software immediately (it is written to the backing device's visible
image), but it is only *durable* — copied into the NVM device's durable
image — when the cache entry is flushed, either explicitly (a READ arriving
at this NIC triggers :meth:`flush`) or by the lazy background writeback.
A power failure drops entries that were still pending, so their bytes revert
to the pre-write durable contents.
"""

from __future__ import annotations

from typing import List, Tuple

from ..sim.engine import Simulator
from ..sim.units import us
from .memory import MemoryDevice

__all__ = ["NICWriteCache"]


class NICWriteCache:
    """Write-behind durability cache between a NIC's DMA engine and NVM."""

    def __init__(self, sim: Simulator, backing: MemoryDevice,
                 writeback_delay_ns: int = us(100),
                 capacity_bytes: int = 1 << 20) -> None:
        self.sim = sim
        self.backing = backing
        self.writeback_delay_ns = writeback_delay_ns
        self.capacity_bytes = capacity_bytes
        #: Visible-but-not-yet-durable writes, as ``(address, end)``.
        self._pending: List[Tuple[int, int]] = []
        self._dirty_bytes = 0
        self._writeback_scheduled = False
        self.flushes = 0
        self.writebacks = 0
        self.bytes_lost_on_power_failure = 0

    # ------------------------------------------------------------------
    # DMA path
    # ------------------------------------------------------------------
    def dma_write(self, address: int, data: bytes) -> None:
        """Inbound DMA write: visible immediately, durable only on flush.

        The NIC may ACK as soon as this returns — the durability hazard
        gFLUSH exists to close.
        """
        if not data:
            return
        self.backing.write(address, data)
        self._pending.append((address, address + len(data)))
        self._dirty_bytes += len(data)
        if self._dirty_bytes > self.capacity_bytes:
            # Capacity pressure forces a synchronous drain.
            self.flush()
        elif not self._writeback_scheduled:
            self._writeback_scheduled = True
            self.sim.call_at(self.sim.now + self.writeback_delay_ns,
                             self._writeback)

    def dma_read(self, address: int, size: int) -> bytes:
        """DMA read — coherent with the visible image by construction."""
        return self.backing.read(address, size)

    # ------------------------------------------------------------------
    # Flush / writeback
    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Synchronously make every pending write durable.

        Triggered by a 0-byte RDMA READ arriving at this NIC (gFLUSH).
        Returns the number of bytes persisted.
        """
        drained = self._dirty_bytes
        self._persist_all()
        self.flushes += 1
        return drained

    def _writeback(self) -> None:
        self._writeback_scheduled = False
        if self._pending:
            self.writebacks += 1
            self._persist_all()

    def _persist_all(self) -> None:
        """One ``persist`` per run of overlapping or adjacent pending ranges:
        it copies the bytes visible *now*, so the union is exact.  Never
        merged across a gap — the bytes there are not pending."""
        runs: List[List[int]] = []
        for address, end in sorted(self._pending):
            if runs and address <= runs[-1][1]:
                runs[-1][1] = max(runs[-1][1], end)
            else:
                runs.append([address, end])
        self._pending = []
        self._dirty_bytes = 0
        for address, end in runs:
            self.backing.persist(address, end - address)

    @property
    def dirty_bytes(self) -> int:
        return self._dirty_bytes

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def on_power_failure(self) -> None:
        """Pending entries are lost: they never reached the durable image."""
        self.bytes_lost_on_power_failure += self._dirty_bytes
        self._pending = []
        self._dirty_bytes = 0
