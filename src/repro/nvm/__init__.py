"""Non-volatile memory substrate: devices, NIC write cache, power failure."""

from .memory import DRAM, NVM, Allocation, MemoryDevice, OutOfMemoryError
from .cache import NICWriteCache
from .power import PowerDomain

__all__ = [
    "DRAM",
    "NVM",
    "Allocation",
    "MemoryDevice",
    "OutOfMemoryError",
    "NICWriteCache",
    "PowerDomain",
]
