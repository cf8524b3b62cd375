"""Backend-agnostic operation descriptions (Table 1).

:class:`OpSpec` is what a caller hands to
:meth:`~repro.backend.base.GroupBase.submit` and :class:`OpResult` what
its event fires with; how an op becomes wire traffic is each backend's
business (descriptor images for the HyperLoop chain, headers for the CPU
baseline, per-backup blocks for the fan-out).  Kept here — below every
backend — so :mod:`repro.backend.base` and :mod:`repro.core.metadata`
share them without depending on any implementation's metadata format.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence

__all__ = ["OpKind", "OpSpec", "OpResult", "READ"]


class OpKind(Enum):
    GWRITE = "gwrite"
    GCAS = "gcas"
    GMEMCPY = "gmemcpy"
    GFLUSH = "gflush"


#: The one-sided READ of a replica's region
#: (:meth:`~repro.backend.base.GroupBase.remote_read`): the primitive a
#: client may declare beside the four :class:`OpKind`\ s.
READ = "read"


@dataclass
class OpSpec:
    """One group operation, as specified by the caller (Table 1)."""

    kind: OpKind
    offset: int = 0            # gWRITE/gCAS target offset in the region.
    size: int = 0              # gWRITE/gMEMCPY payload size.
    src_offset: int = 0        # gMEMCPY source.
    dst_offset: int = 0        # gMEMCPY destination.
    old_value: int = 0         # gCAS compare.
    new_value: int = 0         # gCAS swap.
    execute_map: Optional[Sequence[bool]] = None  # gCAS selective execution.
    durable: bool = False      # Interleave gFLUSH down the chain.

    @property
    def flushes(self) -> bool:
        """The one flush rule: a durable op and a gFLUSH make every
        replica durable, on every backend."""
        return self.durable or self.kind is OpKind.GFLUSH

    def validate(self, group_size: int) -> None:
        if self.kind is OpKind.GCAS and self.execute_map is not None \
                and len(self.execute_map) != group_size:
            raise ValueError(
                f"execute map has {len(self.execute_map)} entries for "
                f"group of {group_size}")
        if self.size < 0 or self.offset < 0:
            raise ValueError("offset/size must be non-negative")


@dataclass
class OpResult:
    """Completion record for one group operation."""

    slot: int
    latency_ns: int
    result_map: bytes

    def cas_results(self) -> List[int]:
        """Per-replica original values from a gCAS (zero where skipped)."""
        return [int.from_bytes(self.result_map[i:i + 8], "little")
                for i in range(0, len(self.result_map), 8)]
