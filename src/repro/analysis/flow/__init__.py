"""simflow — whole-program dataflow analyses for simlint.

Per-file rules (DET/KP/WQ 0x) see one module at a time, so a helper one
call away can silently break the invariants they guard.  This package adds
the project-wide layer:

* :mod:`.index` — a :class:`ModuleSummary` per file (symbol table, call
  sites, ``yield from`` edges, process registrations, shared-state access
  facts, descriptor-taint facts) aggregated into a :class:`ProjectIndex`
  with a resolved call graph and process-context reachability.

* :mod:`.races` — **RC0x**, the static race detector.  In a cooperative
  discrete-event kernel code between yields is atomic; races live exactly
  where shared mutable state is read, *yielded across*, and written back
  stale (RC01), or iterated with a yield in the loop body while another
  simulated process may mutate it (RC02).

* :mod:`.ownership` — **WQ1x**, interprocedural WQE-ownership taint:
  descriptor addresses propagate through locals, arguments and returns
  into ring writes performed by helpers (WQ11), and private rdma-layer
  functions that consume descriptors or flip ownership must not be called
  from outside the layer (WQ12).

* :mod:`.protocol` — **KP1x**, yield-protocol propagation: helper
  generators consumed via ``yield from`` inherit the kernel yield
  discipline (KP11) and the no-host-blocking rule extends to everything
  reachable from a process context (KP12).

Interprocedural violations carry a *source* function; pragmas are honoured
both on the sink line and on the ``def`` line of the source.
"""

from .index import FuncFact, ModuleSummary, ProjectIndex, summarize_module

# Importing the rule modules registers their rules.
from . import ownership, protocol, races  # noqa: F401  isort: skip

__all__ = [
    "FuncFact",
    "ModuleSummary",
    "ProjectIndex",
    "summarize_module",
]
