"""Replication backends: the pluggable layer under every consumer.

* :class:`GroupBase` — the backend contract and shared client-side
  machinery (``base.py``): Table 1's primitives, reads, flow control,
  recovery and membership hooks; each class declares its ``primitives``
  and replica bounds;
* :class:`OpKind` / :class:`OpSpec` / :class:`OpResult` — what an op is
  and what it completes with (``ops.py``);
* the registry — :func:`register` / :func:`get` / :func:`create` /
  :func:`names` (``registry.py``).

Registered in-tree backends: ``hyperloop`` (NIC-offloaded chain, the
paper's contribution), ``naive`` (CPU-forwarded baseline) and ``fanout``
(NIC-offloaded primary/backup star, the §7 extension).
"""

from .base import GroupBase
from .ops import READ, OpKind, OpResult, OpSpec
from .registry import BackendSpec, create, get, names, register, specs

__all__ = [
    "OpKind",
    "OpSpec",
    "OpResult",
    "READ",
    "GroupBase",
    "BackendSpec",
    "create",
    "get",
    "names",
    "register",
    "specs",
]
