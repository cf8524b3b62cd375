"""Kernel-protocol rule (KP family).

The tuple-heap kernel (:mod:`repro.sim.engine`) runs every simulated
process, callback and model step on one host thread, so anything that
blocks that thread stalls the whole simulation in real time.  The other
kernel contracts need no linter: the kernel rejects a bad yield at
dispatch (``SimulationError``), ``Event``'s ``__slots__`` reject an
attribute stashed on it, and ``tests/sim/test_slots.py`` finds any kernel
or RDMA class that grows an instance ``__dict__``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from .core import Rule, RuleContext, Violation, dotted_name, register

__all__ = ["BlockingCall"]

_BLOCKING_DOTTED = {"time.sleep", "os.system"}
_BLOCKING_PREFIXES = ("subprocess.", "socket.", "requests.", "urllib.")
_BLOCKING_BARE = {"open", "input", "sleep"}


def _blocking(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return f"'{node.func.id}()'" if node.func.id in _BLOCKING_BARE \
            else None
    target = dotted_name(node.func)
    if target is not None and (target in _BLOCKING_DOTTED
                               or target.startswith(_BLOCKING_PREFIXES)):
        return f"'{target}()'"
    return None


@register
class BlockingCall(Rule):
    """No host-blocking calls anywhere in the ``repro`` package."""

    code = "KP04"
    name = "blocking-call"
    family = "kernel-protocol"
    description = ("time.sleep()/file/socket/subprocess calls in the repro "
                   "package stall the event loop in real time as soon as "
                   "anything a simulation runs reaches them, however many "
                   "calls down — all waiting must be simulated.")
    fixit = ("Model the delay (yield sim.timeout(d) or a bare int) and do "
             "real I/O outside the package, in scripts or tests; a CLI "
             "driver may annotate the line "
             "'# simlint: disable=blocking-call'.")

    def check(self, ctx: RuleContext) -> Iterator[Violation]:
        if not ctx.in_package("repro/"):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                description = _blocking(node)
                if description is not None:
                    yield self.violation(
                        ctx, node, f"blocking call {description} in the "
                        "simulation package")
