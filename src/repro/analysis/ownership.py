"""WQE-ownership rules (WQ family).

HyperLoop's remote work-request manipulation only stays honest if the
simulation enforces the same discipline as the hardware: a descriptor whose
ownership bit belongs to the NIC may be changed *only* by the NIC executing
DMA (:mod:`repro.rdma.nic`) or by the driver's patching API
(:mod:`repro.rdma.driver` / the verbs wrappers).  Core, backends and
baselines express ownership transfers through pre-posted WQE chains and
metadata SENDs — never by poking ring bytes directly, which would
short-circuit exactly the mechanism the reproduction measures.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .core import (
    Rule,
    RuleContext,
    Violation,
    contains_call_attr,
    dotted_name,
    register,
)

__all__ = ["OwnershipGrant", "DescriptorPoke", "NICConsumerAPI"]

#: The driver's patching surface: raw grant lives in driver.py, the verbs
#: wrapper (grant_send) in verbs.py.
_GRANT_ALLOWED = ("repro/rdma/driver.py", "repro/rdma/verbs.py")

#: Modules allowed to write bytes at descriptor addresses.
_POKE_ALLOWED = ("repro/rdma/driver.py", "repro/rdma/nic.py")

#: Modules allowed to reference the ownership flag bit at all.
_OWNED_FLAG_ALLOWED_PREFIX = "repro/rdma/"

#: The NIC-consumer half of the WorkQueue interface.
_CONSUMER_METHODS = ("peek_head", "advance_head", "wake_written")

_ADDRESS_HELPERS = ("slot_address", "field_address")

#: Memory writers that can land bytes on a descriptor address.
_WRITE_METHODS = ("write", "write_pattern", "dma_write", "modify")


@register
class OwnershipGrant(Rule):
    """Raw ``WorkQueue.grant`` calls outside the driver layer."""

    code = "WQ01"
    name = "ownership-grant"
    family = "wqe-ownership"
    description = ("WorkQueue.grant() flips a descriptor's ownership bit in "
                   "ring memory; calling it outside the driver layer "
                   "bypasses the doorbell and the posting protocol.")
    fixit = ("Go through the verbs API: post with owned=False and activate "
             "via QueuePair.grant_send(index), or let a metadata SEND "
             "scatter the ownership bit remotely.")

    def check(self, ctx: RuleContext) -> Iterator[Violation]:
        if ctx.is_module(*_GRANT_ALLOWED):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "grant":
                yield self.violation(
                    ctx, node,
                    "raw '.grant()' ownership flip outside the driver's "
                    "patching API")


@register
class DescriptorPoke(Rule):
    """Direct writes into descriptor ring memory, or ownership-bit math,
    outside the NIC/driver."""

    code = "WQ02"
    name = "descriptor-poke"
    family = "wqe-ownership"
    description = ("memory.write()/write_pattern()/modify()/dma_write() at "
                   "slot_address()/"
                   "field_address() targets — or WQEFlags.OWNED bit "
                   "arithmetic — outside rdma/ rewrites NIC-owned "
                   "descriptors without the NIC noticing.")
    fixit = ("Computing descriptor addresses (for SGE targets of metadata "
             "SENDs) is fine anywhere; the *write* must come from NIC DMA "
             "or the driver.  Route mutations through post/grant_send or a "
             "real simulated SEND/WRITE.")

    def check(self, ctx: RuleContext) -> Iterator[Violation]:
        poke_allowed = ctx.is_module(*_POKE_ALLOWED)
        flag_allowed = ctx.module.startswith(_OWNED_FLAG_ALLOWED_PREFIX)
        for node in ast.walk(ctx.tree):
            if not poke_allowed and isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _WRITE_METHODS:
                helper = None
                for argument in list(node.args) \
                        + [kw.value for kw in node.keywords]:
                    helper = contains_call_attr(argument, _ADDRESS_HELPERS)
                    if helper is not None:
                        break
                if helper is not None:
                    yield self.violation(
                        ctx, node,
                        f"direct '{node.func.attr}()' into descriptor ring "
                        "memory (address from "
                        f"{helper.func.attr}())")  # type: ignore[union-attr]
            elif not flag_allowed and isinstance(node, ast.Attribute) \
                    and dotted_name(node) == "WQEFlags.OWNED":
                yield self.violation(
                    ctx, node,
                    "WQEFlags.OWNED bit manipulation outside the rdma/ "
                    "layer")


@register
class NICConsumerAPI(Rule):
    """The WorkQueue consumer interface belongs to the NIC."""

    code = "WQ03"
    name = "nic-consumer-api"
    family = "wqe-ownership"
    description = ("peek_head()/advance_head() consume descriptors and "
                   "wake_written() re-evaluates stalled queues; calling them "
                   "from core/backends simulates hardware behaviour in "
                   "software and invalidates the offload measurements.")
    fixit = ("Drive the NIC through verbs (post_send/post_recv and their list "
             "forms, doorbells, completions) and let the rdma/ layer consume "
             "descriptors.")

    def check(self, ctx: RuleContext) -> Iterator[Violation]:
        if ctx.module.startswith("repro/rdma/"):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _CONSUMER_METHODS:
                yield self.violation(
                    ctx, node,
                    f"NIC-consumer method '.{node.func.attr}()' called "
                    "outside the rdma/ layer")
