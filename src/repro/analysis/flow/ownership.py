"""Interprocedural WQE-ownership rules (WQ1x family).

The per-file WQ01–WQ03 rules are syntactic: they catch a ``.grant()`` or a
``memory.write(slot_address(...), ...)`` only when source and sink sit in
the same expression.  One level of indirection — an address computed in a
caller and handed to a helper, or a private driver routine exported to
core code — made them blind.  These rules close that hole with the project
index:

* **WQ11** propagates *descriptor-address taint* through locals, call
  arguments and return values: ``a = q.slot_address(i)`` taints ``a``;
  ``helper(a)`` taints the helper's parameter; ``return q.slot_address(i)``
  taints the caller's binding.  A tainted name reaching a
  ``write()/dma_write()`` outside the NIC/driver is a descriptor poke, no
  matter how many calls it crossed.

* **WQ12** guards the layer boundary itself: a private (``_``-prefixed)
  function or method of the ``repro/rdma/`` layer that performs consumer
  operations (``peek_head``/``advance_head``/``wake_written``/``grant``) may
  not be called from outside the layer.  The sanctioned surface is the
  public verbs/driver API only.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Set, Tuple

from ..core import FlowRule, Violation, register
from .index import FuncKey, ProjectIndex

__all__ = ["InterprocDescriptorPoke", "RdmaInternalLeak"]

#: Modules allowed to write descriptor ring bytes (mirrors WQ02).
_POKE_ALLOWED = ("repro/rdma/driver.py", "repro/rdma/nic.py")

_RDMA_PREFIX = "repro/rdma/"


def _propagate_taint(project: ProjectIndex) -> Tuple[
        Dict[FuncKey, Dict[str, FuncKey]], Set[FuncKey]]:
    """Fixpoint taint propagation.

    Returns ``(tainted, returns_tainted)`` where ``tainted[key]`` maps each
    tainted local/param name in ``key`` to the function the address
    *originated* in (the pragma anchor and the "via" of the message).
    """
    tainted: Dict[FuncKey, Dict[str, FuncKey]] = {}
    returns_tainted: Dict[FuncKey, Optional[FuncKey]] = {}
    for key in sorted(project.table):
        fact = project.table[key]
        if fact.addr_locals:
            tainted[key] = {name: key for name in sorted(fact.addr_locals)}
        if fact.returns_addr:
            returns_tainted[key] = key

    for _round in range(len(project.table) + 2):
        changed = False
        for key in sorted(project.table):
            fact = project.table[key]
            own = tainted.get(key, {})
            # Returns: a tainted name returned taints the function's value.
            if key not in returns_tainted:
                for name in sorted(fact.return_names):
                    if name in own:
                        returns_tainted[key] = own[name]
                        changed = True
                        break
            # Locals bound from calls whose return value is tainted.
            for local in sorted(fact.call_locals):
                if local in own:
                    continue
                kind, name, recv = fact.call_locals[local]
                target = project.resolve(key[0], fact.cls, kind, name, recv)
                if target is not None and returns_tainted.get(target):
                    ret_origin = returns_tainted[target]
                    assert ret_origin is not None
                    tainted.setdefault(key, {})[local] = ret_origin
                    own = tainted[key]
                    changed = True
            # Arguments: taint flows into callee parameters.
            for call in fact.calls:
                target = project.resolve(key[0], fact.cls, call.kind,
                                         call.name, call.recv)
                if target is None:
                    continue
                callee = project.table[target]
                for position, taint in enumerate(call.arg_taints):
                    if position >= len(callee.params):
                        break
                    arg_origin: Optional[FuncKey] = None
                    if taint == "addr":
                        arg_origin = key
                    elif taint.startswith("name:"):
                        arg_origin = own.get(taint[5:])
                    if arg_origin is None:
                        continue
                    param = callee.params[position]
                    if param not in tainted.get(target, {}):
                        tainted.setdefault(target, {})[param] = arg_origin
                        changed = True
        if not changed:
            break
    return tainted, {key for key, value in returns_tainted.items() if value}


@register
class InterprocDescriptorPoke(FlowRule):
    """Descriptor-address taint reaching a ring write through calls."""

    code = "WQ11"
    name = "descriptor-taint"
    family = "wqe-ownership"
    description = ("A slot_address()/field_address() result that crosses a "
                   "call or return boundary and lands in write()/dma_write() "
                   "outside the NIC/driver rewrites NIC-owned descriptors — "
                   "the whole-program form of WQ02.")
    fixit = ("Descriptor addresses may travel (SGE targets for metadata "
             "SENDs); the *write* must stay in the rdma layer.  Route the "
             "mutation through post/grant_send or a simulated SEND/WRITE.")

    def check_project(self, project: ProjectIndex) -> Iterator[Violation]:
        tainted, _returns = _propagate_taint(project)
        for key in sorted(tainted):
            fact = project.table[key]
            module = key[0]
            if module in _POKE_ALLOWED:
                continue
            names = tainted[key]
            for sink in fact.write_sinks:
                if sink.direct:
                    continue        # Already reported per-file by WQ02.
                hits = [name for name in sink.names if name in names]
                if not hits:
                    continue
                origin = names[hits[0]]
                origin_fact = project.table[origin]
                origin_summary = project.summaries[origin[0]]
                summary = project.summaries[module]
                via = "" if origin == key else \
                    f" (address originates in {origin[1]}() " \
                    f"of {origin_summary.module})"
                yield Violation(
                    code=self.code, name=self.name, path=summary.path,
                    line=sink.line, col=sink.col,
                    message=(
                        f"'{sink.method}()' writes at descriptor address "
                        f"'{hits[0]}' that crossed a call boundary{via} — "
                        "ring bytes may only change under the NIC/driver"),
                    fixit=self.fixit,
                    source_path=origin_summary.path,
                    source_line=origin_fact.line)


@register
class RdmaInternalLeak(FlowRule):
    """Private rdma-layer descriptor consumers called from outside."""

    code = "WQ12"
    name = "rdma-internal-leak"
    family = "wqe-ownership"
    description = ("Calling a _private rdma-layer function that consumes "
                   "descriptors (peek_head/advance_head/wake_written/grant) "
                   "from core/backends simulates NIC behaviour in software "
                   "through one level of indirection — the whole-program "
                   "form of WQ01/WQ03.")
    fixit = ("Stay on the public verbs surface (post_send/post_recv and "
             "their list forms post_send_list/post_recv_list, doorbells, "
             "grant_send, completions); private rdma internals "
             "are the NIC's own machinery.")

    def check_project(self, project: ProjectIndex) -> Iterator[Violation]:
        # A private rdma function is a consumer if it (or anything it calls
        # inside the layer) performs consumer operations.
        consumers = self._consumer_closure(project)
        for key in sorted(project.table):
            fact = project.table[key]
            module = key[0]
            if module.startswith(_RDMA_PREFIX):
                continue
            for call in fact.calls:
                target = project.resolve(module, fact.cls, call.kind,
                                         call.name, call.recv)
                if target is None or not target[0].startswith(_RDMA_PREFIX):
                    continue
                callee = project.table[target]
                if not callee.name.startswith("_"):
                    continue        # Public API is the sanctioned surface.
                if target not in consumers:
                    continue
                summary = project.summaries[module]
                target_summary = project.summaries[target[0]]
                yield Violation(
                    code=self.code, name=self.name, path=summary.path,
                    line=call.line, col=call.col,
                    message=(
                        f"call to private rdma internal "
                        f"'{callee.qualname}()' ({target_summary.module}) "
                        "which consumes descriptors — outside the rdma/ "
                        "layer"),
                    fixit=self.fixit,
                    source_path=target_summary.path,
                    source_line=callee.line)

    @staticmethod
    def _consumer_closure(project: ProjectIndex) -> Set[FuncKey]:
        direct: Set[FuncKey] = {
            key for key in project.table
            if key[0].startswith(_RDMA_PREFIX)
            and project.table[key].consumer_calls}
        closure = set(direct)
        # Reverse edges within the layer: a private wrapper of a consumer
        # is itself a consumer.
        for _round in range(len(project.table) + 2):
            grown = False
            for key in sorted(project.table):
                if key in closure or not key[0].startswith(_RDMA_PREFIX):
                    continue
                fact = project.table[key]
                for call in fact.calls:
                    target = project.resolve(key[0], fact.cls, call.kind,
                                             call.name, call.recv)
                    if target is not None and target in closure:
                        closure.add(key)
                        grown = True
                        break
            if not grown:
                break
        return closure
