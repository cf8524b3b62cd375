"""Kernel-protocol rules (KP family).

The tuple-heap kernel (:mod:`repro.sim.engine`) stays fast and correct only
while model code honours its contract: processes yield Events, combinators
or non-negative bare-delay ints; nobody stashes state on Event objects
(they carry ``__slots__`` and the kernel recycles their callback fields);
hot classes never grow a ``__dict__``; and a process generator never blocks
the host thread — all waiting is simulated.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set

from .core import (
    Rule,
    RuleContext,
    Violation,
    dotted_name,
    iter_own_functions,
    literal_constant_kind,
    own_nodes,
    register,
)

__all__ = ["YieldDiscipline", "EventAttrStash", "SlotsRequired", "BlockingCall"]

#: Method names whose call as a yield payload marks the enclosing generator
#: as a simulation process (vs. a plain data generator).
_PROCESS_YIELD_MARKERS = {
    "timeout", "event", "all_of", "any_of", "wait", "run", "when_running",
    "_stall", "_drain",
}

#: Private Event fields owned by the kernel; assigning them from model code
#: corrupts callback dispatch.
_EVENT_PRIVATE_FIELDS = {
    "_value", "_ok", "_cb1", "_cbs", "_processed",
    "_resume_cb", "_send", "_throw",
}

_ENGINE_MODULE = "repro/sim/engine.py"

_SLOTS_EXEMPT_BASES = {
    "Exception", "BaseException", "Enum", "IntEnum", "IntFlag", "Flag",
    "StrEnum", "Protocol", "ABC", "NamedTuple", "TypedDict",
}

_BLOCKING_DOTTED = {"time.sleep", "os.system"}
_BLOCKING_PREFIXES = ("subprocess.", "socket.", "requests.", "urllib.")
_BLOCKING_BARE = {"open", "input", "sleep"}


def _yield_marker(value: Optional[ast.AST]) -> bool:
    """Does this yield payload mark the generator as a sim process?"""
    if isinstance(value, ast.Constant) and isinstance(value.value, int) \
            and not isinstance(value.value, bool) and value.value >= 0:
        return True
    return (isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in _PROCESS_YIELD_MARKERS)


def _registered_process_names(tree: ast.AST) -> Set[str]:
    """Function names passed (as calls) to ``*.process(...)`` anywhere."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "process" and node.args):
            continue
        argument = node.args[0]
        if isinstance(argument, ast.Call):
            if isinstance(argument.func, ast.Attribute):
                names.add(argument.func.attr)
            elif isinstance(argument.func, ast.Name):
                names.add(argument.func.id)
        elif isinstance(argument, ast.Name):
            names.add(argument.id)
    return names


def _process_generators(tree: ast.AST):
    """Yield ``(func, yields)`` for functions classified as sim processes.

    A generator counts as a process when its name is registered via
    ``sim.process(...)`` in the same module, or any of its own yields is a
    recognisable kernel wait (bare non-negative int constant, or a
    ``*.timeout()/*.event()/*.wait()``-style call).  Plain data generators
    (workload iterators, row producers) show neither and are left alone.
    """
    registered = _registered_process_names(tree)
    for func in iter_own_functions(tree):
        yields: List[ast.Yield] = [
            node for node in own_nodes(func) if isinstance(node, ast.Yield)]
        if not yields:
            continue
        if func.name in registered \
                or any(_yield_marker(node.value) for node in yields):
            yield func, yields


@register
class YieldDiscipline(Rule):
    """Processes may only yield Events, combinators, or bare-delay ints."""

    code = "KP01"
    name = "yield-discipline"
    family = "kernel-protocol"
    description = ("A sim process that yields None, a negative delay, or a "
                   "non-event literal dies with SimulationError at dispatch.")
    fixit = ("Yield an Event (sim.timeout/event/all_of/any_of, another "
             "process) or a non-negative int for the bare-delay fast path.")

    def check(self, ctx: RuleContext) -> Iterator[Violation]:
        for func, yields in _process_generators(ctx.tree):
            for node in yields:
                if node.value is None:
                    yield self.violation(
                        ctx, node,
                        f"bare 'yield' in process {func.name!r} sends None "
                        "to the kernel")
                    continue
                kind = literal_constant_kind(node.value)
                if kind is not None:
                    yield self.violation(
                        ctx, node,
                        f"process {func.name!r} yields a {kind} — not an "
                        "Event or non-negative delay")


@register
class EventAttrStash(Rule):
    """No attribute assignment on Event objects outside the kernel."""

    code = "KP02"
    name = "event-attr"
    family = "kernel-protocol"
    description = ("Events carry __slots__ and the kernel recycles their "
                   "fields; stashing attributes on them (or poking private "
                   "kernel fields) breaks dispatch and the fast path.")
    fixit = ("Keep per-operation state in your own structures (dicts keyed "
             "by a serial, dataclasses) and let Events stay pure signals.")

    def check(self, ctx: RuleContext) -> Iterator[Violation]:
        if ctx.is_module(_ENGINE_MODULE):
            return
        for func in iter_own_functions(ctx.tree):
            event_vars = self._event_locals(func)
            for node in own_nodes(func):
                for target in self._attr_targets(node):
                    receiver = target.value
                    if isinstance(receiver, ast.Name) \
                            and receiver.id in event_vars:
                        yield self.violation(
                            ctx, node,
                            f"attribute {target.attr!r} assigned on Event "
                            f"variable {receiver.id!r}")
                    elif target.attr in _EVENT_PRIVATE_FIELDS:
                        yield self.violation(
                            ctx, node,
                            f"assignment to kernel-private Event field "
                            f"{target.attr!r} outside sim/engine.py")

    @staticmethod
    def _event_locals(func: ast.AST) -> Set[str]:
        """Local names bound directly from a ``*.event()`` factory call."""
        names: Set[str] = set()
        for node in own_nodes(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and isinstance(node.value, ast.Call) \
                    and isinstance(node.value.func, ast.Attribute) \
                    and node.value.func.attr == "event" \
                    and not node.value.args:
                names.add(node.targets[0].id)
        return names

    @staticmethod
    def _attr_targets(node: ast.AST) -> Sequence[ast.Attribute]:
        if isinstance(node, ast.Assign):
            return [t for t in node.targets if isinstance(t, ast.Attribute)]
        if isinstance(node, (ast.AnnAssign, ast.AugAssign)) \
                and isinstance(node.target, ast.Attribute):
            return [node.target]
        return []


@register
class SlotsRequired(Rule):
    """Classes in ``sim/`` and ``rdma/`` must declare ``__slots__``."""

    code = "KP03"
    name = "slots-required"
    family = "kernel-protocol"
    description = ("Hot-path classes without __slots__ grow a __dict__: "
                   "+56 bytes per instance and slower attribute access in "
                   "the kernel's innermost loops.")
    fixit = ("Add __slots__ = (...) to the class, or slots=True to its "
             "@dataclass decorator.  Exception/Enum/Protocol subclasses "
             "are exempt.")

    def check(self, ctx: RuleContext) -> Iterator[Violation]:
        if not ctx.in_package("repro/sim/", "repro/rdma/"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if self._exempt(node) or self._has_slots(node):
                continue
            yield self.violation(
                ctx, node,
                f"class {node.name!r} in a kernel package has no __slots__")

    @staticmethod
    def _exempt(node: ast.ClassDef) -> bool:
        for base in node.bases:
            tail = dotted_name(base)
            if tail is None:
                continue
            tail = tail.rsplit(".", 1)[-1]
            if tail in _SLOTS_EXEMPT_BASES \
                    or tail.endswith(("Error", "Exception", "Warning")):
                return True
        return False

    @staticmethod
    def _has_slots(node: ast.ClassDef) -> bool:
        for statement in node.body:
            targets = statement.targets if isinstance(statement, ast.Assign) \
                else [statement.target] if isinstance(statement, ast.AnnAssign) \
                else []
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Call) \
                    and dotted_name(decorator.func) in ("dataclass",
                                                        "dataclasses.dataclass"):
                for keyword in decorator.keywords:
                    if keyword.arg == "slots" \
                            and isinstance(keyword.value, ast.Constant) \
                            and keyword.value.value is True:
                        return True
        return False


@register
class BlockingCall(Rule):
    """No host-blocking calls inside simulation process generators."""

    code = "KP04"
    name = "blocking-call"
    family = "kernel-protocol"
    description = ("time.sleep()/file I/O inside a process generator stalls "
                   "the whole event loop in real time — all waiting must be "
                   "simulated.")
    fixit = ("Model the delay (yield sim.timeout(d) or a bare int) and do "
             "real I/O outside the simulation, in setup/report code.")

    def check(self, ctx: RuleContext) -> Iterator[Violation]:
        for func, _yields in _process_generators(ctx.tree):
            for node in own_nodes(func):
                if not isinstance(node, ast.Call):
                    continue
                description = self._blocking(node)
                if description is not None:
                    yield self.violation(
                        ctx, node,
                        f"blocking call {description} inside process "
                        f"generator {func.name!r}")

    @staticmethod
    def _blocking(node: ast.Call) -> Optional[str]:
        if isinstance(node.func, ast.Name):
            if node.func.id in _BLOCKING_BARE:
                return f"'{node.func.id}()'"
            return None
        target = dotted_name(node.func)
        if target is None:
            return None
        if target in _BLOCKING_DOTTED \
                or target.startswith(_BLOCKING_PREFIXES):
            return f"'{target}()'"
        return None
