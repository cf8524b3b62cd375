"""Race rules (RC family).

In a cooperative discrete-event kernel the code between two yields runs
atomically, so a data race can only sit *at* a yield.  Two shapes of
generator code put one there:

* RC01: a local copies ``self.X``, the generator yields, and a value
  computed from the copy is written back to ``self.X`` — every update
  another process made during the wait is lost;
* RC02: a loop iterates ``self.X`` itself (not a snapshot) and yields in
  its body, so it resumes against a container another process may have
  changed — a RuntimeError for dicts, skipped or doubled items for lists.

Both rules flag the shape in every function of the file, whether or not a
second process writes the attribute today: re-reading after the yield, or
iterating a snapshot, costs nothing and stays right when one does.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .core import Rule, RuleContext, Violation, is_name, register

__all__ = ["YieldSpanningRMW", "SharedIterationYield"]

#: Calls whose result is a copy of their one argument.
_SNAPSHOT_WRAPPERS = ("list", "dict", "tuple", "sorted")

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.X`` -> ``X``, else None."""
    if isinstance(node, ast.Attribute) and is_name(node.value, "self"):
        return node.attr
    return None


def _snapshot_of(value: ast.AST) -> Optional[str]:
    """The attribute ``value`` copies: ``self.X``, ``list(self.X)``,
    ``self.X.copy()`` all copy ``X``."""
    attr = _self_attr(value)
    if attr is None and isinstance(value, ast.Call):
        if isinstance(value.func, ast.Name) \
                and value.func.id in _SNAPSHOT_WRAPPERS \
                and len(value.args) == 1:
            attr = _self_attr(value.args[0])
        elif isinstance(value.func, ast.Attribute) \
                and value.func.attr == "copy":
            attr = _self_attr(value.func.value)
    return attr


def _iterated_attr(node: ast.AST) -> Optional[str]:
    """The attribute a loop iterates directly: ``self.X`` or its
    ``items()``/``values()``/``keys()``."""
    attr = _self_attr(node)
    if attr is None and isinstance(node, ast.Call) \
            and isinstance(node.func, ast.Attribute) \
            and node.func.attr in ("items", "values", "keys") \
            and not node.args:
        attr = _self_attr(node.func.value)
    return attr


class _Walk:
    """One pass over a function body in execution order (nested scopes
    excluded), counting the yields passed so far."""

    def __init__(self,
                 func: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> None:
        self.yields = 0
        #: local -> (attribute it copies, line, yields passed at the copy)
        self.copies: Dict[str, Tuple[str, int, int]] = {}
        #: (write-back statement, attribute, stale local, line of the copy)
        self.stale: List[Tuple[ast.stmt, str, str, int]] = []
        #: (loop iterable, attribute, line of the first yield in the body)
        self.loops: List[Tuple[ast.AST, str, int]] = []
        for statement in func.body:
            self._visit(statement)

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, _SCOPES):
            return
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            if node.value is None:
                return
            self._visit(node.value)
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                self._store(target, node.value, node)
            return
        if isinstance(node, ast.For):
            self._visit(node.iter)
            before = self.yields
            for statement in node.body:
                self._visit(statement)
            attr = _iterated_attr(node.iter)
            if attr is not None and self.yields > before:
                first = min(sub.lineno for statement in node.body
                            for sub in ast.walk(statement)
                            if isinstance(sub, (ast.Yield, ast.YieldFrom)))
                self.loops.append((node.iter, attr, first))
            for statement in node.orelse:
                self._visit(statement)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child)
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            self.yields += 1

    def _store(self, target: ast.AST, value: ast.AST, node: ast.stmt) -> None:
        attr = _self_attr(target)
        if attr is not None:
            for sub in ast.walk(value):
                copy = self.copies.get(sub.id) \
                    if isinstance(sub, ast.Name) else None
                if copy is not None and copy[0] == attr \
                        and copy[2] < self.yields:
                    self.stale.append((node, attr, sub.id, copy[1]))
                    return
        elif isinstance(target, ast.Name):
            copied = _snapshot_of(value)
            if copied is None:
                self.copies.pop(target.id, None)
            else:
                self.copies[target.id] = (copied, node.lineno, self.yields)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                if isinstance(element, ast.Name):
                    self.copies.pop(element.id, None)


def _walks(ctx: RuleContext) -> Iterator[_Walk]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield _Walk(node)


@register
class YieldSpanningRMW(Rule):
    """``self.X`` copied before a yield and written back stale after it."""

    code = "RC01"
    name = "yield-spanning-rmw"
    family = "race"
    description = ("A value copied from self.X before a yield and written "
                   "back after it loses every update another process made "
                   "during the wait — the cooperative-kernel form of a "
                   "data race.")
    fixit = ("Re-read the attribute after the yield (compute from fresh "
             "state), or finish the read-modify-write before yielding.")

    def check(self, ctx: RuleContext) -> Iterator[Violation]:
        for walk in _walks(ctx):
            for node, attr, local, line in walk.stale:
                yield self.violation(
                    ctx, node,
                    f"'{local}' copies 'self.{attr}' at line {line}, the "
                    "generator yields, then the stale copy is written back")


@register
class SharedIterationYield(Rule):
    """A loop over ``self.X`` itself that yields in its body."""

    code = "RC02"
    name = "shared-iter-yield"
    family = "race"
    description = ("A loop iterating self.X directly (no snapshot) that "
                   "yields in its body resumes against a container another "
                   "process may have changed meanwhile.")
    fixit = ("Iterate a snapshot — sorted(self.X) or list(self.X) — or "
             "collect the work first and yield after the loop.")

    def check(self, ctx: RuleContext) -> Iterator[Violation]:
        for walk in _walks(ctx):
            for node, attr, yield_line in walk.loops:
                yield self.violation(
                    ctx, node,
                    f"loop iterates 'self.{attr}' directly and yields at "
                    f"line {yield_line}")
