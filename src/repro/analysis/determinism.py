"""Determinism rules (DET family).

Experiments must be byte-identical across runs, interpreter processes
(``PYTHONHASHSEED`` varies!) and serial-vs-parallel sweeps.  An unseeded
draw or a wall-clock read changes results run to run, which the goldens
and the serial-vs-``--jobs`` tests see.  An order that only a hash seed or
the heap layout decides does not move between two runs in one process,
and a few names or objects often land in the same order anyway, so these
two rules catch it where the tests do not.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .core import (
    Rule,
    RuleContext,
    Violation,
    iterable_is_hash_ordered,
    register,
)

__all__ = ["SetIteration", "IdKeyed"]


@register
class SetIteration(Rule):
    """Iterating a set feeds hash order — salted per process for strings —
    into whatever consumes the loop."""

    code = "DET03"
    name = "set-iteration"
    family = "determinism"
    description = ("Iteration over sets (or materializing them with "
                   "list()/tuple()) leaks PYTHONHASHSEED-dependent order.")
    fixit = "Wrap the set in sorted(...) before iterating or materializing."

    def check(self, ctx: RuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if iterable_is_hash_ordered(node.iter):
                    yield self.violation(
                        ctx, node.iter,
                        "for-loop iterates a set in hash order")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    if iterable_is_hash_ordered(gen.iter):
                        yield self.violation(
                            ctx, gen.iter,
                            "comprehension iterates a set in hash order")
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id in ("list", "tuple") \
                    and len(node.args) == 1 \
                    and iterable_is_hash_ordered(node.args[0]):
                yield self.violation(
                    ctx, node,
                    f"{node.func.id}() over a set materializes hash order")


@register
class IdKeyed(Rule):
    """``id()``-keyed containers vary with allocator layout run to run."""

    code = "DET04"
    name = "id-keyed"
    family = "determinism"
    description = ("Dict/set entries keyed by id(obj) depend on heap "
                   "addresses; any iteration over them is nondeterministic.")
    fixit = ("Key by a stable identity (name, index, monotonic serial) "
             "instead of id().")

    def check(self, ctx: RuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Subscript) \
                    and self._is_id_call(node.slice):
                yield self.violation(
                    ctx, node, "container subscripted with id(...)")
            elif isinstance(node, ast.DictComp) \
                    and self._is_id_call(node.key):
                yield self.violation(
                    ctx, node, "dict comprehension keyed by id(...)")
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("get", "setdefault", "pop") \
                    and node.args and self._is_id_call(node.args[0]):
                yield self.violation(
                    ctx, node,
                    f"'.{node.func.attr}()' looked up with an id(...) key")

    @staticmethod
    def _is_id_call(node: ast.AST) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id")
