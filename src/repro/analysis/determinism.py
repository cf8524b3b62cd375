"""Determinism rules (DET family).

Experiments must be byte-identical across runs, interpreter processes
(``PYTHONHASHSEED`` varies!) and serial-vs-parallel sweeps.  That holds only
if every stochastic draw routes through the seeded named streams of
:mod:`repro.sim.rng` and nothing feeding the event schedule depends on hash
order or on the host.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from .core import (
    Rule,
    RuleContext,
    Violation,
    dotted_name,
    iterable_is_hash_ordered,
    register,
)

__all__ = ["UnseededRandom", "WallClock", "SetIteration", "IdKeyed"]

# Module-level entropy sources that bypass the experiment seed.
_WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today", "date.today",
    "os.urandom", "os.getrandom",
    "uuid.uuid1", "uuid.uuid4",
}

_FORBIDDEN_FROM_IMPORTS = {
    ("time", "time"), ("time", "time_ns"),
    ("time", "monotonic"), ("time", "monotonic_ns"),
    ("time", "perf_counter"), ("time", "perf_counter_ns"),
    ("os", "urandom"), ("os", "getrandom"),
    ("uuid", "uuid1"), ("uuid", "uuid4"),
}


@register
class UnseededRandom(Rule):
    """``random.*`` module functions draw from the process-global, unseeded
    Mersenne state; an unseeded ``random.Random()`` seeds from the OS."""

    code = "DET01"
    name = "unseeded-random"
    family = "determinism"
    description = ("Global random-module functions and unseeded "
                   "random.Random() instances bypass the experiment seed.")
    fixit = ("Draw from a named stream: rng = RandomStreams(seed)"
             ".stream('component') (repro.sim.rng), or pass an explicit "
             "seed to random.Random(seed).")

    def check(self, ctx: RuleContext) -> Iterator[Violation]:
        from_random: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name == "Random":
                        from_random.add(alias.asname or alias.name)
                        continue
                    yield self.violation(
                        ctx, node,
                        f"'from random import {alias.name}' pulls in the "
                        "process-global random state")
            elif isinstance(node, ast.Call):
                target = dotted_name(node.func)
                if target == "random.Random" or (
                        isinstance(node.func, ast.Name)
                        and node.func.id in from_random):
                    if not node.args and not node.keywords:
                        yield self.violation(
                            ctx, node,
                            "random.Random() without a seed draws its state "
                            "from the OS")
                elif target is not None and target.startswith("random.") \
                        and target.count(".") == 1:
                    yield self.violation(
                        ctx, node,
                        f"call to global '{target}()' bypasses the seeded "
                        "stream family")


@register
class WallClock(Rule):
    """Host wall-clock and OS entropy reads inside simulation code."""

    code = "DET02"
    name = "wall-clock"
    family = "determinism"
    description = ("time.time()/perf_counter()/datetime.now()/os.urandom() "
                   "make results depend on the host, not the seed.")
    fixit = ("Use simulated time (sim.now) inside models.  Wall-clock "
             "progress reporting in CLI drivers may annotate the line with "
             "'# simlint: disable=wall-clock'.")

    def check(self, ctx: RuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                target = dotted_name(node.func)
                if target in _WALL_CLOCK_CALLS:
                    yield self.violation(
                        ctx, node,
                        f"'{target}()' reads host wall-clock/entropy inside "
                        "simulation code")
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    if (node.module, alias.name) in _FORBIDDEN_FROM_IMPORTS:
                        yield self.violation(
                            ctx, node,
                            f"'from {node.module} import {alias.name}' "
                            "imports a host wall-clock/entropy source")


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
