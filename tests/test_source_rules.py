"""Five source shapes that ``src/repro`` and ``tests`` must not contain:
DET03 iteration over a set (hash order is salted per process), DET04 an
``id()``-keyed container (heap order), KP04 a blocking call in the package
(it all runs on the kernel's one host thread), RC01 a copy of ``self.X``
written back after a yield, RC02 a yield inside a loop over ``self.X``.
docs/INTERNALS.md §9 has each one's hazard and the injections only it caught.
"""

from __future__ import annotations

import ast
from pathlib import Path
from textwrap import dedent
from typing import Dict, List, Optional, Set, Tuple, Union

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "repro"

_SET_ALGEBRA = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
_BLOCKING = {"open", "input", "sleep", "time.sleep", "os.system"}
_BLOCKING_MODULES = ("subprocess.", "socket.", "requests.", "urllib.")
_SNAPSHOTS = ("list", "dict", "tuple", "sorted")
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _calls(node: ast.AST, *names: str) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in names)


def _hash_ordered(node: ast.AST) -> bool:
    """Does this expression produce a set (either side of set algebra)?"""
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_ALGEBRA):
        return _hash_ordered(node.left) or _hash_ordered(node.right)
    return (isinstance(node, (ast.Set, ast.SetComp))
            or _calls(node, "set", "frozenset"))


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else None


def _self_attr(node: ast.AST, *methods: str) -> Optional[str]:
    """``X`` for ``self.X``, or for ``self.X.m(...)`` with ``m`` in ``methods``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr in methods:
        node = node.func.value
    if isinstance(node, ast.Attribute) and _dotted(node.value) == "self":
        return node.attr
    return None


class _Walk:
    """One pass over a function body in execution order (nested scopes
    excluded), counting the yields passed so far."""

    def __init__(self, func: Union[ast.FunctionDef, ast.AsyncFunctionDef]):
        self.yields = 0
        #: local -> (attribute it copies, yields passed at the copy)
        self.copies: Dict[str, Tuple[str, int]] = {}
        self.hits: List[Tuple[int, str]] = []
        for statement in func.body:
            self._visit(statement)

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, _SCOPES):
            return
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            if node.value is not None:
                self._visit(node.value)
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    self._store(target, node.value, node.lineno)
            return
        if isinstance(node, ast.For):
            self._visit(node.iter)
            before = self.yields
            for statement in node.body:
                self._visit(statement)
            if self.yields > before and not getattr(node.iter, "args", ()) \
                    and _self_attr(node.iter, "items", "values", "keys"):
                self.hits.append((node.iter.lineno, "RC02"))
            for statement in node.orelse:
                self._visit(statement)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child)
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            self.yields += 1

    def _store(self, target: ast.AST, value: ast.AST, line: int) -> None:
        attr = _self_attr(target)
        if attr is not None:
            stale = [(attr, passed) for passed in range(self.yields)]
            if any(self.copies.get(getattr(sub, "id", "")) in stale
                   for sub in ast.walk(value)):
                self.hits.append((line, "RC01"))
        elif isinstance(target, ast.Name):
            if _calls(value, *_SNAPSHOTS) and len(value.args) == 1:
                copied = _self_attr(value.args[0])
            else:
                copied = _self_attr(value, "copy")
            if copied is None:
                self.copies.pop(target.id, None)
            else:
                self.copies[target.id] = (copied, self.yields)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.copies.pop(getattr(element, "id", ""), None)


def shapes(source: Union[str, bytes], in_package: bool) -> List[Tuple[int, str]]:
    """Every (line, code) at which one module's source has a shape; KP04
    only when the module is part of the ``repro`` package."""
    found: Set[Tuple[int, str]] = set()
    for node in ast.walk(ast.parse(source)):
        iterated: List[ast.expr] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iterated = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iterated = [gen.iter for gen in node.generators]
            if isinstance(node, ast.DictComp) and _calls(node.key, "id"):
                found.add((node.lineno, "DET04"))
        elif isinstance(node, ast.Subscript) and _calls(node.slice, "id"):
            found.add((node.lineno, "DET04"))
        elif isinstance(node, ast.Call):
            if len(node.args) == 1 and _calls(node, "list", "tuple") \
                    and _hash_ordered(node.args[0]):
                found.add((node.lineno, "DET03"))
            if isinstance(node.func, ast.Attribute) and node.args \
                    and node.func.attr in ("get", "setdefault", "pop") \
                    and _calls(node.args[0], "id"):
                found.add((node.lineno, "DET04"))
            name = _dotted(node.func)
            if in_package and name is not None and (
                    name in _BLOCKING or name.startswith(_BLOCKING_MODULES)):
                found.add((node.lineno, "KP04"))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.update(_Walk(node).hits)
        found.update((expr.lineno, "DET03") for expr in iterated
                     if _hash_ordered(expr))
    return sorted(found)


def test_live_tree_has_none_of_the_shapes():
    files = {path: root is SRC for root in (SRC, TESTS)
             for path in sorted(root.rglob("*.py"))}
    assert len(files) > 150 and SRC / "sim" / "engine.py" in files
    hits = [f"{path.relative_to(TESTS.parent)}:{line}: {code}"
            for path, in_package in files.items()
            for line, code in shapes(path.read_bytes(), in_package)]
    assert hits == []


#: Fixtures checked as package code. A line that must be reported ends in
#: ``# CODE``; no other line may be, and only ``*_is_clean`` reports none.
FIXTURES = {
    "for_over_set_literal": "for item in {1, 2, 3}: print(item)  # DET03",
    "for_over_set_call": "for size in set(rows): print(size)  # DET03",
    "comprehension_over_set": "firsts = [r for r in {r for r in rows}]  # DET03",
    "list_materializes_set": """
        merged = list(frozenset(extra) | set(rows))  # DET03
        pair = tuple({1, 2})  # DET03
        """,
    "sorted_set_is_clean": "for size in sorted({r for r in rows}): print(size)",
    "plain_list_iteration_is_clean": "both = [r for r in rows], len(set(rows)), list(rows)",
    "subscript_with_id": "table[id(obj)] = obj  # DET04",
    "dictcomp_keyed_by_id": "by_id = {id(o): o for o in objs}  # DET04",
    "get_with_id_key": "both = table.get(id(obj)), table.pop(id(obj))  # DET04",
    "stable_key_is_clean": "both = {o.name: o for o in objs}, table.get(obj.name), id(obj)",
    "time_sleep_in_process": """
        def loop(sim):
            yield sim.timeout(10)
            time.sleep(1)  # KP04
        """,
    "open_in_process": """
        def loop(sim, path):
            yield sim.timeout(10)
            return open(path).read()  # KP04
        """,
    "subprocess_in_process": """
        def loop(sim):
            yield sim.timeout(10)
            subprocess.run(["ls"])  # KP04
            os.system("ls")  # KP04
        """,
    "blocking_helper_outside_a_process": "def settle(): time.sleep(0)  # KP04",
    "blocking_call_counts_only_in_the_package": "open(path, 'w').write(rows)  # KP04",
    "simulated_wait_is_clean": """
        def loop(sim, store):
            yield sim.timeout(10)
            yield 100
            store.open(store.sleep)
        """,
    "rc01_lost_update_detected": """
        def worker(self, sim):
            count = self.pending
            yield sim.timeout(5)
            self.pending = count + 1  # RC01
        """,
    "rc01_snapshot_through_a_copy_is_detected": """
        def refill(self, sim):
            jobs = list(self.jobs)
            seen = self.seen.copy()
            yield sim.timeout(1)
            self.jobs = jobs + ["more"]  # RC01
            self.seen = seen | {1}  # RC01
        """,
    "rc01_reread_after_yield_is_clean": """
        def worker(self, sim):
            count = self.pending
            yield sim.timeout(5)
            self.pending = self.pending + 1
        """,
    "rc01_no_yield_between_is_clean": """
        def worker(self, sim):
            yield sim.timeout(5)
            count = self.pending
            self.pending = count + 1
        """,
    "rc02_shared_iteration_detected": """
        def drainer(self, sim):
            for job in self.jobs.values():  # RC02
                yield sim.timeout(1)
            for job in self.queue:  # RC02
                yield from job.run(sim)
        """,
    "rc02_snapshot_iteration_is_clean": """
        def drainer(self, sim):
            for job in list(self.jobs.values()):
                yield sim.timeout(1)
        """,
    "rc02_loop_without_a_yield_is_clean": """
        def drainer(self, sim):
            for job in self.jobs:
                job.run()
            yield sim.timeout(1)
        """,
}


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture(name):
    source = dedent(FIXTURES[name])
    marked = [(number, line.rsplit("# ", 1)[1])
              for number, line in enumerate(source.splitlines(), start=1)
              if "  # " in line]
    assert bool(marked) != name.endswith("_is_clean")
    assert shapes(source, in_package=True) == marked
    # Tests may do real I/O; every other shape counts everywhere.
    assert shapes(source, in_package=False) == [
        hit for hit in marked if hit[1] != "KP04"]
