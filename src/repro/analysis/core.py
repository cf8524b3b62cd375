"""The simlint rule model: violations, rule registry, shared AST helpers.

A rule is a singleton object with a stable ``code`` (``DET03`` …), a
human-readable ``name`` (``set-iteration`` …), and a ``check`` method that walks
a parsed module and yields :class:`Violation` records.  Rules are registered
at import time by :func:`register`; the runner iterates the registry in code
order so reports are stable.

Rules never read the filesystem — they see a :class:`RuleContext` built by
the runner, which carries the parsed tree plus the module's *canonical path*
(``repro/sim/engine.py`` style) so allow-lists work identically for the live
tree and for test fixtures that pretend to live at a given path.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Violation",
    "RuleContext",
    "Rule",
    "register",
    "all_rules",
    "get_rule",
    "rule_codes",
    "dotted_name",
]


@dataclass(frozen=True, slots=True)
class Violation:
    """One rule breach at a source location."""

    code: str       # e.g. "DET03"
    name: str       # e.g. "set-iteration"
    path: str       # Path as given to the runner.
    line: int
    col: int
    message: str
    fixit: str = ""

    def key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)


class RuleContext:
    """Everything a rule may look at for one module."""

    __slots__ = ("path", "module", "source", "tree")

    def __init__(self, path: str, module: str, source: str, tree: ast.AST):
        self.path = path
        #: Canonical posix-style path anchored at the package root
        #: (``repro/rdma/nic.py``) — the key rules scope their
        #: allow-lists by.  Falls back to the bare filename when the
        #: file is not under a ``repro`` directory.
        self.module = module
        self.source = source
        self.tree = tree

    def in_package(self, *prefixes: str) -> bool:
        """Is this module under any of the given ``repro/...`` prefixes?"""
        return any(self.module.startswith(prefix) for prefix in prefixes)


class Rule:
    """Base class for simlint rules.

    Subclasses set the class attributes and implement :meth:`check`.
    ``fixit`` is the generic remediation advice attached to every violation
    the rule emits (a per-violation override can be passed to
    :meth:`violation`).
    """

    code: str = ""
    name: str = ""
    family: str = ""        # "determinism" | "kernel-protocol" | "race"
    description: str = ""
    fixit: str = ""

    def check(self, ctx: RuleContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, ctx: RuleContext, node: ast.AST, message: str,
                  fixit: Optional[str] = None) -> Violation:
        return Violation(
            code=self.code,
            name=self.name,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            fixit=self.fixit if fixit is None else fixit,
        )


_REGISTRY: Dict[str, Rule] = {}


def register(rule_class: type) -> type:
    """Class decorator: instantiate and register a rule by its code."""
    rule = rule_class()
    if not rule.code or not rule.name or not rule.family:
        raise ValueError(f"rule {rule_class.__name__} missing code/name/family")
    if rule.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {rule.code}")
    _REGISTRY[rule.code] = rule
    return rule_class


def all_rules() -> List[Rule]:
    """Every registered rule, in stable code order."""
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def rule_codes() -> List[str]:
    return sorted(_REGISTRY)


def get_rule(code_or_name: str) -> Optional[Rule]:
    """Look a rule up by code (``DET03``) or name (``set-iteration``)."""
    rule = _REGISTRY.get(code_or_name.upper())
    if rule is not None:
        return rule
    wanted = code_or_name.lower()
    for rule in _REGISTRY.values():
        if rule.name == wanted:
            return rule
    return None


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def canonical_module(path: str) -> str:
    """Anchor a filesystem path at its last ``repro`` component.

    ``/root/repo/src/repro/sim/engine.py`` → ``repro/sim/engine.py``;
    paths outside a ``repro`` tree collapse to their basename so scoped
    rules simply do not fire on them.
    """
    parts = path.replace("\\", "/").split("/")
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index:])
    return parts[-1]


def iterable_is_hash_ordered(node: ast.AST) -> bool:
    """Does this expression produce a set (arbitrary iteration order)?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset"):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        # Set algebra (a | b, a - b, …) keeps hash order if either side does.
        return (iterable_is_hash_ordered(node.left)
                or iterable_is_hash_ordered(node.right))
    return False


def is_name(node: ast.AST, *names: str) -> bool:
    return isinstance(node, ast.Name) and node.id in names
