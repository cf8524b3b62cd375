"""The simflow project index: module summaries, call graph, process contexts.

One :class:`ModuleSummary` is extracted per file in a single AST walk.  A
summary holds everything the interprocedural rules need and nothing they
don't (no AST nodes), so the tree of one file can be dropped before the
next is parsed.

:class:`ProjectIndex` aggregates summaries and answers the questions the
RC/WQ1x/KP1x rules ask:

* *symbol table* — ``(module, qualname)`` → :class:`FuncFact` for every
  function and method, with by-name indexes for best-effort resolution;
* *call graph* — call sites resolved module-locally first, then through
  imports, then by unique global name; ``yield from`` edges are kept
  distinct because they are the only plain-call edges that *execute* a
  generator's body;
* *process contexts* — which simulated-process roots (functions registered
  via ``*.process(...)``, plus marker generators) reach each function, and
  whether a root is instantiated more than once (registration inside a
  loop, or at several sites).

Resolution is deliberately conservative: an unresolvable call simply adds
no edge, so the analyses under-approximate reachability rather than
hallucinate it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..core import canonical_module, dotted_name
from ..pragmas import FilePragmas, parse_pragmas

__all__ = [
    "CallSite",
    "RegSite",
    "WriteSink",
    "FuncFact",
    "ModuleSummary",
    "ProjectIndex",
    "summarize_module",
]

#: Yield payloads that mark a generator as a simulation process (mirrors
#: the per-file heuristic in :mod:`repro.analysis.protocol`).
_PROCESS_YIELD_MARKERS = {
    "timeout", "event", "all_of", "any_of", "wait", "run", "when_running",
    "_stall", "_drain",
}

_ADDRESS_HELPERS = ("slot_address", "field_address")
_WRITE_METHODS = ("write", "write_pattern", "dma_write", "modify")
_CONSUMER_METHODS = ("peek_head", "advance_head", "wake_written", "grant")
_MUTATING_METHODS = {
    "append", "add", "pop", "popleft", "appendleft", "update", "clear",
    "extend", "remove", "discard", "insert", "setdefault",
}
_SNAPSHOT_WRAPPERS = {"list", "dict", "tuple", "sorted"}

_BLOCKING_DOTTED = {"time.sleep", "os.system"}
_BLOCKING_PREFIXES = ("subprocess.", "socket.", "requests.", "urllib.")
_BLOCKING_BARE = {"open", "input", "sleep"}


@dataclass(frozen=True, slots=True)
class CallSite:
    """One call expression attributed to the enclosing function."""

    kind: str                      # "name" | "attr"
    name: str                      # callee (function or method name)
    recv: str                      # receiver Name for attr calls ("self", …)
    line: int
    col: int
    yield_from: bool               # consumed via ``yield from``
    #: Per positional argument: "" (untracked), "addr" (a descriptor-address
    #: helper call), or "name:<local>" (a bare name, taint can flow through).
    arg_taints: Tuple[str, ...]


@dataclass(frozen=True, slots=True)
class RegSite:
    """One ``*.process(target(...))`` registration site."""

    kind: str                      # "name" | "attr"
    name: str
    recv: str
    line: int
    multi: bool                    # Registered inside a for/while loop.
    def_line: int                  # Enclosing def line (0 at module level).


@dataclass(frozen=True, slots=True)
class WriteSink:
    """A ``*.write()``-family call (:data:`_WRITE_METHODS`) — a potential
    descriptor poke."""

    method: str
    line: int
    col: int
    names: Tuple[str, ...]         # Bare names appearing in the arguments.
    direct: bool                   # Address helper appears syntactically
                                   # (already caught per-file by WQ02).


@dataclass(slots=True)
class FuncFact:
    """Everything simflow knows about one function or method."""

    qualname: str                  # "f" or "C.m"
    name: str
    cls: str                       # Enclosing class name, "" for functions.
    line: int                      # The def line (pragma anchor).
    is_generator: bool = False
    has_marker: bool = False       # Own kernel-wait yields (per-file rule
                                   # classification already applies).
    params: Tuple[str, ...] = ()
    calls: List[CallSite] = field(default_factory=list)
    #: Locals assigned directly from slot_address()/field_address() calls.
    addr_locals: Set[str] = field(default_factory=set)
    #: Locals assigned from a resolvable call — return-taint flows here.
    call_locals: Dict[str, Tuple[str, str, str]] = field(default_factory=dict)
    write_sinks: List[WriteSink] = field(default_factory=list)
    returns_addr: bool = False     # Returns an address-helper call directly.
    return_names: Set[str] = field(default_factory=set)
    consumer_calls: List[Tuple[str, int, int]] = field(default_factory=list)
    #: self.X mutations: (attr, line, col, kind) with kind in
    #: assign | augassign | setitem | mutcall.
    attr_writes: List[Tuple[str, int, int, str]] = field(default_factory=list)
    #: Yield-spanning read-modify-writes: (attr, local, read_line,
    #: write_line, write_col).
    rmw: List[Tuple[str, str, int, int, int]] = field(default_factory=list)
    #: Direct iteration over self.X with a yield in the loop body:
    #: (attr, line, col, yield_line).
    loop_yields: List[Tuple[str, int, int, int]] = field(default_factory=list)
    #: (line, col, kind, detail) with kind in marker | bare | literal | other.
    yields: List[Tuple[int, int, str, str]] = field(default_factory=list)
    blocking: List[Tuple[int, int, str]] = field(default_factory=list)


@dataclass(slots=True)
class ModuleSummary:
    """The per-file slice of the project index."""

    path: str                      # Path as given to the runner.
    module: str                    # Canonical repro/... path.
    functions: Dict[str, FuncFact] = field(default_factory=dict)
    registrations: List[RegSite] = field(default_factory=list)
    #: Import map: local name -> "pkg.mod" (module) or "pkg.mod:sym".
    imports: Dict[str, str] = field(default_factory=dict)
    classes: Tuple[str, ...] = ()
    pragmas: FilePragmas = field(
        default_factory=lambda: FilePragmas(frozenset(), {}))


def _dotted_of(module: str) -> str:
    """Canonical path -> dotted module (``repro/sim/engine.py`` ->
    ``repro.sim.engine``; a bare ``name.py`` -> ``name``)."""
    trimmed = module[:-3] if module.endswith(".py") else module
    if trimmed.endswith("/__init__"):
        trimmed = trimmed[: -len("/__init__")]
    return trimmed.replace("/", ".")


def _package_of(module: str) -> str:
    dotted = _dotted_of(module)
    return dotted.rsplit(".", 1)[0] if "." in dotted else ""


def _is_addr_helper(func: ast.expr) -> bool:
    if isinstance(func, ast.Name):
        return func.id in _ADDRESS_HELPERS
    if isinstance(func, ast.Attribute):
        return func.attr in _ADDRESS_HELPERS
    return False


def _yield_marker(value: Optional[ast.expr]) -> bool:
    if isinstance(value, ast.Constant) and isinstance(value.value, int) \
            and not isinstance(value.value, bool) and value.value >= 0:
        return True
    return (isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in _PROCESS_YIELD_MARKERS)


def _literal_kind(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Constant):
        value = node.value
        if isinstance(value, bool):
            return "bool"
        if isinstance(value, int):
            return "negative int" if value < 0 else None
        if value is None:
            return "None"
        return type(value).__name__
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub) \
            and isinstance(node.operand, ast.Constant) \
            and isinstance(node.operand.value, (int, float)) \
            and not isinstance(node.operand.value, bool):
        return "negative " + type(node.operand.value).__name__
    if isinstance(node, (ast.List, ast.Tuple, ast.Dict, ast.Set)):
        return "container literal"
    return None


def _blocking_desc(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        if node.func.id in _BLOCKING_BARE:
            return f"'{node.func.id}()'"
        return None
    target = dotted_name(node.func)
    if target is None:
        return None
    if target in _BLOCKING_DOTTED or target.startswith(_BLOCKING_PREFIXES):
        return f"'{target}()'"
    return None


def _self_attr(node: ast.expr) -> Optional[str]:
    """``self.X`` -> ``X``, else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


def _snapshot_attr(value: ast.expr) -> Optional[str]:
    """The self-attr a local snapshots: ``self.X``, ``list(self.X)``,
    ``self.X.copy()`` all snapshot ``X``."""
    attr = _self_attr(value)
    if attr is not None:
        return attr
    if isinstance(value, ast.Call):
        if isinstance(value.func, ast.Name) \
                and value.func.id in _SNAPSHOT_WRAPPERS \
                and len(value.args) == 1:
            return _self_attr(value.args[0])
        if isinstance(value.func, ast.Attribute) \
                and value.func.attr == "copy":
            return _self_attr(value.func.value)
    return None


def _names_in(node: ast.AST) -> Iterator[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id


def _iter_target(node: ast.expr) -> Optional[str]:
    """The self-attr a for-loop iterates *directly* (no snapshot).

    ``for x in self.X`` and ``for x in self.X.items()/values()/keys()``
    observe concurrent mutation; ``sorted(self.X)``/``list(self.X)`` are
    snapshots and deliberately not flagged.
    """
    attr = _self_attr(node)
    if attr is not None:
        return attr
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr in ("items", "values", "keys") \
            and not node.args and not node.keywords:
        return _self_attr(node.func.value)
    return None


class _FuncExtractor:
    """Single ordered walk of one function body (no nested scopes)."""

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef,
                 cls: str) -> None:
        qual = f"{cls}.{func.name}" if cls else func.name
        args = func.args
        params = tuple(
            a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
            if a.arg not in ("self", "cls"))
        self.fact = FuncFact(qualname=qual, name=func.name, cls=cls,
                             line=func.lineno, params=params)
        self._yield_count = 0
        self._loop_depth = 0
        self._globals: Set[str] = set()
        #: local -> (attr, read_line, yield_count at read)
        self._snaps: Dict[str, Tuple[str, int, int]] = {}
        for statement in func.body:
            self._visit(statement)

    # -- dispatch ------------------------------------------------------
    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            return
        handler = getattr(self, "_visit_" + type(node).__name__, None)
        if handler is not None:
            handler(node)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    def _visit_children(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    # -- yields --------------------------------------------------------
    def _visit_Yield(self, node: ast.Yield) -> None:
        fact = self.fact
        fact.is_generator = True
        value = node.value
        if value is not None:
            self._visit(value)
        if value is None:
            fact.yields.append((node.lineno, node.col_offset, "bare", ""))
        elif _yield_marker(value):
            fact.has_marker = True
            fact.yields.append((node.lineno, node.col_offset, "marker", ""))
        else:
            kind = _literal_kind(value)
            if kind is not None:
                fact.yields.append(
                    (node.lineno, node.col_offset, "literal", kind))
            else:
                fact.yields.append(
                    (node.lineno, node.col_offset, "other", ""))
        self._yield_count += 1

    def _visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        self.fact.is_generator = True
        if isinstance(node.value, ast.Call):
            self._record_call(node.value, yield_from=True)
            for arg in node.value.args:
                self._visit(arg)
        else:
            self._visit(node.value)
        self._yield_count += 1

    # -- assignments ---------------------------------------------------
    def _visit_Assign(self, node: ast.Assign) -> None:
        self._visit(node.value)
        for target in node.targets:
            self._record_store(target, node.value, node)

    def _visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._visit(node.value)
            self._record_store(node.target, node.value, node)

    def _visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._visit(node.value)
        attr = _self_attr(node.target)
        if attr is not None:
            self.fact.attr_writes.append(
                (attr, node.lineno, node.col_offset, "augassign"))

    def _record_store(self, target: ast.expr, value: ast.expr,
                      node: ast.stmt) -> None:
        fact = self.fact
        attr = _self_attr(target)
        if attr is not None:
            fact.attr_writes.append(
                (attr, node.lineno, node.col_offset, "assign"))
            # Stale write-back: the value uses a local snapshotted from
            # this same attribute on the other side of a yield.
            for used in sorted(set(_names_in(value))):
                snap = self._snaps.get(used)
                if snap is not None and snap[0] == attr \
                        and snap[2] < self._yield_count:
                    fact.rmw.append(
                        (attr, used, snap[1], node.lineno, node.col_offset))
                    break
            return
        if isinstance(target, ast.Subscript):
            sub_attr = _self_attr(target.value)
            if sub_attr is not None:
                fact.attr_writes.append(
                    (sub_attr, node.lineno, node.col_offset, "setitem"))
            return
        if isinstance(target, ast.Name):
            local = target.id
            snapped = _snapshot_attr(value)
            if snapped is not None:
                self._snaps[local] = (snapped, node.lineno, self._yield_count)
            else:
                self._snaps.pop(local, None)
            if isinstance(value, ast.Call) and _is_addr_helper(value.func):
                fact.addr_locals.add(local)
            elif isinstance(value, ast.Call):
                site = self._call_shape(value)
                if site is not None:
                    fact.call_locals[local] = site
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                if isinstance(element, ast.Name):
                    self._snaps.pop(element.id, None)

    # -- calls ---------------------------------------------------------
    @staticmethod
    def _call_shape(node: ast.Call) -> Optional[Tuple[str, str, str]]:
        """(kind, name, recv) of a call expression, or None."""
        func = node.func
        if isinstance(func, ast.Name):
            return ("name", func.id, "")
        if isinstance(func, ast.Attribute):
            recv = func.value.id if isinstance(func.value, ast.Name) else ""
            return ("attr", func.attr, recv)
        return None

    def _record_call(self, node: ast.Call, yield_from: bool = False) -> None:
        fact = self.fact
        shape = self._call_shape(node)
        blocking = _blocking_desc(node)
        if blocking is not None:
            fact.blocking.append((node.lineno, node.col_offset, blocking))
        if shape is None:
            return
        kind, name, recv = shape
        if kind == "attr" and name in _CONSUMER_METHODS:
            fact.consumer_calls.append((name, node.lineno, node.col_offset))
        if kind == "attr" and name in _WRITE_METHODS:
            direct = any(
                isinstance(sub, ast.Call) and _is_addr_helper(sub.func)
                for arg in list(node.args) + [k.value for k in node.keywords]
                for sub in ast.walk(arg))
            names = tuple(sorted({
                n for arg in list(node.args) + [k.value for k in node.keywords]
                for n in _names_in(arg)}))
            fact.write_sinks.append(
                WriteSink(name, node.lineno, node.col_offset, names, direct))
        if kind == "attr" and name in _MUTATING_METHODS:
            attr = _self_attr(node.func.value)  # type: ignore[union-attr]
            if attr is not None:
                fact.attr_writes.append(
                    (attr, node.lineno, node.col_offset, "mutcall"))
        taints: List[str] = []
        for arg in node.args:
            if isinstance(arg, ast.Call) and _is_addr_helper(arg.func):
                taints.append("addr")
            elif isinstance(arg, ast.Name):
                taints.append("name:" + arg.id)
            else:
                taints.append("")
        fact.calls.append(CallSite(
            kind=kind, name=name, recv=recv, line=node.lineno,
            col=node.col_offset, yield_from=yield_from,
            arg_taints=tuple(taints)))

    def _visit_Call(self, node: ast.Call) -> None:
        self._record_call(node)
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    # -- control flow / misc -------------------------------------------
    def _visit_For(self, node: ast.For) -> None:
        self._visit(node.iter)
        target_attr = _iter_target(node.iter)
        before = self._yield_count
        self._loop_depth += 1
        for statement in node.body:
            self._visit(statement)
        self._loop_depth -= 1
        if target_attr is not None and self._yield_count > before:
            # Locate the first yield line inside the body for the message.
            self.fact.loop_yields.append(
                (target_attr, node.iter.lineno, node.iter.col_offset,
                 self._first_yield_line(node) or node.lineno))
        for statement in node.orelse:
            self._visit(statement)

    def _visit_While(self, node: ast.While) -> None:
        self._visit(node.test)
        self._loop_depth += 1
        for statement in node.body:
            self._visit(statement)
        self._loop_depth -= 1
        for statement in node.orelse:
            self._visit(statement)

    @staticmethod
    def _first_yield_line(node: ast.AST) -> Optional[int]:
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                return sub.lineno
        return None

    def _visit_Return(self, node: ast.Return) -> None:
        value = node.value
        if value is None:
            return
        self._visit(value)
        if isinstance(value, ast.Name):
            self.fact.return_names.add(value.id)
        elif isinstance(value, ast.Call) and _is_addr_helper(value.func):
            self.fact.returns_addr = True

    def _visit_Global(self, node: ast.Global) -> None:
        self._globals.update(node.names)

    @property
    def in_loop(self) -> bool:
        return self._loop_depth > 0


def _extract_imports(tree: ast.Module, module: str) -> Dict[str, str]:
    imports: Dict[str, str] = {}
    package = _package_of(module)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                imports[local] = alias.name if alias.asname \
                    else alias.name.split(".", 1)[0]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".") if package else []
                if node.level - 1 <= len(parts):
                    kept = parts[: len(parts) - (node.level - 1)]
                    base = ".".join(kept + ([node.module]
                                            if node.module else []))
                else:
                    base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}:{alias.name}" if base else alias.name
    return imports


def _registration_sites(tree: ast.Module) -> List[RegSite]:
    """Every ``*.process(...)`` registration in the module, loop-aware."""
    sites: List[RegSite] = []

    def walk(node: ast.AST, in_loop: bool, def_line: int) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for child in ast.iter_child_nodes(node):
                walk(child, in_loop, node.lineno)
            return
        if isinstance(node, (ast.For, ast.While, ast.AsyncFor, ast.ListComp,
                             ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for child in ast.iter_child_nodes(node):
                walk(child, True, def_line)
            return
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "process" and node.args:
            argument = node.args[0]
            shape: Optional[Tuple[str, str, str]] = None
            if isinstance(argument, ast.Call):
                shape = _FuncExtractor._call_shape(argument)
            elif isinstance(argument, ast.Name):
                shape = ("name", argument.id, "")
            elif isinstance(argument, ast.Attribute) \
                    and isinstance(argument.value, ast.Name):
                shape = ("attr", argument.attr, argument.value.id)
            if shape is not None:
                sites.append(RegSite(kind=shape[0], name=shape[1],
                                     recv=shape[2], line=node.lineno,
                                     multi=in_loop, def_line=def_line))
        for child in ast.iter_child_nodes(node):
            walk(child, in_loop, def_line)

    walk(tree, False, 0)
    return sites


def summarize_module(path: str, source: str, tree: ast.Module,
                     module: Optional[str] = None) -> ModuleSummary:
    """Extract the simflow summary for one parsed module."""
    if module is None:
        module = canonical_module(path)
    summary = ModuleSummary(path=path, module=module)
    summary.imports = _extract_imports(tree, module)
    summary.registrations = _registration_sites(tree)
    summary.pragmas = parse_pragmas(source)
    classes: List[str] = []

    def visit_scope(node: ast.AST, cls: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fact = _FuncExtractor(child, cls).fact
                summary.functions[fact.qualname] = fact
                visit_scope(child, cls)      # Nested defs keep class scope.
            elif isinstance(child, ast.ClassDef):
                classes.append(child.name)
                visit_scope(child, child.name)
            elif not isinstance(child, ast.Lambda):
                visit_scope(child, cls)

    visit_scope(tree, "")
    summary.classes = tuple(classes)
    return summary


#: A function key: (canonical module, qualname).
FuncKey = Tuple[str, str]


@dataclass(frozen=True, slots=True)
class Root:
    """One simulated-process root."""

    key: FuncKey
    multi: bool          # May run as more than one concurrent instance.
    registered: bool     # Explicitly registered via *.process(...).
    local_reg: bool      # Registered from the root's own module (the
                         # per-file KP rules already classified it there).


class ProjectIndex:
    """Whole-program view over a set of module summaries."""

    def __init__(self, summaries: List[ModuleSummary]) -> None:
        self.summaries: Dict[str, ModuleSummary] = {}
        for summary in summaries:
            self.summaries[summary.module] = summary
        self.by_path: Dict[str, ModuleSummary] = {
            s.path: s for s in self.summaries.values()}
        self._dotted: Dict[str, str] = {
            _dotted_of(module): module for module in self.summaries}
        self.table: Dict[FuncKey, FuncFact] = {}
        self._module_funcs: Dict[str, List[FuncKey]] = {}
        self._methods: Dict[str, List[FuncKey]] = {}
        for module in sorted(self.summaries):
            for qualname in sorted(self.summaries[module].functions):
                fact = self.summaries[module].functions[qualname]
                key = (module, qualname)
                self.table[key] = fact
                if fact.cls:
                    self._methods.setdefault(fact.name, []).append(key)
                else:
                    self._module_funcs.setdefault(fact.name, []).append(key)
        self.roots: List[Root] = []
        self._contexts: Dict[FuncKey, FrozenSet[int]] = {}
        self._discover_roots()
        self._propagate_contexts()

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve(self, module: str, cls: str, kind: str, name: str,
                recv: str) -> Optional[FuncKey]:
        """Best-effort resolution of a call/registration target."""
        summary = self.summaries.get(module)
        if kind == "attr" and recv in ("self", "cls") and cls:
            key = (module, f"{cls}.{name}")
            if key in self.table:
                return key
            candidates = self._methods.get(name, [])
            return candidates[0] if len(candidates) == 1 else None
        if kind == "attr":
            if summary is not None and recv in summary.imports:
                target = summary.imports[recv]
                if ":" not in target:
                    target_module = self._dotted.get(target)
                    if target_module is not None:
                        key = (target_module, name)
                        if key in self.table:
                            return key
            candidates = self._methods.get(name, [])
            return candidates[0] if len(candidates) == 1 else None
        # kind == "name"
        key = (module, name)
        if key in self.table:
            return key
        if summary is not None and name in summary.imports:
            target = summary.imports[name]
            if ":" in target:
                target_dotted, symbol = target.split(":", 1)
                target_module = self._dotted.get(target_dotted)
                if target_module is not None:
                    key = (target_module, symbol)
                    if key in self.table:
                        return key
                # ``from pkg import mod`` then ``mod.f()`` resolves via
                # the attr path; ``from pkg.mod import f`` lands here.
                nested = self._dotted.get(f"{target_dotted}.{symbol}")
                if nested is not None:
                    return None
        candidates = self._module_funcs.get(name, [])
        return candidates[0] if len(candidates) == 1 else None

    def func(self, key: FuncKey) -> FuncFact:
        return self.table[key]

    # ------------------------------------------------------------------
    # Process roots & contexts
    # ------------------------------------------------------------------
    def _discover_roots(self) -> None:
        sites: Dict[FuncKey, List[Tuple[str, RegSite]]] = {}
        for module in sorted(self.summaries):
            summary = self.summaries[module]
            for site in summary.registrations:
                # A registration site names a function; the class scope is
                # unknown at module level, so try every class when the
                # receiver is self (method registrations resolve uniquely).
                key = self.resolve(module, "", site.kind, site.name, site.recv)
                if key is None and site.recv in ("self", "cls"):
                    candidates = self._methods.get(site.name, [])
                    key = candidates[0] if len(candidates) == 1 else None
                if key is not None and self.table[key].is_generator:
                    sites.setdefault(key, []).append((module, site))
        self.reg_sites: Dict[FuncKey, List[Tuple[str, RegSite]]] = sites
        registered = set()
        for key in sorted(sites):
            entries = sites[key]
            multi = len(entries) > 1 or any(site.multi for _, site in entries)
            local = any(module == key[0] for module, _ in entries)
            self.roots.append(Root(key=key, multi=multi, registered=True,
                                   local_reg=local))
            registered.add(key)
        for key in sorted(self.table):
            fact = self.table[key]
            if key not in registered and fact.is_generator and fact.has_marker:
                self.roots.append(Root(key=key, multi=False, registered=False,
                                       local_reg=True))

    def _propagate_contexts(self) -> None:
        contexts: Dict[FuncKey, Set[int]] = {}
        for index, root in enumerate(self.roots):
            stack = [root.key]
            seen: Set[FuncKey] = set()
            while stack:
                key = stack.pop()
                if key in seen:
                    continue
                seen.add(key)
                contexts.setdefault(key, set()).add(index)
                fact = self.table.get(key)
                if fact is None:
                    continue
                module = key[0]
                for call in fact.calls:
                    target = self.resolve(module, fact.cls, call.kind,
                                          call.name, call.recv)
                    if target is None or target in seen:
                        continue
                    callee = self.table[target]
                    # Calling a generator function only *creates* the
                    # generator; its body runs when consumed (yield from)
                    # or registered (then it is its own root).
                    if callee.is_generator and not call.yield_from:
                        continue
                    stack.append(target)
        self._contexts = {key: frozenset(value)
                          for key, value in contexts.items()}

    def contexts_of(self, key: FuncKey) -> FrozenSet[int]:
        """Indexes (into :attr:`roots`) of process roots reaching ``key``."""
        return self._contexts.get(key, frozenset())

    def is_process_reachable(self, key: FuncKey) -> bool:
        return bool(self._contexts.get(key))

    # ------------------------------------------------------------------
    # Shared-state queries (RC rules)
    # ------------------------------------------------------------------
    def attr_writers(self, cls: str, attr: str) -> List[FuncKey]:
        """Process-reachable methods of ``cls`` writing ``self.<attr>``."""
        found = []
        for key in sorted(self.table):
            fact = self.table[key]
            if fact.cls != cls or not self._contexts.get(key):
                continue
            if any(write[0] == attr for write in fact.attr_writes):
                found.append(key)
        return found

    def concurrent_contexts(self, keys: List[FuncKey],
                            extra: FrozenSet[int]) -> bool:
        """Can the functions in ``keys`` (plus contexts ``extra``) run as
        two or more concurrent process instances?

        True when more than one distinct root is involved, or any involved
        root is multiply instantiated.
        """
        involved: Set[int] = set(extra)
        for key in keys:
            involved.update(self._contexts.get(key, frozenset()))
        if not involved:
            return False
        if len(involved) > 1:
            return True
        (only,) = involved
        return self.roots[only].multi

    # ------------------------------------------------------------------
    # Pragma plumbing for interprocedural findings
    # ------------------------------------------------------------------
    def suppressed(self, path: str, line: int, code: str, name: str,
                   source_path: str = "", source_line: int = 0) -> bool:
        """Pragma check at the sink line *and* the source def line."""
        sink = self.by_path.get(path)
        if sink is not None and sink.pragmas.suppressed(line, code, name):
            return True
        if source_path:
            source = self.by_path.get(source_path)
            if source is not None and source.pragmas.suppressed(
                    source_line, code, name):
                return True
        return False
