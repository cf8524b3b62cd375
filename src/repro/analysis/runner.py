"""The simlint front end: file walking, rule dispatch, report formatting.

``lint_source`` checks one in-memory module (what the fixture tests use);
``lint_paths`` walks the filesystem and is what the CLI calls.  Every rule
sees one file at a time, and files are read and analyzed serially, once
per run.

Both honour ``# simlint:`` pragmas and return violations sorted by
(path, line, col, code) so output is stable and diffable.
"""

from __future__ import annotations

import ast
import io
import json
import tokenize
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set

from .core import (
    Rule,
    RuleContext,
    Violation,
    all_rules,
    canonical_module,
    get_rule,
)
from .pragmas import parse_pragmas

__all__ = [
    "LintReport",
    "lint_source",
    "lint_paths",
    "format_human",
    "format_json",
]

#: Rule code used for files that fail to parse.
PARSE_ERROR_CODE = "E000"


class LintReport:
    """Violations plus bookkeeping for a whole run."""

    __slots__ = ("violations", "files_checked")

    def __init__(self, violations: List[Violation], files_checked: int):
        self.violations = violations
        self.files_checked = files_checked

    @property
    def clean(self) -> bool:
        return not self.violations


def _select_rules(select: Optional[Sequence[str]],
                  disable: Optional[Sequence[str]]) -> List[Rule]:
    rules = all_rules()
    if select:
        wanted = _resolve_codes(select)
        rules = [rule for rule in rules if rule.code in wanted]
    if disable:
        dropped = _resolve_codes(disable)
        rules = [rule for rule in rules if rule.code not in dropped]
    return rules


def _resolve_codes(tokens: Sequence[str]) -> Set[str]:
    codes: Set[str] = set()
    for token in tokens:
        rule = get_rule(token)
        if rule is None:
            raise ValueError(f"unknown simlint rule {token!r}")
        codes.add(rule.code)
    return codes


def lint_source(source: str, path: str = "<string>",
                module: Optional[str] = None,
                rules: Optional[Sequence[Rule]] = None) -> List[Violation]:
    """Lint one module given as text.

    ``module`` overrides the canonical path used for rule scoping — fixture
    tests pass e.g. ``repro/core/evil.py`` to exercise allow-lists without
    touching the filesystem.
    """
    if module is None:
        module = canonical_module(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [_parse_error(path, f"cannot parse: {exc.msg}",
                             exc.lineno or 1, (exc.offset or 1) - 1)]
    except ValueError as exc:  # Older Pythons: NUL bytes in the source.
        return [_parse_error(path, f"cannot parse: {exc}")]
    ctx = RuleContext(path=path, module=module, source=source, tree=tree)
    pragmas = parse_pragmas(source)
    found: List[Violation] = []
    for rule in (all_rules() if rules is None else rules):
        for violation in rule.check(ctx):
            if not pragmas.suppressed(violation.line, violation.code,
                                      violation.name):
                found.append(violation)
    found.sort(key=Violation.key)
    return found


def _parse_error(path: str, message: str, line: int = 1,
                 col: int = 0) -> Violation:
    return Violation(code=PARSE_ERROR_CODE, name="parse-error", path=path,
                     line=line, col=col, message=message)


def _python_files(paths: Iterable[str]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    # De-duplicate while keeping order (a file given twice counts once).
    seen: Set[Path] = set()
    unique: List[Path] = []
    for path in files:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def _decode(raw: bytes) -> str:
    """Source text as the interpreter reads it: BOM or PEP 263 coding
    cookie, else UTF-8."""
    encoding, _ = tokenize.detect_encoding(io.BytesIO(raw).readline)
    return raw.decode(encoding)


def lint_paths(paths: Iterable[str],
               select: Optional[Sequence[str]] = None,
               disable: Optional[Sequence[str]] = None) -> LintReport:
    """Lint files and directory trees; directories are walked recursively.

    A file that cannot be decoded is an ``E000`` at its own path, like a
    syntax error; the other files are still linted.
    """
    rules = _select_rules(select, disable)
    files = _python_files(paths)
    violations: List[Violation] = []
    for path in files:
        try:
            source = _decode(path.read_bytes())
        except (SyntaxError, UnicodeDecodeError) as exc:
            violations.append(_parse_error(str(path), f"cannot decode: {exc}"))
            continue
        violations.extend(lint_source(source, str(path), rules=rules))
    violations.sort(key=Violation.key)
    return LintReport(violations, files_checked=len(files))


def format_human(report: LintReport, verbose_fixits: bool = True) -> str:
    """ruff/gcc-style ``path:line:col: CODE[name] message`` lines."""
    lines: List[str] = []
    for violation in report.violations:
        lines.append(
            f"{violation.path}:{violation.line}:{violation.col + 1}: "
            f"{violation.code}[{violation.name}] {violation.message}")
        if verbose_fixits and violation.fixit:
            lines.append(f"    fix: {violation.fixit}")
    tally = len(report.violations)
    lines.append(
        f"simlint: {report.files_checked} file(s) checked, "
        + (f"{tally} violation(s)" if tally else "clean"))
    return "\n".join(lines)


def format_json(report: LintReport) -> str:
    payload = {
        "files_checked": report.files_checked,
        "violation_count": len(report.violations),
        "violations": [
            {
                "code": violation.code,
                "name": violation.name,
                "path": violation.path,
                "line": violation.line,
                "col": violation.col,
                "message": violation.message,
                "fixit": violation.fixit,
            }
            for violation in report.violations
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
