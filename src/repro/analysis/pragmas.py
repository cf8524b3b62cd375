"""``# simlint: disable=…`` pragma parsing.

Two forms, matching the usual linter conventions:

* line pragma — suppresses matching rules for violations reported on that
  physical line::

      for name in set(names):  # simlint: disable=set-iteration

* file pragma — on a line of its own (typically near the top), suppresses
  matching rules for the whole module::

      # simlint: disable-file=blocking-call

Rules can be referenced by code (``DET03``), by name (``set-iteration``), or
with ``all``.  Multiple rules are comma-separated.  References are not
validated: an unknown code or name is kept verbatim and matches nothing.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, Set

__all__ = ["FilePragmas", "parse_pragmas"]

_PRAGMA_RE = re.compile(
    r"#\s*simlint:\s*(?P<kind>disable(?:-file)?)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_,\- ]+)")


def _normalize(token: str) -> str:
    token = token.strip()
    # Codes are upper-case, names lower-case; match case-insensitively.
    return token.upper() if re.fullmatch(r"[A-Za-z]+\d+", token) \
        else token.lower()


class FilePragmas:
    """Parsed suppression state for one module."""

    __slots__ = ("file_disabled", "line_disabled")

    def __init__(self, file_disabled: FrozenSet[str],
                 line_disabled: Dict[int, FrozenSet[str]]):
        self.file_disabled = file_disabled
        self.line_disabled = line_disabled

    def suppressed(self, line: int, code: str, name: str) -> bool:
        """Is a violation of rule (code, name) on ``line`` suppressed?"""
        for tokens in (self.file_disabled, self.line_disabled.get(line)):
            if tokens and ("all" in tokens or code in tokens
                           or name in tokens):
                return True
        return False


def parse_pragmas(source: str) -> FilePragmas:
    file_disabled: Set[str] = set()
    line_disabled: Dict[int, FrozenSet[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(text)
        if match is None:
            continue
        tokens = frozenset(_normalize(token)
                           for token in match.group("rules").split(",")
                           if token.strip())
        if not tokens:
            continue
        if match.group("kind") == "disable-file":
            file_disabled.update(tokens)
        else:
            existing = line_disabled.get(lineno, frozenset())
            line_disabled[lineno] = existing | tokens
    return FilePragmas(frozenset(file_disabled), line_disabled)
