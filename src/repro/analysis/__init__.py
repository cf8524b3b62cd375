"""simlint — AST-based invariant checking for the simulation codebase.

Some conventions the simulation rests on are invisible to the type checker,
too structural for generic linters, and never fail a test when broken on
their own.  simlint keeps only the rules that catch such a hazard first
(the measured table is in ``docs/INTERNALS.md`` §9):

* **determinism** — no iteration over hash-ordered sets or ``id()``-keyed
  containers;
* **kernel protocol** — nothing in the package blocks the host thread
  the whole simulation runs on;
* **races** — no generator writes back a copy of ``self.X`` taken before a
  yield, or yields inside a loop over ``self.X`` itself.

Each rule sees one file at a time.  ``scripts/simlint.py`` is the CLI;
``tests/analysis`` pins every rule with firing and quiet fixtures and
asserts the live tree stays clean.

Deliberate exceptions are annotated in source::

    for name in set(names):  # simlint: disable=set-iteration

See :mod:`repro.analysis.core` for the rule model and
:mod:`repro.analysis.runner` for the file-walking front end.
"""

from .core import (
    Rule,
    RuleContext,
    Violation,
    all_rules,
    get_rule,
    rule_codes,
)
from .runner import (
    LintReport,
    format_human,
    format_json,
    lint_paths,
    lint_source,
)

# Importing the rule modules registers their rules.
from . import determinism, protocol, races  # noqa: F401  isort: skip

__all__ = [
    "Rule",
    "RuleContext",
    "Violation",
    "all_rules",
    "get_rule",
    "rule_codes",
    "LintReport",
    "lint_paths",
    "lint_source",
    "format_human",
    "format_json",
]
