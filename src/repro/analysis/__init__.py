"""simlint — AST-based invariant checking for the simulation codebase.

The kernel fast path and the backend registry rest on conventions that are
invisible to the type checker and too structural for generic linters:

* **determinism** — all randomness routes through seeded
  :mod:`repro.sim.rng` streams; no wall-clock reads; no iteration over
  hash-ordered containers feeding event scheduling;
* **kernel protocol** — simulation processes only ``yield`` events,
  combinators, or non-negative bare-delay ints; no attribute stashing on
  :class:`~repro.sim.engine.Event` objects; ``__slots__`` on every class in
  ``sim/`` and ``rdma/``; no blocking calls inside process generators;
* **WQE ownership** — once a descriptor's ownership bit belongs to the NIC,
  only :mod:`repro.rdma.nic` and the driver's patching API may touch it, so
  remote work-request manipulation cannot be short-circuited from
  core/backends.

On top of the per-file rules, :mod:`repro.analysis.flow` (simflow) adds
whole-program analyses — static race detection (RC0x), interprocedural
ownership taint (WQ1x) and yield-protocol propagation (KP1x) — backed by a
project index built from one summary per file.

``scripts/simlint.py`` is the CLI; ``tests/analysis`` pins every rule with
positive/negative fixtures and asserts the live tree stays clean.

Deliberate exceptions are annotated in source::

    started = time.time()  # simlint: disable=wall-clock

See :mod:`repro.analysis.core` for the rule model and
:mod:`repro.analysis.runner` for the file-walking front end.
"""

from .core import (
    FlowRule,
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
    lint_sources,
)

# Importing the rule modules registers their rules (flow registers the
# interprocedural RC/WQ1x/KP1x families).
from . import determinism, ownership, protocol  # noqa: F401  isort: skip
from . import flow  # noqa: F401  isort: skip

__all__ = [
    "FlowRule",
    "Rule",
    "RuleContext",
    "Violation",
    "all_rules",
    "get_rule",
    "rule_codes",
    "LintReport",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "format_human",
    "format_json",
]
