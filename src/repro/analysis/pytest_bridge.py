"""pytest integration for simlint.

``assert_tree_clean`` is the one-liner test suites use to pin the live tree
at zero violations — it raises an ``AssertionError`` whose message is the
full human-readable report, so a regression shows exactly what to fix
without re-running anything.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

from .runner import LintReport, format_human, lint_paths

__all__ = ["repro_src_root", "assert_tree_clean"]


def repro_src_root() -> Path:
    """The ``src/repro`` directory this installation is running from."""
    return Path(__file__).resolve().parent.parent


def assert_tree_clean(paths: Optional[Sequence[str]] = None,
                      select: Optional[Sequence[str]] = None,
                      disable: Optional[Sequence[str]] = None) -> LintReport:
    """Fail the calling test if any simlint rule fires on ``paths``.

    ``paths`` defaults to the live ``repro`` package; every rule runs
    over them exactly as the CLI runs it.
    """
    if paths is None:
        paths = [str(repro_src_root())]
    report = lint_paths(paths, select=select, disable=disable)
    if not report.clean:
        raise AssertionError(
            "simlint found violations:\n" + format_human(report))
    return report
