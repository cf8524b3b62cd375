#!/usr/bin/env python3
"""simlint CLI — AST invariant checking for the simulation codebase.

Usage::

    python scripts/simlint.py src tests              # lint the live tree
    python scripts/simlint.py src --json             # machine-readable
    python scripts/simlint.py --list-rules           # what is enforced
    python scripts/simlint.py src --select DET01,DET03
    python scripts/simlint.py src --disable slots-required

Exit status: 0 clean, 1 violations found, 2 usage error.

Per-file rules see one module; the simflow rules (RC/WQ1x/KP1x) see the
whole program — cross-file findings print a ``source:`` line pointing at
the function that causes them.  Suppress deliberate exceptions in source
with ``# simlint: disable=RULE`` (line) or ``# simlint: disable-file=RULE``
(module); for interprocedural findings the pragma works on the flagged
line *or* on the ``def`` line of the source function.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# Runnable from a source checkout without installing the package.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.analysis import (  # noqa: E402
    all_rules,
    format_human,
    format_json,
    lint_paths,
)


def _split_codes(raw: list) -> list:
    codes = []
    for chunk in raw:
        codes.extend(token.strip() for token in chunk.split(",")
                     if token.strip())
    return codes


def _list_rules() -> None:
    current_family = None
    for rule in sorted(all_rules(), key=lambda r: (r.family, r.code)):
        if rule.family != current_family:
            current_family = rule.family
            print(f"\n{current_family}")
            print("-" * len(current_family))
        print(f"  {rule.code} [{rule.name}]")
        print(f"      {rule.description}")
        if rule.fixit:
            print(f"      fix: {rule.fixit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="simlint", description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint")
    parser.add_argument("--json", action="store_true",
                        help="print the report as JSON")
    parser.add_argument("--select", action="append", default=[],
                        metavar="RULES",
                        help="only run these rules (codes or names, "
                             "comma-separated; repeatable)")
    parser.add_argument("--disable", action="append", default=[],
                        metavar="RULES",
                        help="skip these rules (codes or names, "
                             "comma-separated; repeatable)")
    parser.add_argument("--list-rules", action="store_true",
                        help="describe every registered rule and exit")
    parser.add_argument("--no-fixits", action="store_true",
                        help="omit fix suggestions from text output")
    args = parser.parse_args(argv)

    if args.list_rules:
        _list_rules()
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("simlint: no paths given (try 'src/repro')", file=sys.stderr)
        return 2
    for path in args.paths:
        if not Path(path).exists():
            print(f"simlint: no such path: {path}", file=sys.stderr)
            return 2

    try:
        report = lint_paths(args.paths,
                            select=_split_codes(args.select) or None,
                            disable=_split_codes(args.disable) or None)
    except ValueError as exc:
        print(f"simlint: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(format_json(report))
    else:
        print(format_human(report, verbose_fixits=not args.no_fixits))
    return 1 if report.violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
