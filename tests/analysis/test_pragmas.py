"""Pragma (``# simlint: disable=...``) suppression tests."""

from textwrap import dedent

from repro.analysis import lint_source
from repro.analysis.pragmas import parse_pragmas


def codes(source: str, module: str = "repro/core/fixture.py"):
    return [v.code for v in lint_source(dedent(source), module=module)]


class TestLinePragmas:
    def test_line_pragma_by_name(self):
        assert codes("""
            def walk(rows):
                return list(set(rows))  # simlint: disable=set-iteration
            """) == []

    def test_line_pragma_by_code(self):
        assert codes("""
            def walk(rows):
                return list(set(rows))  # simlint: disable=DET03
            """) == []

    def test_line_pragma_code_is_case_insensitive(self):
        assert codes("""
            def walk(rows):
                return list(set(rows))  # simlint: disable=det03
            """) == []

    def test_line_pragma_only_covers_its_line(self):
        assert "DET03" in codes("""
            def walk(rows):
                first = list(set(rows))  # simlint: disable=set-iteration
                return list(set(rows))
            """)

    def test_line_pragma_for_other_rule_does_not_suppress(self):
        assert "DET03" in codes("""
            def walk(rows):
                return list(set(rows))  # simlint: disable=id-keyed
            """)

    def test_multiple_rules_in_one_pragma(self):
        assert codes("""
            def walk(rows, table):
                return list(set(rows)), table[id(rows)]  # simlint: disable=DET03,DET04
            """) == []

    def test_disable_all(self):
        assert codes("""
            def walk(rows):
                return list(set(rows))  # simlint: disable=all
            """) == []


class TestFilePragmas:
    def test_file_pragma_suppresses_everywhere(self):
        assert codes("""
            # simlint: disable-file=set-iteration

            def one(rows):
                return list(set(rows))

            def two(rows):
                return [row for row in set(rows)]
            """) == []

    def test_file_pragma_is_rule_scoped(self):
        found = codes("""
            # simlint: disable-file=set-iteration

            def walk(rows, table):
                return list(set(rows)), table[id(rows)]
            """)
        assert "DET03" not in found
        assert "DET04" in found


class TestParser:
    def test_parse_line_and_file_forms(self):
        pragmas = parse_pragmas(dedent("""
            # simlint: disable-file=DET03
            x = 1  # simlint: disable=id-keyed
            """))
        assert pragmas.suppressed(3, "DET04", "id-keyed")
        assert not pragmas.suppressed(2, "DET04", "id-keyed")
        assert pragmas.suppressed(99, "DET03", "set-iteration")

    def test_non_pragma_comments_ignored(self):
        pragmas = parse_pragmas("x = 1  # a normal comment\n")
        assert not pragmas.suppressed(1, "DET03", "set-iteration")
