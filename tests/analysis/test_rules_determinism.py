"""Fixture tests for the DET (determinism) rule family.

Each rule gets positive fixtures (a seeded violation must be detected) and
negative fixtures (the sanctioned idiom must pass clean).
"""

from textwrap import dedent

from repro.analysis import lint_source


def codes(source: str, module: str = "repro/core/fixture.py"):
    return [v.code for v in lint_source(dedent(source), module=module)]


class TestSetIteration:
    def test_for_over_set_literal(self):
        assert "DET03" in codes("""
            def walk():
                for item in {1, 2, 3}:
                    print(item)
            """)

    def test_for_over_set_call(self):
        assert "DET03" in codes("""
            def walk(rows):
                for size in set(rows):
                    print(size)
            """)

    def test_comprehension_over_set(self):
        assert "DET03" in codes("""
            def walk(rows):
                return [r for r in {row for row in rows}]
            """)

    def test_list_materializes_set(self):
        assert "DET03" in codes("""
            def walk(rows):
                return list({row for row in rows})
            """)

    def test_sorted_set_is_clean(self):
        assert codes("""
            def walk(rows):
                for size in sorted({row for row in rows}):
                    print(size)
            """) == []

    def test_plain_list_iteration_is_clean(self):
        assert codes("""
            def walk(rows):
                for row in rows:
                    print(row)
            """) == []


class TestIdKeyed:
    def test_subscript_with_id(self):
        assert "DET04" in codes("""
            def put(table, obj, value):
                table[id(obj)] = value
            """)

    def test_dictcomp_keyed_by_id(self):
        assert "DET04" in codes("""
            def index(objs):
                return {id(o): o for o in objs}
            """)

    def test_get_with_id_key(self):
        assert "DET04" in codes("""
            def find(table, obj):
                return table.get(id(obj))
            """)

    def test_stable_key_is_clean(self):
        assert codes("""
            def put(table, obj, value):
                table[obj.name] = value
            """) == []
