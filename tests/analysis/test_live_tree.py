"""Meta-test: the live ``src/repro`` and ``tests`` trees are simlint-clean.

This is the enforcement point for the invariants only simlint catches — a
change that reintroduces a hash-ordered loop, an ``id()``-keyed container,
a blocking call in the package or a stale write-back across a yield fails
here with the full report in the assertion message.
"""

from repro.analysis import all_rules, get_rule
from repro.analysis.pytest_bridge import assert_tree_clean, repro_src_root


def test_live_tree_is_clean():
    # One pass over ``src/repro`` and ``tests``, as
    # ``scripts/simlint.py src tests`` runs it.
    tests_root = repro_src_root().parent.parent / "tests"
    assert tests_root.is_dir()
    report = assert_tree_clean([str(repro_src_root()), str(tests_root)])
    # Sanity: the walk actually covered the package and the tests.
    assert report.files_checked > 150


def test_src_root_points_at_repro_package():
    root = repro_src_root()
    assert root.name == "repro"
    assert (root / "sim" / "engine.py").is_file()


def test_all_rule_families_registered():
    families = {rule.family for rule in all_rules()}
    assert families == {"determinism", "kernel-protocol", "race"}
    assert [rule.code for rule in all_rules()] == [
        "DET03", "DET04", "KP04", "RC01", "RC02"]


def test_rules_resolvable_by_code_and_name():
    for rule in all_rules():
        assert get_rule(rule.code) is rule
        assert get_rule(rule.name) is rule
    assert get_rule("nonexistent-rule") is None
