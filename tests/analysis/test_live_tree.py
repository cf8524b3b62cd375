"""Meta-test: the live ``src/repro`` and ``tests`` trees are simlint-clean.

This is the enforcement point for the repo's invariants — a change that
reintroduces an unseeded RNG, a hash-ordered loop feeding the schedule, a
slots-less kernel class or an out-of-layer descriptor poke fails here with
the full report in the assertion message.
"""

from repro.analysis import all_rules, get_rule
from repro.analysis.pytest_bridge import assert_tree_clean, repro_src_root


def test_live_tree_is_clean():
    # ``src/repro`` and ``tests`` lint as one program, as
    # ``scripts/simlint.py src tests`` does: cross-file flow findings
    # between them count, and a deliberate-misuse test without its
    # justifying pragma fails here.
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
    assert families == {"determinism", "kernel-protocol", "wqe-ownership",
                        "race"}
    assert len(all_rules()) == 17


def test_tests_tree_is_clean_too():
    # The tests tree also lints clean on its own (``simlint tests``), so a
    # deliberate-misuse test without its justifying pragma fails fast even
    # when the flow index does not see ``src/repro``.
    tests_root = repro_src_root().parent.parent / "tests"
    assert tests_root.is_dir()
    assert_tree_clean([str(tests_root)])


def test_rules_resolvable_by_code_and_name():
    for rule in all_rules():
        assert get_rule(rule.code) is rule
        assert get_rule(rule.name) is rule
    assert get_rule("nonexistent-rule") is None
