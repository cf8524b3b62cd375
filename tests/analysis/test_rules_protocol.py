"""Fixture tests for the KP (kernel-protocol) rule."""

from textwrap import dedent

from repro.analysis import lint_source


def codes(source: str, module: str = "repro/core/fixture.py"):
    return [v.code for v in lint_source(dedent(source), module=module)]


class TestBlockingCall:
    def test_time_sleep_in_process(self):
        assert "KP04" in codes("""
            import time

            def loop(sim):
                yield sim.timeout(10)
                time.sleep(1)
            """)

    def test_open_in_process(self):
        assert "KP04" in codes("""
            def loop(sim):
                yield sim.timeout(10)
                with open("/tmp/x") as f:
                    f.read()
            """)

    def test_subprocess_in_process(self):
        assert "KP04" in codes("""
            import subprocess

            def loop(sim):
                yield sim.timeout(10)
                subprocess.run(["ls"])
            """)

    def test_blocking_helper_outside_a_process_is_flagged(self):
        # A plain helper a process calls blocks the loop all the same.
        assert "KP04" in codes("""
            import time

            def settle():
                time.sleep(0)
            """)

    def test_blocking_call_outside_the_package_is_clean(self):
        # Scripts and tests do real I/O; only the package is simulation.
        assert codes("""
            def report(rows):
                with open("/tmp/x", "w") as f:
                    f.write(str(rows))
            """, module="scripts/report.py") == []

    def test_simulated_wait_is_clean(self):
        assert codes("""
            def loop(sim):
                yield sim.timeout(10)
                yield 100
            """) == []
