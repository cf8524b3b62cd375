"""Fixture tests for the RC (race) rule family."""

from textwrap import dedent

from repro.analysis import lint_source


def codes(source: str, module: str = "repro/x/main.py"):
    return [v.code for v in lint_source(dedent(source), module=module)]


RC01_RACY = '''
class Server:
    def worker(self, sim):
        count = self.pending
        yield sim.timeout(5)
        self.pending = count + 1
'''


def test_rc01_lost_update_detected():
    [violation] = lint_source(RC01_RACY, module="repro/x/main.py")
    assert violation.code == "RC01"
    assert violation.line == 6
    assert "self.pending" in violation.message


def test_rc01_snapshot_through_a_copy_is_detected():
    assert codes('''
        class Pool:
            def refill(self, sim):
                jobs = list(self.jobs)
                yield sim.timeout(1)
                self.jobs = jobs + ["more"]
        ''') == ["RC01"]


def test_rc01_quiet_when_reread_after_yield():
    fixed = RC01_RACY.replace("self.pending = count + 1",
                              "self.pending = self.pending + 1")
    assert codes(fixed) == []


def test_rc01_quiet_without_a_yield_between():
    assert codes('''
        class Server:
            def worker(self, sim):
                yield sim.timeout(5)
                count = self.pending
                self.pending = count + 1
        ''') == []


RC02_RACY = '''
class Pool:
    def drainer(self, sim):
        for job in self.jobs.values():
            yield sim.timeout(1)
'''


def test_rc02_shared_iteration_detected():
    [violation] = lint_source(RC02_RACY, module="repro/x/pool.py")
    assert violation.code == "RC02"
    assert "self.jobs" in violation.message


def test_rc02_snapshot_iteration_is_clean():
    fixed = RC02_RACY.replace("for job in self.jobs.values():",
                              "for job in list(self.jobs.values()):")
    assert codes(fixed) == []


def test_rc02_loop_without_a_yield_is_clean():
    assert codes('''
        class Pool:
            def drainer(self, sim):
                for job in self.jobs:
                    job.run()
                yield sim.timeout(1)
        ''') == []
