"""Fixture-tree tests for the simflow whole-program rules (RC/WQ1x/KP1x).

Every test builds a tiny in-memory project with ``lint_sources`` — paths
double as canonical module paths, so fixtures can sit anywhere in the
pretend tree.  The flagship tests also run the *per-file* linter over the
same fixtures to prove the finding is invisible without the project index:
that is the regression the flow layer exists to catch.
"""

from repro.analysis import lint_source, lint_sources

# ----------------------------------------------------------------------
# RC01 — yield-spanning read-modify-write
# ----------------------------------------------------------------------
RC01_RACY = '''
class Server:
    def worker(self, sim):
        count = self.pending
        yield sim.timeout(5)
        self.pending = count + 1

    def producer(self, sim):
        self.pending = 0
        yield sim.timeout(1)

def main(sim):
    for i in range(4):
        sim.process(Server().worker(sim))
    sim.process(Server().producer(sim))
'''


def codes(violations):
    return [violation.code for violation in violations]


def test_rc01_lost_update_detected():
    found = lint_sources([("repro/x/main.py", RC01_RACY)])
    assert codes(found) == ["RC01"]
    [violation] = found
    assert "pending" in violation.message
    assert violation.source_line  # anchored on the worker def


def test_rc01_invisible_to_per_file_rules():
    # The exact same source is clean under the per-file rule set: the race
    # needs process-context reachability, which needs the project index.
    assert lint_source(RC01_RACY, path="repro/x/main.py") == []


def test_rc01_quiet_without_concurrency():
    single = RC01_RACY.replace("for i in range(4):\n        ", "")
    # One worker + one producer still races (two roots share .pending)...
    assert "RC01" in codes(lint_sources([("repro/x/main.py", single)]))
    # ...but a lone worker — no other writer of .pending anywhere — cannot
    # lose its own update.
    lone = '''
class Server:
    def worker(self, sim):
        count = self.pending
        yield sim.timeout(5)
        self.pending = count + 1

def main(sim):
    sim.process(Server().worker(sim))
'''
    assert lint_sources([("repro/x/main.py", lone)]) == []


def test_rc01_quiet_when_reread_after_yield():
    fixed = RC01_RACY.replace("self.pending = count + 1",
                              "self.pending = self.pending + 1")
    assert lint_sources([("repro/x/main.py", fixed)]) == []


# ----------------------------------------------------------------------
# RC02 — yield inside a loop over shared state
# ----------------------------------------------------------------------
RC02_RACY = '''
class Pool:
    def drainer(self, sim):
        for job in self.jobs:
            yield sim.timeout(1)

    def feeder(self, sim):
        self.jobs.append("job")
        yield sim.timeout(2)

def main(sim):
    pool = Pool()
    sim.process(pool.drainer(sim))
    sim.process(pool.feeder(sim))
'''


def test_rc02_shared_iteration_detected():
    found = lint_sources([("repro/x/pool.py", RC02_RACY)])
    assert codes(found) == ["RC02"]
    assert "jobs" in found[0].message


def test_rc02_snapshot_iteration_is_clean():
    fixed = RC02_RACY.replace("for job in self.jobs:",
                              "for job in list(self.jobs):")
    assert lint_sources([("repro/x/pool.py", fixed)]) == []


# ----------------------------------------------------------------------
# WQ11 — interprocedural descriptor taint (the flagship cross-file case)
# ----------------------------------------------------------------------
WQ11_HELPER = '''
def fill(memory, addr):
    memory.write(addr, b"x" * 8)
'''
WQ11_CALLER = '''
from repro.core.helpers import fill

class Writer:
    def run(self, sim):
        yield sim.timeout(1)
        addr = self.queue.slot_address(0)
        fill(self.memory, addr)
'''


def test_wq11_cross_file_taint_detected():
    found = lint_sources([
        ("repro/core/helpers.py", WQ11_HELPER),
        ("repro/core/writer.py", WQ11_CALLER),
    ])
    assert codes(found) == ["WQ11"]
    [violation] = found
    # Sink is in the helper; source anchor is the caller's def.
    assert violation.path == "repro/core/helpers.py"
    assert violation.source_path == "repro/core/writer.py"
    assert "Writer.run" in violation.message


def test_wq11_invisible_per_file():
    # Neither half alone trips any per-file rule: the helper never sees an
    # address helper, the caller never sees a write.
    assert lint_source(WQ11_HELPER, path="repro/core/helpers.py") == []
    assert lint_source(WQ11_CALLER, path="repro/core/writer.py") == []


def test_wq11_return_taint_flows_to_caller():
    producer = '''
def ring_slot(queue):
    return queue.slot_address(3)
'''
    consumer = '''
from repro.core.producer import ring_slot

def poke(memory, queue):
    target = ring_slot(queue)
    memory.write(target, b"\\x01")
'''
    found = lint_sources([
        ("repro/core/producer.py", producer),
        ("repro/core/consumer.py", consumer),
    ])
    assert codes(found) == ["WQ11"]
    assert found[0].path == "repro/core/consumer.py"
    assert found[0].source_path == "repro/core/producer.py"


def test_wq11_pattern_write_is_a_sink():
    helper = WQ11_HELPER.replace('memory.write(addr, b"x" * 8)',
                                 'memory.write_pattern(addr, b"x" * 8, 4)')
    found = lint_sources([
        ("repro/core/helpers.py", helper),
        ("repro/core/writer.py", WQ11_CALLER),
    ])
    assert codes(found) == ["WQ11"]


def test_wq11_driver_layer_is_allowed():
    # The same flow inside the driver module is the driver doing its job.
    found = lint_sources([
        ("repro/rdma/driver.py", WQ11_HELPER + '''
def stage(queue, memory):
    addr = queue.slot_address(0)
    fill(memory, addr)
''')])
    assert found == []


# ----------------------------------------------------------------------
# WQ12 — private rdma internals leaking across the layer boundary
# ----------------------------------------------------------------------
WQ12_RDMA = '''
def _pop_descriptor(queue):
    head = queue.peek_head()
    queue.advance_head()
    return head
'''
WQ12_CORE = '''
from repro.rdma.internal import _pop_descriptor

def steal(queue):
    return _pop_descriptor(queue)
'''


def test_wq12_private_consumer_leak_detected():
    found = lint_sources([
        ("repro/rdma/internal.py", WQ12_RDMA),
        ("repro/core/steal.py", WQ12_CORE),
    ])
    assert codes(found) == ["WQ12"]
    [violation] = found
    assert violation.path == "repro/core/steal.py"
    assert "_pop_descriptor" in violation.message


def test_wq12_public_api_is_sanctioned():
    public = WQ12_RDMA.replace("_pop_descriptor", "pop_descriptor")
    core = WQ12_CORE.replace("_pop_descriptor", "pop_descriptor")
    found = lint_sources([
        ("repro/rdma/internal.py", public),
        ("repro/core/steal.py", core),
    ])
    # Calling the *public* wrapper is fine; WQ03 still fires inside the
    # rdma layer? No — consumer calls are allowed inside rdma/.
    assert found == []


def test_wq12_rdma_internal_callers_are_fine():
    found = lint_sources([
        ("repro/rdma/internal.py", WQ12_RDMA),
        ("repro/rdma/driver_ext.py", WQ12_CORE.replace(
            "repro.rdma.internal", "repro.rdma.internal")),
    ])
    # Caller lives inside rdma/ — the boundary is not crossed.
    assert found == []


# ----------------------------------------------------------------------
# KP11 — yield-from helpers inherit kernel yield discipline
# ----------------------------------------------------------------------
KP11_HELPER = '''
def pacing():
    yield
    yield "tick"
'''
KP11_PROCESS = '''
from repro.core.pacing import pacing

def loop(sim):
    yield sim.timeout(1)
    yield from pacing()
'''


def test_kp11_cross_file_discipline_detected():
    found = lint_sources([
        ("repro/core/pacing.py", KP11_HELPER),
        ("repro/core/loop.py", KP11_PROCESS),
    ])
    assert codes(found) == ["KP11", "KP11"]
    assert all(v.path == "repro/core/pacing.py" for v in found)
    assert all(v.source_path == "repro/core/loop.py" for v in found)


def test_kp11_invisible_per_file():
    # The helper looks like an innocent data generator on its own.
    assert lint_source(KP11_HELPER, path="repro/core/pacing.py") == []


def test_kp11_unconsumed_generator_is_left_alone():
    # Without a consuming process the helper really is a data generator.
    assert lint_sources([("repro/core/pacing.py", KP11_HELPER)]) == []


def test_kp11_marker_helpers_belong_to_kp01():
    helper = '''
def pacing(sim):
    yield sim.timeout(1)
    yield
'''
    found = lint_sources([
        ("repro/core/pacing.py", helper),
        ("repro/core/loop.py", KP11_PROCESS),
    ])
    # The marker classifies the helper as a process per-file: KP01 owns
    # the bare yield, KP11 stays quiet (no double report).
    assert codes(found) == ["KP01"]


# ----------------------------------------------------------------------
# KP12 — blocking calls anywhere under a process context
# ----------------------------------------------------------------------
KP12_HELPER = '''
import time

def settle():
    time.sleep(0.1)
'''
KP12_PROCESS = '''
from repro.core.settle import settle

def monitor(sim):
    while True:
        yield sim.timeout(10)
        settle()
'''


def test_kp12_blocking_helper_detected():
    found = lint_sources([
        ("repro/core/settle.py", KP12_HELPER),
        ("repro/core/monitor.py", KP12_PROCESS),
    ])
    assert codes(found) == ["KP12"]
    [violation] = found
    assert violation.path == "repro/core/settle.py"
    assert "time.sleep" in violation.message
    assert "monitor" in violation.message


def test_kp12_blocking_outside_sim_context_is_fine():
    # No process reaches settle(): report/setup code may block freely.
    assert lint_sources([("repro/core/settle.py", KP12_HELPER)]) == []


def test_kp12_does_not_double_report_kp04():
    inline = '''
import time

def monitor(sim):
    yield sim.timeout(10)
    time.sleep(0.1)
'''
    found = lint_sources([("repro/core/monitor.py", inline)])
    # Per-file KP04 owns blocking calls inside classified processes.
    assert codes(found) == ["KP04"]
