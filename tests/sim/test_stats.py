"""Tests for latency recorders and counters."""

import os
import subprocess
import sys

import numpy
import pytest
from hypothesis import given, strategies as st

from repro.sim import stats
from repro.sim.stats import Counter, LatencyRecorder


class TestLatencyRecorder:
    def test_mean(self):
        recorder = LatencyRecorder()
        for sample in (10, 20, 30):
            recorder.record(sample)
        assert recorder.mean() == 20

    def test_percentiles_match_numpy(self):
        recorder = LatencyRecorder()
        samples = [13, 5, 7, 99, 1, 42, 42, 8, 77, 23]
        for sample in samples:
            recorder.record(sample)
        for pct in (0, 25, 50, 90, 95, 99, 100):
            assert recorder.percentile(pct) == \
                pytest.approx(numpy.percentile(samples, pct))

    def test_negative_sample_rejected(self):
        recorder = LatencyRecorder()
        with pytest.raises(ValueError):
            recorder.record(-1)

    def test_empty_recorder_raises(self):
        recorder = LatencyRecorder()
        with pytest.raises(ValueError):
            recorder.mean()
        with pytest.raises(ValueError):
            recorder.percentile(50)

    def test_merge(self):
        a, b = LatencyRecorder(), LatencyRecorder()
        a.record(1)
        b.record(3)
        a.merge(b)
        assert a.count == 2
        assert a.mean() == 2

    def test_unit_conversion(self):
        recorder = LatencyRecorder()
        recorder.record(1500)
        assert recorder.mean_us() == 1.5
        assert recorder.percentile_us(50) == 1.5

    def test_min_max(self):
        recorder = LatencyRecorder()
        for sample in (5, 1, 9):
            recorder.record(sample)
        assert recorder.min() == 1
        assert recorder.max() == 9

    @given(st.lists(st.integers(min_value=0, max_value=10 ** 9),
                    min_size=1, max_size=200))
    def test_percentile_properties(self, samples):
        recorder = LatencyRecorder()
        for sample in samples:
            recorder.record(sample)
        p50 = recorder.percentile(50)
        assert recorder.min() <= p50 <= recorder.max()
        assert recorder.percentile(0) == recorder.min()
        assert recorder.percentile(100) == recorder.max()
        # Monotonicity in the percentile argument.
        assert recorder.percentile(25) <= recorder.percentile(75)

    @given(st.lists(st.integers(min_value=0, max_value=10 ** 6),
                    min_size=1, max_size=100))
    def test_mean_between_min_and_max(self, samples):
        recorder = LatencyRecorder()
        for sample in samples:
            recorder.record(sample)
        assert recorder.min() <= recorder.mean() <= recorder.max()

    @given(st.lists(st.integers(min_value=0, max_value=10 ** 6),
                    min_size=1, max_size=50),
           st.lists(st.integers(min_value=0, max_value=10 ** 6),
                    min_size=1, max_size=50))
    def test_merge_equals_concatenation(self, first, second):
        merged = LatencyRecorder()
        for sample in first + second:
            merged.record(sample)
        a, b = LatencyRecorder(), LatencyRecorder()
        for sample in first:
            a.record(sample)
        for sample in second:
            b.record(sample)
        a.merge(b)
        assert a.percentile(99) == merged.percentile(99)
        assert a.mean() == merged.mean()


class TestSummaryOverSampleSets:
    """Summaries over small, large and huge-valued sample sets: means are
    exact integer sums divided once (``2**53 + 1`` and ``2**60`` would
    lose their low bits in any float accumulation), and percentiles
    interpolate like ``numpy.percentile``'s default."""

    SAMPLE_SETS = [
        [7],
        [13, 5, 7, 99, 1, 42, 42, 8, 77, 23],
        list(range(0, 5000, 3)) + [2 ** 53 + 1, 2 ** 60],
        [(i * 2654435761) % (10 ** 9) for i in range(3000)],
    ]

    @pytest.mark.parametrize("samples", SAMPLE_SETS)
    def test_summary_matches_reference(self, samples):
        recorder = LatencyRecorder()
        for sample in samples:
            recorder.record(sample)
        assert recorder.mean() == sum(samples) / len(samples)
        assert recorder.min() == min(samples)
        assert recorder.max() == max(samples)
        for pct in (0, 25, 50, 90, 95, 99, 99.9, 100):
            assert recorder.percentile(pct) == \
                pytest.approx(numpy.percentile(samples, pct), rel=1e-12)

    def test_record_after_a_summary_is_seen(self):
        recorder = LatencyRecorder()
        for sample in (3, 1, 2):
            recorder.record(sample)
        assert recorder.percentile(50) == 2
        recorder.record(0)
        assert recorder.min() == 0
        assert recorder.percentile(50) == 1.5


def test_importing_repro_does_not_import_numpy():
    """repro has no runtime numpy dependency: importing it and
    summarizing a recorder of thousands of samples must not load numpy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(
            os.path.dirname(stats.__file__))), env.get("PYTHONPATH", "")]))
    snippet = ("import sys, repro\n"
               "from repro.sim.stats import LatencyRecorder\n"
               "recorder = LatencyRecorder()\n"
               "for sample in range(4096): recorder.record(sample)\n"
               "recorder.summary_us()\n"
               "print('numpy' in sys.modules)")
    output = subprocess.run([sys.executable, "-c", snippet], env=env,
                            capture_output=True, text=True, check=True)
    assert output.stdout.strip() == "False"


class TestCounter:
    def test_increment(self):
        counter = Counter("c")
        counter.increment()
        counter.increment(5)
        assert counter.value == 6

    def test_reset_returns_old_value(self):
        counter = Counter("c")
        counter.increment(3)
        assert counter.reset() == 3
        assert counter.value == 0

