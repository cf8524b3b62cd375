"""Discrete-event simulation kernel: engine, CPU scheduler, RNG, statistics."""

from .engine import (
    AllOf,
    AnyOf,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .cpu import HostCPU, SchedParams, Thread, ThreadState
from .rng import (
    LatestGenerator,
    RandomStreams,
    ScrambledZipfianGenerator,
    ZipfianGenerator,
)
from .stats import Counter, LatencyRecorder, UtilizationTracker, summarize_us
from . import units

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
    "HostCPU",
    "SchedParams",
    "Thread",
    "ThreadState",
    "RandomStreams",
    "ZipfianGenerator",
    "ScrambledZipfianGenerator",
    "LatestGenerator",
    "Counter",
    "LatencyRecorder",
    "UtilizationTracker",
    "summarize_us",
    "units",
]
