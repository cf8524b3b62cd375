"""Benchmark-side tracing: phase spans, a per-layer host-time fold, exact
call counts at layer boundaries, and public model counters.

Nothing here lives inside the program.  A :class:`Recorder` wraps the calls
the workloads make into ``repro``:

* every phase (``cluster_build`` … ``close``) is a ``perf_counter`` span —
  this is the timing mechanism of the untraced run too, so traced and
  untraced runs share one code path;
* with ``trace=True`` each phase additionally runs under ``cProfile``.
  ``tottime`` folded by source module *is* "span duration minus child
  spans" for a re-entrant event loop, so the fold gives each layer's self
  time; ``ncalls`` of named boundary functions gives exact counts that
  repeat for a fixed seed and therefore compare two commits without noise;
* public counters (NIC ``Counter``s, ``Port.bytes_sent``, cache
  ``flushes``, ``context_switches``) are read off every
  :class:`repro.host.Cluster` built while the recorder is watching.

A probe whose target no longer exists resolves to ``None`` and is listed in
``probes_missing``; it never raises — later refactors may rename things this
directory cannot be edited to follow.
"""

from __future__ import annotations

import cProfile
import importlib
import os
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["LAYERS", "PHASES", "PROBES", "Recorder", "layer_of",
           "resolve_probe", "chrome_trace"]

#: Host-time layers, in the order they are reported.
LAYERS = ["sim.engine", "sim.cpu", "rdma.wqe", "rdma.driver", "rdma.nic",
          "rdma.fabric", "nvm", "backend", "cluster", "traffic", "faults",
          "storage", "apps", "workloads", "experiments", "other"]

#: Phase name -> profile group.  ``setup`` is everything before the first
#: measured op; counts taken there are the ``*_setup`` metrics.
PHASES = {"cluster_build": "setup", "group_build": "setup",
          "preload": "setup", "steady": "steady", "verify": "verify",
          "close": "close"}

#: Boundary functions whose exact call counts are reported, as
#: ``module:qualified.name``.
PROBES = {
    "events": "repro.sim.engine:Simulator._schedule",
    "process_steps": "repro.sim.engine:Process._step",
    "encodes": "repro.rdma.wqe:encode_wqe",
    "decodes": "repro.rdma.wqe:decode_wqe",
    "posts": "repro.rdma.driver:WorkQueue.post",
    "peeks": "repro.rdma.driver:WorkQueue.peek_head",
    "nvm_writes": "repro.nvm.memory:SparsePages.write",
    "nvm_reads": "repro.nvm.memory:SparsePages.read",
    "gwrite": "repro.backend.base:GroupBase.gwrite",
    "gcas": "repro.backend.base:GroupBase.gcas",
    "gmemcpy": "repro.backend.base:GroupBase.gmemcpy",
    "gflush": "repro.backend.base:GroupBase.gflush",
}

#: Public per-host model counters, summed over every watched host.
_COUNTERS = {
    "wqes": lambda host: host.nic.wqes_executed.value,
    "msgs": lambda host: host.nic.messages_handled.value,
    "rnr_retries": lambda host: host.nic.rnr_retries.value,
    "access_errors": lambda host: host.nic.remote_access_errors.value,
    "wire_bytes": lambda host: host.nic.port.bytes_sent,
    "flushes": lambda host: host.nic.cache.flushes,
    "resident_bytes": lambda host: host.memory._data.resident_bytes,
    "ctx_switches": lambda host: host.cpu.context_switches.value,
}

# First match wins (a file precedes its directory); paths are relative to
# the ``repro`` package.
_LAYER_PREFIXES = [
    ("sim/cpu.py", "sim.cpu"),
    ("sim/", "sim.engine"),
    ("rdma/wqe.py", "rdma.wqe"),
    ("rdma/driver.py", "rdma.driver"),
    ("rdma/fabric.py", "rdma.fabric"),
    ("rdma/", "rdma.nic"),
    ("nvm/", "nvm"),
    ("backend/", "backend"),
    ("core/", "backend"),
    ("baseline/", "backend"),
    ("cluster/", "cluster"),
    ("host.py", "cluster"),
    ("traffic/", "traffic"),
    ("faults/", "faults"),
    ("storage/", "storage"),
    ("apps/", "apps"),
    ("workloads/", "workloads"),
    ("experiments/", "experiments"),
]
_PACKAGE_MARK = os.sep + "repro" + os.sep


def layer_of(filename: str) -> str:
    """The layer a source file's self time is charged to."""
    cut = filename.rfind(_PACKAGE_MARK)
    if cut < 0:
        return "other"
    relative = filename[cut + len(_PACKAGE_MARK):].replace(os.sep, "/")
    for prefix, layer in _LAYER_PREFIXES:
        if relative.startswith(prefix):
            return layer
    return "other"


def resolve_probe(target: str) -> Optional[Any]:
    """The code object behind ``module:qualified.name``, or ``None``."""
    module_name, _, path = target.partition(":")
    try:
        obj: Any = importlib.import_module(module_name)
        for part in path.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError):
        return None
    return getattr(obj, "__code__", None)


class Recorder:
    """Times phases; with ``trace=True`` also profiles them and watches
    clusters.  One recorder serves one repeat."""

    def __init__(self, trace: bool = False) -> None:
        self.trace = trace
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []
        self.clusters: List[Any] = []
        self._profiles: Dict[str, cProfile.Profile] = {}
        self._counter_marks: Dict[str, Dict[str, Optional[float]]] = {}

    # -- spans -----------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A named host-time span, child of the innermost open span."""
        record = {"name": name, "parent": self._open[-1] if self._open
                  else None, "start": time.perf_counter(), "end": None}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """One of :data:`PHASES`: a span, plus its profile when tracing."""
        group = PHASES[name]
        profile = None
        if self.trace:
            profile = self._profiles.setdefault(group, cProfile.Profile())
        with self.span(name):
            if profile is not None:
                profile.enable()
            try:
                yield
            finally:
                if profile is not None:
                    profile.disable()
        if self.trace:
            # Counters are cumulative, so the reading after the last
            # phase of a group is that group's boundary.
            self._counter_marks[group] = self.read_counters()

    def seconds(self, name: str) -> float:
        """Total host seconds spent in spans called ``name``."""
        return sum(span["end"] - span["start"] for span in self.spans
                   if span["name"] == name and span["end"] is not None)

    # -- clusters --------------------------------------------------------
    @contextmanager
    def watch_clusters(self) -> Iterator[None]:
        """Remember every ``repro.host.Cluster`` constructed inside.

        Experiments that build their cluster inside ``run()`` give the
        benchmark no handle on it; wrapping the constructor from outside
        does, without touching the program.
        """
        from repro.host import Cluster
        original = Cluster.__init__
        seen = self.clusters

        def watching_init(cluster, *args, **kwargs):
            original(cluster, *args, **kwargs)
            seen.append(cluster)

        Cluster.__init__ = watching_init
        try:
            yield
        finally:
            Cluster.__init__ = original

    def read_counters(self) -> Dict[str, Optional[float]]:
        """Sums of the public model counters over every watched host."""
        totals: Dict[str, Optional[float]] = dict.fromkeys(_COUNTERS, 0)
        for cluster in self.clusters:
            for name in sorted(cluster.hosts):
                for key, read in _COUNTERS.items():
                    if totals[key] is None:
                        continue
                    try:
                        totals[key] += read(cluster.hosts[name])
                    except AttributeError:
                        totals[key] = None   # Renamed away: not observable.
        return totals

    def counter_total(self, group: str, key: str) -> Optional[float]:
        """Counter ``key`` as read when profile group ``group`` ended."""
        return self._counter_marks.get(group, {}).get(key)

    def counter_delta(self, group: str, key: str) -> Optional[float]:
        """Growth of counter ``key`` during profile group ``group``."""
        after = self.counter_total(group, key)
        if after is None:
            return None
        order = ["setup", "steady", "verify", "close"]
        before = 0
        for earlier in order[:order.index(group)]:
            before = self.counter_total(earlier, key) or before
        return after - before

    # -- profile folding -------------------------------------------------
    def layer_seconds(self) -> Dict[str, float]:
        """Self seconds per layer over every profiled phase.

        Built-in callees (``heappush``, ``bytes.join``, slice assignment
        helpers) are charged to the layer of the Python function that
        called them, so ``other`` holds stdlib/numpy/benchmark Python
        only.
        """
        totals = dict.fromkeys(LAYERS, 0.0)
        for profile in self._profiles.values():
            for entry in profile.getstats():
                code = entry.code
                if isinstance(code, str):
                    continue  # Built-in: charged through its callers.
                layer = layer_of(code.co_filename)
                own = entry.inlinetime
                for callee in entry.calls or ():
                    if isinstance(callee.code, str):
                        own += callee.inlinetime
                totals[layer] += own
        return totals

    def call_counts(self, group: str) -> Tuple[Dict[str, Optional[int]],
                                               List[str]]:
        """Exact ``ncalls`` of every probe during ``group``'s phases."""
        counts: Dict[str, Optional[int]] = {}
        missing: List[str] = []
        by_code: Dict[Any, int] = {}
        profile = self._profiles.get(group)
        if profile is not None:
            for entry in profile.getstats():
                by_code[entry.code] = entry.callcount
        for name, target in PROBES.items():
            code = resolve_probe(target)
            if code is None:
                counts[name] = None
                missing.append(target)
            else:
                counts[name] = by_code.get(code, 0)
        return counts, missing


def chrome_trace(recorders: List[Tuple[str, Recorder]]) -> Dict[str, Any]:
    """Chrome-trace (``chrome://tracing`` / Perfetto) JSON for the spans.

    ``recorders`` is ``[(label, recorder)]``; each label becomes one
    thread row so repeats line up under each other.
    """
    events: List[Dict[str, Any]] = []
    origin = min((span["start"] for _label, recorder in recorders
                  for span in recorder.spans), default=0.0)
    for tid, (label, recorder) in enumerate(recorders):
        events.append({"name": "thread_name", "ph": "M", "pid": 0,
                       "tid": tid, "args": {"name": label}})
        for index, span in enumerate(recorder.spans):
            if span["end"] is None:
                continue
            events.append({
                "name": span["name"], "ph": "X", "pid": 0, "tid": tid,
                "ts": (span["start"] - origin) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "args": {"id": index, "parent": span["parent"]},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
