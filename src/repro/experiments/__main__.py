"""Command-line runner for the experiment harness.

Usage::

    python -m repro.experiments               # list experiments & backends
    python -m repro.experiments fig8          # run one
    python -m repro.experiments table2 fig9   # run several
    python -m repro.experiments all           # run everything
    python -m repro.experiments claims        # the paper's shape claims:
                                              # scorecard, exit 1 on a miss
    python -m repro.experiments fig8 --backend fanout   # swap the
                                              # NIC-offloaded arm
    python -m repro.experiments fig8 --jobs 4 # sweep points in parallel
    REPRO_FULL=1 python -m repro.experiments all   # paper-sized counts
    REPRO_QUICK=1 python -m repro.experiments fig8 # CI-smoke counts
    python -m repro.experiments fig_shards --quick # same, as a flag
    python -m repro.experiments fig8 --cache-dir .sweep-cache
                                              # journal completed points
    python -m repro.experiments fig8 --cache-dir .sweep-cache --resume
                                              # ... and skip journaled ones

``--backend NAME`` resolves through the replication-backend registry
(:mod:`repro.backend`), so any registered backend — including out-of-tree
ones — can stand in for HyperLoop in the offloaded arm.  Experiments whose
point is the baseline itself (fig2) ignore the flag, and so does
``claims``: the paper's claims are about HyperLoop.

``--jobs N`` fans independent sweep points out over
worker processes (fig8/fig9/fig10/fig12/fig_shards); every point owns its
simulator and seed, so rows are identical to a serial run.

``--cache-dir DIR`` journals every completed sweep point to a
per-experiment JSONL file under ``DIR``, keyed by a config hash;
``--resume`` additionally *replays* journaled rows, so a grown grid — or
a rerun CI shard — only computes points it has never seen.
"""

from __future__ import annotations

import os
import sys
import time

from .. import backend as backend_registry
from . import (availability, fig2, fig8, fig9, fig10, fig11, fig12,
               fig_faults, fig_overload, fig_shards, parallel, table2)

EXPERIMENTS = {
    "fig2": ("Figure 2 — multi-tenancy root cause (MongoDB)",
             lambda backend, jobs: fig2.main()),
    "fig8": ("Figure 8 — gWRITE/gMEMCPY latency vs size",
             lambda backend, jobs: (
                 fig8.main("gwrite", backend=backend, jobs=jobs),
                 fig8.main("gmemcpy", backend=backend, jobs=jobs))),
    "table2": ("Table 2 — gCAS latency",
               lambda backend, jobs: table2.main(backend=backend)),
    "fig9": ("Figure 9 — throughput & backup CPU",
             lambda backend, jobs: fig9.main(backend=backend, jobs=jobs)),
    "fig10": ("Figure 10 — tail latency vs group size",
              lambda backend, jobs: fig10.main(backend=backend, jobs=jobs)),
    "fig11": ("Figure 11 — replicated RocksDB",
              lambda backend, jobs: fig11.main(backend=backend)),
    "fig12": ("Figure 12 — MongoDB across YCSB workloads",
              lambda backend, jobs: fig12.main(backend=backend, jobs=jobs)),
    "fig_shards": ("Scale-out — sharded throughput & online rebalance",
                   lambda backend, jobs: fig_shards.main(backend=backend,
                                                         jobs=jobs)),
    "fig_overload": ("Overload — retry storm, tenant burst, hotspot shift",
                     lambda backend, jobs: fig_overload.main(
                         backend=backend, jobs=jobs)),
    "fig_faults": ("Faults — availability timelines per fault class",
                   lambda backend, jobs: fig_faults.main(
                       backend=backend, jobs=jobs)),
    "availability": ("Availability — throughput through crash & repair",
                     lambda backend, jobs: availability.main(backend=backend)),
}

DEFAULT_BACKEND = "hyperloop"


def _usage() -> None:
    print(__doc__)
    print("available experiments:")
    for name, (description, _fn) in EXPERIMENTS.items():
        print(f"  {name:<12} {description}")
    print(f"  {'claims':<12} Paper claims scorecard (runs alone; exit 1 "
          "on a miss)")
    print("\nregistered backends (for --backend):")
    for spec in backend_registry.specs():
        upper = spec.max_replicas if spec.max_replicas is not None else "-"
        print(f"  {spec.name:<12} {spec.description} "
              f"[replicas {spec.min_replicas}..{upper}]")


def main(argv) -> int:
    backend = DEFAULT_BACKEND
    jobs = 1
    cache_dir = None
    resume = False
    names = []
    args = list(argv)
    while args:
        arg = args.pop(0)
        if arg == "--backend":
            if not args:
                print("--backend requires a name", file=sys.stderr)
                return 2
            backend = args.pop(0)
        elif arg.startswith("--backend="):
            backend = arg.split("=", 1)[1]
        elif arg == "--jobs":
            if not args:
                print("--jobs requires a count", file=sys.stderr)
                return 2
            jobs = args.pop(0)
        elif arg.startswith("--jobs="):
            jobs = arg.split("=", 1)[1]
        elif arg == "--cache-dir":
            if not args:
                print("--cache-dir requires a path", file=sys.stderr)
                return 2
            cache_dir = args.pop(0)
        elif arg.startswith("--cache-dir="):
            cache_dir = arg.split("=", 1)[1]
        elif arg == "--resume":
            resume = True
        elif arg == "--quick":
            os.environ["REPRO_QUICK"] = "1"
        elif arg in ("-h", "--help"):
            _usage()
            return 0
        else:
            names.append(arg.lower())
    try:
        jobs = max(1, int(jobs))
    except (TypeError, ValueError):
        print(f"--jobs expects an integer, got {jobs!r}", file=sys.stderr)
        return 2
    if resume and cache_dir is None and parallel.options().cache_dir is None:
        print("--resume needs a journal: pass --cache-dir DIR",
              file=sys.stderr)
        return 2
    overrides = {}
    if cache_dir is not None:
        overrides["cache_dir"] = cache_dir
    if resume:
        overrides["resume"] = True
    if overrides:
        parallel.configure(**overrides)
    if backend not in backend_registry.names():
        print(f"unknown backend {backend!r}; registered: "
              f"{', '.join(backend_registry.names())}", file=sys.stderr)
        return 2
    if not names:
        _usage()
        return 0
    if "claims" in names:
        if names != ["claims"]:
            print("claims runs alone", file=sys.stderr)
            return 2
        # Imported here only: the package the benchmark imports stays as
        # it was.  Not in EXPERIMENTS, so ``all`` runs each figure once.
        from . import claims
        return claims.main(jobs)
    if names == ["all"]:
        names = list(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    for name in names:
        description, fn = EXPERIMENTS[name]
        print(f"\n=== {description} ===")
        # Wall-clock here is progress reporting for the human running the
        # CLI, not simulation input.
        started = time.time()
        fn(backend, jobs)
        elapsed = time.time() - started
        print(f"[{name} done in {elapsed:.1f}s wall]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
