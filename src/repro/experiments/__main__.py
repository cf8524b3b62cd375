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

``--jobs N`` fans sweep points out over worker processes (``claims`` runs
all its figures' points as one sweep); every point owns its simulator and
seed, so rows are identical to a serial run.

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

#: Name -> module: its docstring's first line describes it, and its
#: ``main(backend="hyperloop", jobs=1)`` prints its tables.
EXPERIMENTS = {module.__name__.rsplit(".", 1)[-1]: module for module in (
    fig2, fig8, table2, fig9, fig10, fig11, fig12, fig_shards, fig_overload,
    fig_faults, availability)}

DEFAULT_BACKEND = "hyperloop"


def _title(module) -> str:
    return module.__doc__.splitlines()[0].rstrip(".")


def _usage() -> None:
    print(__doc__)
    print("available experiments:")
    for name, module in EXPERIMENTS.items():
        print(f"  {name:<12} {_title(module)}")
    print(f"  {'claims':<12} Paper claims scorecard (runs alone; exit 1 "
          "on a miss)")
    print("\nregistered backends (for --backend):")
    for spec in backend_registry.specs():
        group_cls = spec.group_cls
        upper = "-" if group_cls.max_replicas is None \
            else group_cls.max_replicas
        print(f"  {spec.name:<12} {spec.description} "
              f"[replicas {group_cls.min_replicas}..{upper}]")


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
        module = EXPERIMENTS[name]
        print(f"\n=== {_title(module)} ===")
        # Wall-clock here is progress reporting for the human running the
        # CLI, not simulation input.
        started = time.time()
        module.main(backend=backend, jobs=jobs)
        elapsed = time.time() - started
        print(f"[{name} done in {elapsed:.1f}s wall]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
