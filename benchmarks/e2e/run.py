#!/usr/bin/env python3
"""The repository benchmark: one command, seven workloads, two clocks.

    python benchmarks/e2e/run.py [--workload NAME]... [--seed N]
                                 [--seconds S] [--trace [0|1]] [--runs N]
                                 [--out FILE]
    python benchmarks/e2e/run.py --compare A.json B.json

Each workload runs in its own subprocess (single thread, ``REPRO_*``
scrubbed from the environment) so ``peak_rss_mb`` and ``import`` time are
the workload's own.  Every metric is printed by name with its unit, outputs
are verified, and the exit code is non-zero on any correctness failure.  The
last line of standard output is one JSON object — ``correct``,
``attempted``, ``failed``, ``metrics`` — holding the ``end_to_end`` metrics of
``BENCHMARK.json`` (``--trace 0``) or its ``per_layer`` metrics
(``--trace 1``); a metric a workload cannot observe reads ``-1`` there and
``null`` in ``--out``.

This benchmark claims no gain: it is the instrument later claims are
measured with (``"claim": null`` in every result file).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
CONTRACT = REPO / "BENCHMARK.json"

#: Environment variables that change what the program does; a benchmark
#: number must never depend on the caller's shell.
_SCRUBBED_PREFIX = "REPRO_"

#: Regression tolerances of the exact (simulated) user metrics that
#: BENCHMARK.json cannot gate; ``--compare`` applies them per seed.
#: name -> (kind, tolerance)
_EXACT_BOUNDS = {
    "sim_p50_us": ("relative", 0.005),
    "sim_p99_us": ("relative", 0.005),
    "sim_backup_cpu_pct": ("absolute", 0.5),
    "op_fail_frac": ("absolute", 0.002),
}

#: Paper reference points for the informational shape line (§6.1).
_PAPER_P99_SPEEDUP_X = 801.8


def _require_program() -> None:
    if not (REPO / "src" / "repro").is_dir():
        sys.exit(f"run.py: {REPO / 'src' / 'repro'} not found — the "
                 "benchmark measures the program in this checkout")


def _bootstrap_imports() -> None:
    """Make ``repro`` and this directory's package importable."""
    _require_program()
    # As a script, sys.path[0] is this directory, where ``trace.py`` would
    # shadow the standard library's ``trace``; import it as ``e2e.trace``.
    sys.path[:] = [entry for entry in sys.path
                   if Path(entry or ".").resolve() != HERE]
    sys.path[:0] = [str(REPO / "src"), str(HERE.parent)]


def _load_contract() -> Dict[str, Any]:
    with open(CONTRACT) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Child: measure one workload in this process
# ----------------------------------------------------------------------
def _child(args: argparse.Namespace) -> int:
    _bootstrap_imports()
    start = time.perf_counter()
    from e2e import harness
    from repro.sim.engine import Simulator
    import_s = time.perf_counter() - start
    name = args.workload[0]
    if args.trace:
        result = harness.measure_traced(name, args.seed, import_s,
                                        tiny=args.tiny)
    else:
        result = harness.measure(name, args.seed, args.seconds, import_s,
                                 tiny=args.tiny,
                                 corrupt=args.inject_corruption)
    result["scheduler"] = Simulator().scheduler
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


# ----------------------------------------------------------------------
# Parent: one subprocess per workload, then print / write / summarise
# ----------------------------------------------------------------------
def _child_env() -> Tuple[Dict[str, str], List[str]]:
    scrubbed = sorted(name for name in os.environ
                      if name.startswith(_SCRUBBED_PREFIX))
    env = {name: value for name, value in os.environ.items()
           if name not in scrubbed}
    env["PYTHONHASHSEED"] = "0"
    return env, scrubbed


def _git_sha() -> Optional[str]:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _spawn(name: str, seed: int, args: argparse.Namespace,
           env: Dict[str, str]) -> Dict[str, Any]:
    command = [sys.executable, str(HERE / "run.py"), "--child",
               "--workload", name, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        command.append("--tiny")
    if args.inject_corruption:
        command.append("--inject-corruption")
    start = time.perf_counter()
    done = subprocess.run(command, env=env, cwd=REPO, stdout=subprocess.PIPE,
                          text=True)
    if done.returncode != 0 or not done.stdout.strip():
        sys.exit(f"run.py: workload {name} crashed "
                 f"(exit code {done.returncode})")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["process_wall_s"] = time.perf_counter() - start
    return result


def _format(value: Optional[float]) -> str:
    if value is None:
        return "null"
    if isinstance(value, int) or float(value).is_integer():
        return f"{value:,.0f}"
    return f"{value:,.4f}" if abs(value) < 1000 else f"{value:,.1f}"


def _print_run(run: Dict[str, Any]) -> None:
    verdict = "correct" if run["correct"] else "INCORRECT"
    detail = f"repeats={run['repeats']}" if "repeats" in run \
        else "1 plain + 1 profiled repeat"
    print(f"\n== {run['workload']}  seed={run['seed']}  {run['mode']}  "
          f"{detail}  attempted={run['attempted']} failed={run['failed']}  "
          f"{verdict}")
    for problem in run["problems"]:
        print(f"   !! {problem}")
    for name, metric in run["metrics"].items():
        print(f"   {name:<36}{_format(metric['value']):>16} "
              f"{metric['unit']:<9}[{metric['clock']}]")
    samples = run["samples"]
    if run["mode"] == "untraced":
        print(f"   host_us_per_op median "
              f"{_format(samples['host_us_per_op_median'])} over "
              f"{run['repeats']} repeats; latency samples per repeat: "
              f"{_format(samples['latency_samples'])}; build/(build+measured) = "
              f"{samples['build_frac']:.2f}")
    else:
        print(f"   layer fractions sum to {run['layer_fraction_sum']:.4f}; "
              f"probes_missing: {run['probes_missing'] or 'none'}")
    if run.get("note"):
        print(f"   note: {run['note']}")


def _print_paper_shape(runs: List[Dict[str, Any]]) -> None:
    """Informational only: the model is unvalidated against hardware, so
    the paper's shapes are reference points, not gates."""
    latest = {run["workload"]: run["metrics"] for run in runs}
    chain, naive = latest.get("chain_small"), latest.get("naive_tenants")
    if not chain or not naive:
        return
    chain_p99 = chain["sim_p99_us"]["value"]
    naive_p99 = naive["sim_p99_us"]["value"]
    print(f"\npaper.p99_speedup_x = naive_tenants.sim_p99_us / "
          f"chain_small.sim_p99_us = {naive_p99:,.1f} / {chain_p99:,.2f} = "
          f"{naive_p99 / chain_p99:,.1f}x   (paper §6.1: up to "
          f"{_PAPER_P99_SPEEDUP_X}x; informational, not gated)")
    print(f"sim_backup_cpu_pct: chain_small "
          f"{chain['sim_backup_cpu_pct']['value']:.2f} % (paper: ~0 % on "
          f"HyperLoop backups), naive_tenants "
          f"{naive['sim_backup_cpu_pct']['value']:.2f} % (paper: ~100 % of "
          f"a core when backups poll; this arm is event-driven)")


def _contract_line(runs: List[Dict[str, Any]], contract: Dict[str, Any],
                   trace: int) -> Dict[str, Any]:
    """The driver-facing summary; with one run, exactly the contract's
    metric names, otherwise ``workload.metric`` for every run."""
    wanted = [metric["name"] for metric in
              contract["per_layer" if trace else "end_to_end"]]
    metrics: Dict[str, Dict[str, Any]] = {}
    for run in runs:
        prefix = f"{run['workload']}." if len(runs) > 1 else ""
        for name in wanted:
            metric = run["metrics"][name]
            value = metric["value"]
            metrics[prefix + name] = {
                "value": -1.0 if value is None else value,
                "unit": metric["unit"]}
    return {"correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": metrics}


def _measure(args: argparse.Namespace) -> int:
    contract = _load_contract()
    _require_program()
    known = [workload["name"] for workload in contract["workloads"]]
    names = args.workload or known
    for name in names:
        if name not in known:
            sys.exit(f"run.py: unknown workload {name!r}; "
                     f"known: {', '.join(known)}")
    if args.seconds is None:
        args.seconds = 0 if args.tiny else contract["run_seconds"]
    env, scrubbed = _child_env()
    provenance = {
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": _git_sha(), "seed": args.seed, "runs": args.runs,
        "seconds": args.seconds, "scrubbed_env": scrubbed,
        "pinned_env": {"PYTHONHASHSEED": "0"},
        "bytecode_cache": not sys.dont_write_bytecode,
    }
    runs: List[Dict[str, Any]] = []
    traces: List[Dict[str, Any]] = []
    for index in range(args.runs):
        for name in names:
            run = _spawn(name, args.seed + index, args, env)
            trace = run.pop("chrome_trace", None)
            if trace is not None:
                for event in trace["traceEvents"]:
                    event["pid"] = len(traces)
                traces.append({"workload": name, **trace})
            runs.append(run)
            _print_run(run)
    provenance["scheduler"] = runs[0]["scheduler"]
    _print_paper_shape(runs)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"schema": 1, "benchmark": "benchmarks/e2e",
                       "claim": None, "provenance": provenance,
                       "runs": runs}, handle, indent=1)
        if traces:
            events = [event for trace in traces
                      for event in trace["traceEvents"]]
            with open(f"{args.out}.trace.json", "w") as handle:
                json.dump({"traceEvents": events,
                           "displayTimeUnit": "ms"}, handle)
    print()
    line = _contract_line(runs, contract, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


# ----------------------------------------------------------------------
# --compare A.json B.json
# ----------------------------------------------------------------------
def _spread(values: Sequence[float]) -> Optional[float]:
    """Inter-quartile distance as a share of the median (None: one run)."""
    if len(values) < 2:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return abs(q3 - q1) / abs(middle) if middle else 0.0


def _by_seed(runs: List[Dict[str, Any]], workload: str,
             metric: str) -> Dict[int, float]:
    values: Dict[int, float] = {}
    for run in runs:
        entry = run["metrics"].get(metric)
        if run["workload"] == workload and entry is not None \
                and entry["value"] is not None:
            values[run["seed"]] = entry["value"]
    return values


def _gated_verdict(a: List[float], b: List[float], better: str,
                   bound: float) -> Tuple[str, str]:
    base, other = statistics.median(a), statistics.median(b)
    worse_by = (other - base) / base if better == "lower" \
        else (base - other) / base
    spreads = [s for s in (_spread(a), _spread(b)) if s is not None]
    spread = max(spreads) if spreads else None
    if worse_by > bound and worse_by > (spread or 0.0):
        verdict = "worse"
    elif spread is not None and spread > bound:
        verdict = "unresolved"
    elif -worse_by > (bound if spread is None else spread):
        verdict = "better"           # One run a side: only past the bound.
    else:
        verdict = "unchanged"
    shown = "n/a (1 run)" if spread is None else f"{spread:.2%}"
    return verdict, (f"A {_format(base)} -> B {_format(other)}  "
                     f"{(other - base) / base:+.2%} of A's median  "
                     f"spread {shown}  bound {bound:.1%} ({better} is better)")


def _exact_verdict(metric: str, better: str, a: Dict[int, float],
                   b: Dict[int, float]) -> Tuple[str, str]:
    seeds = sorted(set(a) & set(b))
    if not seeds:
        return "unpaired", "no seed present in both files"
    differing = [seed for seed in seeds if a[seed] != b[seed]]
    if not differing:
        return "identical", f"{len(seeds)} seed(s)"
    seed = differing[0]
    detail = (f"{len(differing)}/{len(seeds)} seed(s) differ; seed {seed}: "
              f"A {_format(a[seed])} -> B {_format(b[seed])}")
    kind, tolerance = _EXACT_BOUNDS.get(metric, (None, None))
    for seed in differing:
        worse_by = b[seed] - a[seed] if better == "lower" \
            else a[seed] - b[seed]
        if kind == "relative" and a[seed]:
            worse_by /= abs(a[seed])
        if kind is not None and worse_by > tolerance:
            return "worse", f"{detail}  tolerance {tolerance} {kind}"
    return "differs", detail


def _compare(path_a: str, path_b: str) -> int:
    contract = _load_contract()
    with open(path_a) as handle:
        runs_a = json.load(handle)["runs"]
    with open(path_b) as handle:
        runs_b = json.load(handle)["runs"]
    gated = {metric["name"]: metric for metric in contract["end_to_end"]}
    directions = {metric["name"]: metric["better"]
                  for metric in contract["end_to_end"] + contract["per_layer"]}
    clocks = {name: entry["clock"] for run in runs_a + runs_b
              for name, entry in run["metrics"].items()}
    tally: Dict[str, int] = {}
    for workload in [w["name"] for w in contract["workloads"]]:
        names = [name for name in clocks
                 if _by_seed(runs_a, workload, name)
                 and _by_seed(runs_b, workload, name)]
        for name in sorted(names, key=lambda n: (n not in gated, n)):
            a = _by_seed(runs_a, workload, name)
            b = _by_seed(runs_b, workload, name)
            better = directions.get(name, "lower")
            if name in gated:
                verdict, detail = _gated_verdict(
                    list(a.values()), list(b.values()), better,
                    gated[name]["bound"])
            elif clocks[name] == "host":
                base = statistics.median(a.values())
                other = statistics.median(b.values())
                verdict = "info"
                detail = (f"A {_format(base)} -> B {_format(other)}  "
                          f"(host clock, no bound)")
            else:
                verdict, detail = _exact_verdict(name, better, a, b)
            tally[verdict] = tally.get(verdict, 0) + 1
            print(f"{workload:<15}{name:<36}{verdict:<11}{detail}")
    print("\n" + "  ".join(f"{verdict}: {count}"
                           for verdict, count in sorted(tally.items())))
    return 1 if tally.get("worse") else 0


# ----------------------------------------------------------------------
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the HyperLoop reproduction.")
    parser.add_argument("--workload", action="append", default=[],
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the generated inputs (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: per-layer metrics from a profiled repeat")
    parser.add_argument("--runs", type=int, default=1,
                        help="run every workload N times, on seeds "
                             "seed..seed+N-1 (spreads for --compare)")
    parser.add_argument("--out", help="write the result file here (and the "
                                      "Chrome trace next to it when tracing)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="apply BENCHMARK.json's bounds to two result "
                             "files; exit 1 on any 'worse'")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizing; numbers are not comparable")
    parser.add_argument("--inject-corruption", action="store_true",
                        help="self-test: flip one replica byte before "
                             "verification (must fail the run)")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.child:
        return _child(args)
    if args.compare:
        return _compare(*args.compare)
    return _measure(args)


if __name__ == "__main__":
    sys.exit(main())
