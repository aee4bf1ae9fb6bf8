"""Run every paper experiment and print its artifact.

Usage::

    python -m repro.experiments.runner            # everything, full scale
    python -m repro.experiments.runner --scale 0.3
    python -m repro.experiments.runner --only figure1 table1
    python -m repro.experiments.runner --only policies --policy slack-threshold
    python -m repro.experiments.runner --jobs 4   # parallel simulation
    python -m repro.experiments.runner --no-cache # force re-simulation
    python -m repro.experiments.runner --cache-stats
    python -m repro.experiments.runner --emit-trace traces/ --only figure1
    python -m repro.experiments.runner --metrics metrics.jsonl
    python -m repro.experiments.runner --profile
    python -m repro.experiments.runner --fast-forward --scale 10
    python -m repro.experiments.runner --backend batch --only figure2
    python -m repro.experiments.runner scenarios list --points
    python -m repro.experiments.runner scenarios run figure2 --jobs 4
    python -m repro.experiments.runner scenarios pack strong-scaling --out pack.json
    python -m repro.experiments.runner scenarios validate --points 10000

Simulation points are memoised in the on-disk result cache
(``$REPRO_CACHE_DIR`` or ``~/.cache/repro``; see ``docs/EXECUTOR.md``),
so a rerun whose code and configuration are unchanged replays from disk.
``--jobs N`` fans cache misses out over N worker processes and
``--chunk-size K`` groups K points per worker dispatch (default: auto);
the merged artifacts are byte-identical to a serial run.

Observability (see ``docs/OBSERVABILITY.md``): ``--emit-trace DIR``
writes one Chrome trace-event JSON per simulated run into DIR (open in
``chrome://tracing`` or Perfetto); ``--metrics FILE`` dumps run metrics
as JSON lines; ``--profile`` prints the executor's run record as
profile tables (per-run wall time, cache latencies, worker
utilization).  Tracing and metrics force inline, uncached simulation —
a replayed point produces no events.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable

from repro.exec import Executor, ResultCache
from repro.exec.cache import env_max_bytes
from repro.exec.sweep import BACKENDS
from repro.experiments import (
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    policies,
    table1,
)
from repro.reporting import emit_cache_stats, emit_profile, write_result

EXPERIMENTS: dict[str, Callable[..., object]] = {
    "figure1": figure1,
    "table1": table1,
    "figure2": figure2,
    "figure3": figure3,
    "figure4": figure4,
    "figure5": figure5,
    "policies": policies,
}


def _build_observer(args: argparse.Namespace):
    """The observer stack the flags ask for (None when observability is off)."""
    from repro.obs import CompositeObserver, MetricsObserver, TraceObserver

    observers = []
    if args.emit_trace:
        observers.append(TraceObserver(Path(args.emit_trace)))
    if args.metrics:
        observers.append(MetricsObserver())
    if not observers:
        return None
    if len(observers) == 1:
        return observers[0]
    return CompositeObserver(observers)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "scenarios":
        # The declarative side of the harness lives under one namespace:
        # ``runner scenarios list|run|pack|validate`` (see repro.scenarios.cli).
        from repro.scenarios.cli import main as scenarios_main

        return scenarios_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload scale (relative results are scale-invariant)",
    )
    parser.add_argument(
        "--only",
        nargs="*",
        choices=sorted(EXPERIMENTS),
        help="run only these experiments",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for independent simulation points",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="K",
        help="simulation points per worker dispatch when --jobs > 1 "
        "(default: auto, about four chunks per worker)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the on-disk result cache",
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="print cache hit/miss accounting at the end",
    )
    parser.add_argument(
        "--emit-trace",
        metavar="DIR",
        help="write one Chrome trace-event JSON per simulated run into "
        "DIR (forces inline, uncached simulation)",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        help="write run metrics (times, energies, gear timelines, MPI "
        "active/idle splits) as JSON lines to FILE",
    )
    parser.add_argument(
        "--fast-forward",
        action="store_true",
        help="macro-step provably periodic steady-state iterations "
        "instead of simulating them event-by-event (results agree with "
        "full simulation to ~1e-9 relative; off by default so artifacts "
        "stay byte-identical)",
    )
    parser.add_argument(
        "--ff-max-period",
        type=int,
        default=None,
        metavar="P",
        help="largest steady-state limit-cycle period considered by "
        "--fast-forward (default: 16; jumps need about 2*P iterations "
        "of history, so smaller values engage earlier)",
    )
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default="event",
        help="simulation backend: 'event' simulates every point "
        "independently; 'batch' records gear-groupable points once and "
        "replays the whole gear grid from the tape (results agree with "
        "event simulation to ~1e-9 relative and cache under distinct "
        "keys; groups that cannot be certified fall back to the event "
        "engine automatically, and recordings persist in a tape cache "
        "under the result cache root so repeat runs skip re-recording)",
    )
    parser.add_argument(
        "--policy",
        nargs="*",
        metavar="NAME",
        help="restrict the 'policies' experiment to these gear policies "
        "(registry names like slack-threshold/power-budget, or exact "
        "menu labels like power-budget-tight); the static gear-1 "
        "baseline always runs",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the executor's run record as profile tables: per-run "
        "wall time, cache latencies, worker utilization",
    )
    parser.add_argument(
        "--plots",
        action="store_true",
        help="also render each figure as an ASCII scatter plot",
    )
    parser.add_argument(
        "--output",
        metavar="DIR",
        help="also write each result as JSON into this directory",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.chunk_size is not None and args.chunk_size < 1:
        parser.error(f"--chunk-size must be >= 1, got {args.chunk_size}")
    if args.ff_max_period is not None and not args.fast_forward:
        parser.error("--ff-max-period requires --fast-forward")
    names = args.only or list(EXPERIMENTS)
    if args.policy is not None and "policies" not in names:
        parser.error("--policy only applies to the 'policies' experiment")
    observer = _build_observer(args)
    fast_forward = None
    if args.fast_forward:
        from repro.mpi.fastforward import FastForwardConfig

        if args.ff_max_period is not None:
            fast_forward = FastForwardConfig(max_period=args.ff_max_period)
        else:
            fast_forward = FastForwardConfig()
    executor = Executor(
        jobs=args.jobs,
        cache=None if args.no_cache else ResultCache(),
        observer=observer,
        chunk_size=args.chunk_size,
        fast_forward=fast_forward,
        backend=args.backend,
    )
    failures = 0
    for name in names:
        start = time.perf_counter()
        kwargs = {"scale": args.scale, "executor": executor}
        if name == "policies" and args.policy is not None:
            kwargs["only"] = tuple(args.policy)
        try:
            result = EXPERIMENTS[name](**kwargs)
        except Exception as exc:
            failures += 1
            print(
                f"[{name} FAILED: {type(exc).__name__}: {exc}]",
                file=sys.stderr,
            )
            continue
        elapsed = time.perf_counter() - start
        print(result.render())
        if args.plots and hasattr(result, "render_plots"):
            print()
            print(result.render_plots())
        if args.output:
            destination = write_result(
                result, Path(args.output) / f"{name}.json"
            )
            print(f"[written to {destination}]")
        print(f"\n[{name} regenerated in {elapsed:.1f} s]\n")
    if args.emit_trace:
        from repro.obs import TraceObserver

        tracers = (
            observer.observers
            if hasattr(observer, "observers")
            else [observer]
        )
        for tracer in tracers:
            if isinstance(tracer, TraceObserver):
                print(
                    f"[{len(tracer.written)} trace(s) written to "
                    f"{tracer.directory}]"
                )
    if args.metrics:
        from repro.obs import MetricsObserver, write_metrics

        collectors = (
            observer.observers
            if hasattr(observer, "observers")
            else [observer]
        )
        for collector in collectors:
            if isinstance(collector, MetricsObserver):
                destination = write_metrics(args.metrics, collector.registry)
                print(f"[metrics written to {destination}]")
    if fast_forward is not None:
        ledger = executor.record.fast_forward()
        print(
            f"[fast-forward: {ledger.skipped_iterations} iterations "
            f"macro-stepped across {ledger.jumps} jumps, "
            f"{ledger.deviations} deviations]"
        )
    if args.backend == "batch":
        print(f"[{executor.record.batch_summary()}]")
    if args.profile:
        emit_profile(executor.record)
    if executor.cache is not None and env_max_bytes() is not None:
        # $REPRO_CACHE_MAX_MB bounds the cache: evict oldest entries
        # (and stale code versions) after the run, so the cache never
        # grows without limit on CI or shared machines.
        executor.cache.prune()
        if executor.tape_cache is not None:
            executor.tape_cache.prune()
    if args.cache_stats:
        emit_cache_stats(executor.stats)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
