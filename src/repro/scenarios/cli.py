"""``runner scenarios ...``: the scenario registry's command line.

Subcommands::

    scenarios list [--tag TAG] [--points]
    scenarios run  (NAME | --file PACK.json) [--param k=v ...] [--jobs N]
                   [--chunk-size K] [--no-cache] [--cache-stats]
    scenarios pack NAME [--param k=v ...] [--out FILE]
    scenarios validate [--points N] [--jobs N] [--report FILE] ...

``list`` shows what is registered; ``run`` expands a registered set (or
a pack file written by ``pack``) into simulation points and executes
them through the cached executor; ``pack`` serializes a set to JSON so
a sweep is reviewable and replayable as data; ``validate`` runs the
validation harness (:mod:`repro.scenarios.validation`) over the
composed validation pack and exits non-zero on any contract violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from repro.exec import Executor, ResultCache
from repro.reporting import emit_cache_stats
from repro.scenarios.registry import REGISTRY
from repro.scenarios.spec import ScenarioSpec, dump_specs, load_specs
from repro.util.errors import ReproError


def _parse_params(pairs: list[str]) -> dict[str, Any]:
    """``k=v`` strings to a kwargs dict (values JSON-decoded when valid)."""
    params: dict[str, Any] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ReproError(f"--param expects key=value, got {pair!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _executor(args: argparse.Namespace, backend: str = "event") -> Executor:
    return Executor(
        jobs=args.jobs,
        cache=None if args.no_cache else ResultCache(),
        chunk_size=args.chunk_size,
        backend=backend,
    )


def _cmd_list(args: argparse.Namespace) -> int:
    for entry in REGISTRY:
        if args.tag and args.tag not in entry.tags:
            continue
        line = f"{entry.name:28s} [{', '.join(entry.tags)}] {entry.description}"
        if args.points:
            specs = entry.build()
            total = sum(spec.points for spec in specs)
            line += f" ({len(specs)} scenarios, {total} points)"
        print(line)
    return 0


def _load_set(args: argparse.Namespace) -> list[ScenarioSpec]:
    if args.file:
        return load_specs(Path(args.file).read_text())
    return REGISTRY.build(args.name, **_parse_params(args.param))


def _cmd_run(args: argparse.Namespace) -> int:
    specs = _load_set(args)
    # One executor per backend the pack asks for (specs declare theirs;
    # both share the default cache, whose keys already separate them).
    executors: dict[str, Executor] = {}
    total = 0
    for spec in specs:
        executor = executors.get(spec.backend)
        if executor is None:
            executor = executors[spec.backend] = _executor(args, spec.backend)
        tasks = spec.tasks()
        results = executor.run(tasks)
        total += len(tasks)
        suffix = "" if spec.backend == "event" else f", backend={spec.backend}"
        print(f"{spec.name}: {len(tasks)} point(s) [{spec.kind}{suffix}]")
        for task, result in zip(tasks, results):
            payload = json.dumps(task.encode(result), sort_keys=True)
            print(f"  {task.key}: {payload}")
    print(f"[{total} point(s) across {len(specs)} scenario(s)]")
    batch = executors.get("batch")
    if batch is not None:
        print(f"[{batch.record.batch_summary()}]")
    if args.cache_stats:
        for executor in executors.values():
            emit_cache_stats(executor.stats)
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    specs = REGISTRY.build(args.name, **_parse_params(args.param))
    text = dump_specs(specs)
    if args.out:
        Path(args.out).write_text(text)
        total = sum(spec.points for spec in specs)
        print(f"[{len(specs)} scenario(s), {total} point(s) -> {args.out}]")
    else:
        print(text)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.scenarios.packs import validation_pack
    from repro.scenarios.validation import run_validation

    specs = validation_pack(min_points=args.points)
    cache = None
    if args.cache_dir:
        cache = ResultCache(root=Path(args.cache_dir))
    max_bytes = (
        None if args.max_cache_mb is None else int(args.max_cache_mb * 1024 * 1024)
    )
    report = run_validation(
        specs,
        jobs=args.jobs,
        chunk_size=args.chunk_size,
        cache=cache,
        max_cache_bytes=max_bytes,
        waves=args.waves,
        recheck_stride=args.stride,
        progress=lambda text: print(f"[{text}]", file=sys.stderr),
    )
    print(report.render())
    if args.report:
        destination = report.write(args.report)
        print(f"[report written to {destination}]")
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="runner scenarios", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show registered scenario sets")
    p_list.add_argument("--tag", help="only sets carrying this tag")
    p_list.add_argument(
        "--points",
        action="store_true",
        help="also build each set and count scenarios/points",
    )
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="expand and execute a scenario set")
    p_run.add_argument("name", nargs="?", help="registered set name")
    p_run.add_argument(
        "--file", metavar="PACK", help="run a pack file instead of a set name"
    )
    p_run.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="K=V",
        help="factory keyword argument (repeatable; value parsed as JSON)",
    )
    p_run.add_argument("--jobs", type=int, default=1, metavar="N")
    p_run.add_argument("--chunk-size", type=int, default=None, metavar="K")
    p_run.add_argument("--no-cache", action="store_true")
    p_run.add_argument("--cache-stats", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_pack = sub.add_parser("pack", help="serialize a scenario set to JSON")
    p_pack.add_argument("name", help="registered set name")
    p_pack.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="K=V",
        help="factory keyword argument (repeatable; value parsed as JSON)",
    )
    p_pack.add_argument("--out", metavar="FILE", help="write here (default: stdout)")
    p_pack.set_defaults(func=_cmd_pack)

    p_val = sub.add_parser(
        "validate", help="run the validation sweep over the composed pack"
    )
    p_val.add_argument(
        "--points",
        type=int,
        default=10_000,
        metavar="N",
        help="minimum simulation points in the sweep (default: 10000)",
    )
    p_val.add_argument("--jobs", type=int, default=1, metavar="N")
    p_val.add_argument("--chunk-size", type=int, default=None, metavar="K")
    p_val.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    p_val.add_argument(
        "--max-cache-mb",
        type=float,
        default=None,
        metavar="MB",
        help="prune the cache to this bound between waves (forces "
        "evictions; default: $REPRO_CACHE_MAX_MB or no bound)",
    )
    p_val.add_argument("--waves", type=int, default=4, metavar="W")
    p_val.add_argument(
        "--stride",
        type=int,
        default=7,
        metavar="S",
        help="serially recheck every Sth point (default: 7)",
    )
    p_val.add_argument(
        "--report", metavar="FILE", help="write the JSON report here"
    )
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    if args.command == "run" and bool(args.name) == bool(args.file):
        parser.error("run takes exactly one of NAME or --file")
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
