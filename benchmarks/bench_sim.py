"""SIM-1: simulation-kernel throughput and the perf-regression floor.

Times the hot paths of the simulation kernel and writes a machine-
readable report (``BENCH_sim.json``):

- **engine** — raw event-loop throughput (events/second) on trivial
  callbacks: heap push/pop, clock advance, callback dispatch;
- **world** — full-runtime throughput (events/second) of one Jacobi run:
  request dispatch, message matching, tracing, and power metering ride
  on every event;
- **suite** — wall time of the complete figure/table suite, serial and
  with a no-op observer attached (the observed row must stay within
  1.5x of serial: hooks are zero-cost when disabled);
- **dispatch** — a parallel sweep timed with per-point worker dispatch
  (``chunk_size=1``) and with auto-chunked dispatch, isolating the
  pickling/IPC overhead that chunking amortizes;
- **fast_forward** — a 1000-iteration Jacobi gear sweep run fully
  event-driven and again with steady-state macro-stepping; reports the
  wall-clock speedup and the worst per-gear relative error, and writes
  the per-gear equivalence detail to ``FF_equivalence.json``;
- **batch** — the same sweep through the record/replay batch backend
  (one macro-stepped recording, the whole gear grid revalued from the
  tape): speedup vs the event path AND vs the fast-forward path, the
  record/replay/merge stage split, a persistent tape-cache cold/warm
  pair, the worst per-gear relative error, and any grid points that
  fell back to the event engine;
- **grid_replay** — the vectorized gear-axis replay against the scalar
  reference interpreter on the *same* certified tape, over a dense
  16-gear menu (dense grids are what the optimizer layer downstream
  sweeps): replay-only walls with the compile amortized, the
  ``grid_over_scalar_speedup`` ratchet, per-gear vector/scalar/
  divergence accounting, and the worst relative error.

The batch and grid-replay details go to ``BENCH_batch.json``.

``--check-baseline`` compares throughput against the committed floor in
``benchmarks/BENCH_baseline.json`` and exits non-zero on a >20 %
regression; the floors are set well below a healthy run so the check
trips on real kernel regressions, not on slower CI hardware.  Run
standalone::

    PYTHONPATH=src python benchmarks/bench_sim.py --quick --check-baseline
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.cluster.machines import athlon_cluster
from repro.exec import Executor, MeasurementTask
from repro.exec.profile import ExecProfile
from repro.exec.sweep import sweep
from repro.experiments import figure1, figure2, figure3, figure4, figure5, table1
from repro.mpi.world import World
from repro.obs import RunObserver
from repro.reporting import result_to_dict
from repro.sim.engine import Simulator
from repro.util.tables import TextTable
from repro.workloads.jacobi import Jacobi
from repro.workloads.nas import EP

SUITE = (
    ("figure1", figure1),
    ("table1", table1),
    ("figure2", figure2),
    ("figure3", figure3),
    ("figure4", figure4),
    ("figure5", figure5),
)

#: Default location of the committed throughput floor.
BASELINE_PATH = Path(__file__).parent / "BENCH_baseline.json"

#: Throughput may drop to this fraction of the baseline before failing.
REGRESSION_FLOOR = 0.8


def bench_engine(events: int, chains: int = 64) -> float:
    """Raw event-loop throughput: fire ``events`` trivial callbacks.

    ``chains`` self-rescheduling callbacks keep the heap populated, so
    the loop exercises push, pop, and sift — not just an empty drain.
    """
    sim = Simulator()
    remaining = events
    period = 1e-6

    def tick() -> None:
        nonlocal remaining
        remaining -= 1
        if remaining > 0:
            sim.schedule(sim.now + period, tick)

    for c in range(min(chains, events)):
        sim.schedule(c * period, tick)
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    return sim.processed / wall


def bench_world(scale: float, nodes: int = 8) -> float:
    """Full-runtime throughput: one Jacobi run, events per second."""
    cluster = athlon_cluster()
    workload = Jacobi(scale)
    world = World(cluster, workload.program, nodes=nodes, gear=1)
    start = time.perf_counter()
    world.run()
    wall = time.perf_counter() - start
    return world.engine.processed / wall


def bench_suite(scale: float) -> dict[str, float]:
    """Macro wall time of the whole paper suite, serial and observed.

    Asserts the observed artifacts are byte-identical to serial before
    reporting — a throughput number for a wrong answer is worthless.
    """

    def run_all(executor: Executor) -> dict[str, str]:
        return {
            name: json.dumps(
                result_to_dict(fn(scale=scale, executor=executor)),
                indent=2,
                sort_keys=True,
            )
            for name, fn in SUITE
        }

    start = time.perf_counter()
    baseline = run_all(Executor())
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    observed = run_all(Executor(observer=RunObserver()))
    observed_s = time.perf_counter() - start
    for name, text in baseline.items():
        assert observed[name] == text, f"{name}: observed != serial"
    return {"suite_serial_s": serial_s, "suite_observed_s": observed_s}


def bench_dispatch(scale: float, jobs: int = 2) -> dict[str, float | int]:
    """Sweep dispatch overhead: per-point vs chunked worker dispatch."""
    cluster = athlon_cluster()
    tasks = [
        MeasurementTask(cluster, EP(scale), nodes=n, gear=g)
        for n in (1, 2, 4, 8)
        for g in (1, 2, 3)
    ]
    results = {}
    for label, chunk_size in (("per_point_s", 1), ("chunked_s", None)):
        profile = ExecProfile()
        start = time.perf_counter()
        sweep(tasks, jobs=jobs, chunk_size=chunk_size, profile=profile)
        results[label] = time.perf_counter() - start
    results["points"] = len(tasks)
    results["jobs"] = jobs
    return results


def bench_fast_forward(nodes: int = 4, iterations_scale: float = 10.0) -> dict:
    """Full vs macro-stepped gear sweep of a long steady-state run.

    Jacobi at 10x its base iteration count (1000 iterations) is the
    fast-forward layer's home turf: a long, provably periodic steady
    state with a short warmup and epilogue.  A small ``max_period``
    makes the detector engage after a handful of iterations, so nearly
    the whole run is extrapolated analytically.
    """
    from repro.core.run import gear_sweep
    from repro.mpi.fastforward import FastForwardConfig

    cluster = athlon_cluster()
    workload = Jacobi(iterations_scale)
    config = FastForwardConfig(max_period=4)

    start = time.perf_counter()
    full = gear_sweep(cluster, workload, nodes=nodes)
    full_s = time.perf_counter() - start
    start = time.perf_counter()
    fast = gear_sweep(cluster, workload, nodes=nodes, fast_forward=config)
    fast_s = time.perf_counter() - start

    gears = []
    for a, b in zip(full.points, fast.points):
        gears.append(
            {
                "gear": a.gear,
                "time_rel_err": abs(a.time - b.time) / a.time,
                "energy_rel_err": abs(a.energy - b.energy) / a.energy,
            }
        )
    return {
        "workload": "Jacobi",
        "iterations": workload.spec.iterations,
        "nodes": nodes,
        "full_s": full_s,
        "fast_s": fast_s,
        "speedup": full_s / fast_s,
        "skipped_iterations": config.aggregate.skipped_iterations,
        "jumps": config.aggregate.jumps,
        "max_rel_err": max(
            max(g["time_rel_err"], g["energy_rel_err"]) for g in gears
        ),
        "gears": gears,
    }


def bench_batch(nodes: int = 4, iterations_scale: float = 10.0) -> dict:
    """Event vs fast-forward vs record/replay batch on one gear sweep.

    The same 1000-iteration Jacobi sweep as :func:`bench_fast_forward`,
    executed a third way: the batch backend records the run once (the
    recording itself macro-stepped) and revalues every gear from the
    tape, so its floor is measured against the *fast-forward* path —
    the strongest prior art in the tree — not just the event path.
    """
    from repro.core.run import gear_sweep
    from repro.exec.batch_sweep import BatchReport
    from repro.exec.tasks import GearSweepTask
    from repro.mpi.fastforward import FastForwardConfig

    cluster = athlon_cluster()
    workload = Jacobi(iterations_scale)

    start = time.perf_counter()
    full = gear_sweep(cluster, workload, nodes=nodes)
    full_s = time.perf_counter() - start

    # The contested timings are ~40 ms regions, so a single shot is at
    # the mercy of scheduler noise; take the best of three after a
    # warm-up so the floor check gates on the kernels, not the jitter.
    def best_of(fn, repeats: int = 3) -> float:
        walls = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            walls.append(time.perf_counter() - start)
        return min(walls)

    fast_s = best_of(
        lambda: gear_sweep(
            cluster,
            workload,
            nodes=nodes,
            fast_forward=FastForwardConfig(max_period=4),
        )
    )

    task = GearSweepTask(
        cluster,
        workload,
        nodes=nodes,
        fast_forward=FastForwardConfig(max_period=4),
    )
    sweep([task], backend="batch")  # warm-up: first call pays numpy dispatch setup
    batch_holder: list = []
    reports: list[BatchReport] = []
    walls: list[float] = []
    for _ in range(3):
        fresh = BatchReport()
        start = time.perf_counter()
        batch_holder[:] = sweep([task], backend="batch", batch_report=fresh)
        walls.append(time.perf_counter() - start)
        reports.append(fresh)
    batch_s = min(walls)
    accounting = reports[walls.index(batch_s)]
    (batch,) = batch_holder

    # Persistent tape cache: a cold sweep records and stores the tape,
    # a warm sweep deserializes it instead of re-recording — the
    # cross-invocation path the executor takes with caching on.
    import tempfile

    from repro.exec.cache import TapeCache

    with tempfile.TemporaryDirectory(prefix="bench-tapes-") as tmp:
        tape_cache = TapeCache(Path(tmp))
        start = time.perf_counter()
        sweep([task], backend="batch", tape_cache=tape_cache)
        tape_cold_s = time.perf_counter() - start
        tape_warm_s = best_of(
            lambda: sweep([task], backend="batch", tape_cache=tape_cache)
        )

    gears = []
    for a, b in zip(full.points, batch.points):
        gears.append(
            {
                "gear": a.gear,
                "time_rel_err": abs(a.time - b.time) / a.time,
                "energy_rel_err": abs(a.energy - b.energy) / a.energy,
            }
        )
    return {
        "workload": "Jacobi",
        "iterations": workload.spec.iterations,
        "nodes": nodes,
        "event_s": full_s,
        "fast_forward_s": fast_s,
        "batch_s": batch_s,
        "speedup_vs_event": full_s / batch_s,
        "speedup_vs_fast_forward": fast_s / batch_s,
        "stages": {
            "record_s": accounting.record_s,
            "replay_s": accounting.replay_s,
            "merge_s": accounting.merge_s,
        },
        "tape_cache_cold_s": tape_cold_s,
        "tape_cache_warm_s": tape_warm_s,
        "groups": accounting.groups,
        "fallback_points": accounting.fallback_points,
        "fallbacks": [
            {"point": f.point, "points": f.points, "reason": f.reason}
            for f in accounting.fallbacks
        ],
        "max_rel_err": max(
            max(g["time_rel_err"], g["energy_rel_err"]) for g in gears
        ),
        "gears": gears,
    }


def _dense_gear_cluster(menu_gears: int):
    """The athlon cluster with an interpolated ``menu_gears``-step menu.

    Frequencies 2000→800 MHz and voltages 1.5→1.0 V, both strictly
    decreasing — the paper's six-gear endpoints, densified.  Dense gear
    menus are what the optimizer layer downstream sweeps, and where
    whole-grid revaluation amortizes its per-grid constant.
    """
    import dataclasses

    from repro.cluster.gears import Gear, GearTable

    base = athlon_cluster()
    steps = []
    for i in range(menu_gears):
        frac = i / (menu_gears - 1)
        steps.append(Gear(i + 1, 2000.0 - 1200.0 * frac, 1.5 - 0.5 * frac))
    cpu = dataclasses.replace(base.node.cpu, gears=GearTable(tuple(steps)))
    node = dataclasses.replace(base.node, cpu=cpu)
    return dataclasses.replace(
        base, node=node, name=f"{base.name}-dense{menu_gears}"
    )


def bench_grid_replay(
    nodes: int = 4, iterations_scale: float = 10.0, menu_gears: int = 16
) -> dict:
    """Vectorized gear-axis replay vs the scalar reference interpreter.

    Both modes revalue the *same* certified tape (a dense non-macro-
    stepped 1000-iteration Jacobi recording, ~50k ops), so the timing
    isolates exactly the tentpole: per-gear scalar walks vs one
    ``(gears × ops)`` NumPy pass.  The compiled form is warmed first —
    compilation is a one-time cost cached on the tape — and each mode
    takes the best of three replay-only walls.
    """
    from repro.sim.batch import ReplayStats, record_tape, replay_grid

    cluster = _dense_gear_cluster(menu_gears)
    workload = Jacobi(iterations_scale)
    tape = record_tape(cluster, workload, nodes=nodes, gear=1)
    grid = list(cluster.gears.indices)

    def best_of(fn, repeats: int = 3) -> float:
        walls = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            walls.append(time.perf_counter() - start)
        return min(walls)

    replay_grid(tape, grid, mode="grid")  # warm: compile + numpy setup
    replay_grid(tape, grid, mode="scalar")
    grid_s = best_of(lambda: replay_grid(tape, grid, mode="grid"))
    scalar_s = best_of(lambda: replay_grid(tape, grid, mode="scalar"))

    stats = ReplayStats()
    vector_results = replay_grid(tape, grid, mode="grid", stats=stats)
    scalar_results = replay_grid(tape, grid, mode="scalar")
    gears = []
    for a, b in zip(scalar_results, vector_results):
        gears.append(
            {
                "gear": a.gear,
                "time_rel_err": abs(a.time - b.time) / a.time,
                "energy_rel_err": abs(a.energy - b.energy) / a.energy,
            }
        )
    return {
        "workload": "Jacobi",
        "iterations": workload.spec.iterations,
        "nodes": nodes,
        "menu_gears": menu_gears,
        "tape_ops": sum(len(rank_ops) for rank_ops in tape.ops),
        "grid_s": grid_s,
        "scalar_s": scalar_s,
        "grid_over_scalar_speedup": scalar_s / grid_s,
        "vector_gears": stats.vector_gears,
        "scalar_gears": stats.scalar_gears,
        "fallback_reasons": list(stats.fallback_reasons),
        "max_rel_err": max(
            max(g["time_rel_err"], g["energy_rel_err"]) for g in gears
        ),
        "gears": gears,
    }


def run_bench(scale: float, engine_events: int) -> dict:
    """All four sections; returns the BENCH_sim.json payload."""
    report: dict = {
        "scale": scale,
        "engine_events_per_sec": bench_engine(engine_events),
        "world_events_per_sec": bench_world(scale),
    }
    report.update(bench_suite(scale))
    report["observed_over_serial"] = (
        report["suite_observed_s"] / report["suite_serial_s"]
    )
    report["dispatch"] = bench_dispatch(scale)
    report["fast_forward"] = bench_fast_forward()
    report["batch"] = bench_batch()
    report["grid_replay"] = bench_grid_replay()
    return report


def render_report(report: dict) -> str:
    """The human-readable side of the JSON payload."""
    table = TextTable(
        ["metric", "value"],
        title=f"Simulation kernel benchmark (scale {report['scale']})",
    )
    table.add_row(
        ["engine throughput", f"{report['engine_events_per_sec']:,.0f} events/s"]
    )
    table.add_row(
        ["world throughput", f"{report['world_events_per_sec']:,.0f} events/s"]
    )
    table.add_row(["suite serial", f"{report['suite_serial_s']:.2f} s"])
    table.add_row(
        [
            "suite observed",
            f"{report['suite_observed_s']:.2f} s "
            f"({report['observed_over_serial']:.2f}x serial)",
        ]
    )
    dispatch = report["dispatch"]
    table.add_row(
        [
            f"dispatch ({dispatch['points']} pts, {dispatch['jobs']} jobs)",
            f"per-point {dispatch['per_point_s']:.2f} s, "
            f"chunked {dispatch['chunked_s']:.2f} s",
        ]
    )
    ff = report["fast_forward"]
    table.add_row(
        [
            f"fast-forward ({ff['iterations']} iters, {ff['nodes']} nodes)",
            f"full {ff['full_s']:.2f} s, macro-stepped {ff['fast_s']:.2f} s "
            f"({ff['speedup']:.1f}x, max rel err {ff['max_rel_err']:.1e})",
        ]
    )
    batch = report["batch"]
    fell = (
        f", {batch['fallback_points']} point(s) fell back"
        if batch["fallback_points"]
        else ""
    )
    table.add_row(
        [
            f"batch ({batch['iterations']} iters, {batch['nodes']} nodes)",
            f"replay {batch['batch_s']:.2f} s "
            f"({batch['speedup_vs_event']:.1f}x event, "
            f"{batch['speedup_vs_fast_forward']:.1f}x fast-forward, "
            f"max rel err {batch['max_rel_err']:.1e}{fell})",
        ]
    )
    stages = batch["stages"]
    table.add_row(
        [
            "batch stages",
            f"record {stages['record_s']:.2f} s, "
            f"replay {stages['replay_s']:.2f} s, "
            f"merge {stages['merge_s']:.3f} s",
        ]
    )
    table.add_row(
        [
            "batch tape cache",
            f"cold {batch['tape_cache_cold_s']:.2f} s, "
            f"warm {batch['tape_cache_warm_s']:.2f} s "
            f"({batch['tape_cache_cold_s'] / batch['tape_cache_warm_s']:.1f}x)",
        ]
    )
    grid = report["grid_replay"]
    table.add_row(
        [
            f"grid replay ({grid['menu_gears']} gears, "
            f"{grid['tape_ops']} ops)",
            f"vector {grid['grid_s'] * 1e3:.0f} ms, "
            f"scalar {grid['scalar_s'] * 1e3:.0f} ms "
            f"({grid['grid_over_scalar_speedup']:.1f}x, "
            f"max rel err {grid['max_rel_err']:.1e}, "
            f"{grid['scalar_gears']} scalar)",
        ]
    )
    return table.render()


def check_baseline(report: dict, path: Path) -> list[str]:
    """Regression failures vs the committed floor (empty = healthy)."""
    baseline = json.loads(path.read_text())
    failures = []
    for key in ("engine_events_per_sec", "world_events_per_sec"):
        floor = baseline[key] * REGRESSION_FLOOR
        if report[key] < floor:
            failures.append(
                f"{key}: {report[key]:,.0f} events/s is below "
                f"{REGRESSION_FLOOR:.0%} of the baseline "
                f"({baseline[key]:,.0f} events/s)"
            )
    if report["observed_over_serial"] > 1.5:
        failures.append(
            "observed-mode suite is "
            f"{report['observed_over_serial']:.2f}x serial (limit 1.5x) — "
            "observability hooks are no longer zero-cost when disabled"
        )
    ff = report["fast_forward"]
    floor = baseline.get("fast_forward_speedup")
    if floor is not None and ff["speedup"] < floor:
        failures.append(
            f"fast-forward speedup {ff['speedup']:.1f}x is below the "
            f"baseline floor ({floor:.1f}x)"
        )
    if ff["max_rel_err"] > 1e-9:
        failures.append(
            f"fast-forward equivalence error {ff['max_rel_err']:.2e} "
            "exceeds 1e-9 — macro-stepping is no longer exact"
        )
    batch = report["batch"]
    floor = baseline.get("batch_over_ff_speedup")
    if floor is not None and batch["speedup_vs_fast_forward"] < floor:
        failures.append(
            f"batch speedup {batch['speedup_vs_fast_forward']:.1f}x over "
            f"fast-forward is below the baseline floor ({floor:.1f}x)"
        )
    if batch["max_rel_err"] > 1e-9:
        failures.append(
            f"batch equivalence error {batch['max_rel_err']:.2e} "
            "exceeds 1e-9 — tape replay is drifting from the engine"
        )
    if batch["fallback_points"]:
        failures.append(
            f"{batch['fallback_points']} batch grid point(s) fell back to "
            "the event engine — the Jacobi sweep must certify cleanly: "
            + "; ".join(f["reason"] for f in batch["fallbacks"])
        )
    grid = report["grid_replay"]
    floor = baseline.get("grid_over_scalar_speedup")
    if floor is not None and grid["grid_over_scalar_speedup"] < floor:
        failures.append(
            f"vectorized grid replay {grid['grid_over_scalar_speedup']:.1f}x "
            f"over scalar is below the baseline floor ({floor:.1f}x)"
        )
    if grid["max_rel_err"] > 1e-9:
        failures.append(
            f"grid-replay equivalence error {grid['max_rel_err']:.2e} "
            "exceeds 1e-9 — the vectorized walk is drifting from the "
            "scalar interpreter"
        )
    if grid["scalar_gears"] or grid["fallback_reasons"]:
        failures.append(
            f"vectorized replay silently narrowed: {grid['scalar_gears']} "
            f"scalar gear(s), reasons {grid['fallback_reasons']!r} — the "
            "dense Jacobi menu must revalue fully vectorized"
        )
    return failures


def test_sim_kernel(benchmark, bench_scale):
    """Kernel throughput plus the zero-cost-observability bound."""
    from conftest import run_once

    report = run_once(benchmark, run_bench, bench_scale, 100_000)
    print()
    print(render_report(report))
    assert report["observed_over_serial"] <= 1.5
    assert not check_baseline(report, BASELINE_PATH)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small workload scale and event count (the CI smoke setting)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="workload scale (default 0.3, or 0.05 with --quick)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        default="BENCH_sim.json",
        help="where to write the JSON report (default: ./BENCH_sim.json)",
    )
    parser.add_argument(
        "--check-baseline",
        nargs="?",
        const=str(BASELINE_PATH),
        default=None,
        metavar="FILE",
        help="fail if throughput regresses >20%% vs this baseline "
        "(default file: benchmarks/BENCH_baseline.json)",
    )
    args = parser.parse_args(argv)
    scale = args.scale if args.scale is not None else (0.05 if args.quick else 0.3)
    engine_events = 100_000 if args.quick else 400_000
    report = run_bench(scale, engine_events)
    print(render_report(report))
    Path(args.output).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"[report written to {args.output}]")
    equivalence = Path(args.output).parent / "FF_equivalence.json"
    equivalence.write_text(
        json.dumps(report["fast_forward"], indent=2, sort_keys=True) + "\n"
    )
    print(f"[fast-forward equivalence written to {equivalence}]")
    batch_detail = Path(args.output).parent / "BENCH_batch.json"
    batch_detail.write_text(
        json.dumps(
            {"batch": report["batch"], "grid_replay": report["grid_replay"]},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"[batch backend detail written to {batch_detail}]")
    if args.check_baseline:
        failures = check_baseline(report, Path(args.check_baseline))
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("[no regression vs baseline]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
