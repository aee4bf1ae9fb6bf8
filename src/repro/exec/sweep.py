"""Fan a set of simulation points out, merge results deterministically.

:func:`sweep` is the one concurrency primitive of the package, and the
only lookup → dispatch → merge path for both backends.  It works on
*runs*: every point lists its runs (:meth:`SimTask.runs`), and the run
is the only unit the sweep looks up, simulates and stores.  A composite
point (a gear sweep, a calibration) is assembled from its runs in the
parent, after the merge.  The contract that makes it safe to drop into
the experiment harness:

- **Deterministic merge.**  Results come back in the order the tasks
  were given — never in completion order — so a parallel run is
  byte-identical to a serial one.
- **Cache transparency.**  With a cache, each run is looked up by its
  content fingerprint first and only misses are executed (then stored).
  A warm sweep does no simulation at all, and a point whose runs another
  point already computed is served from their entries.
- **Failure naming.**  Any exception in a worker is re-raised in the
  caller as a :class:`~repro.util.errors.SimulationError` naming the
  failing run's key, with the original exception chained as the cause;
  a failing assembly names its point.

Repeats inside one sweep are not merged: every run a point lists is
looked up, and two points of one sweep that miss on the same run both
simulate it.  Each repeat in the paper suite sits in a later experiment
than the run it repeats, so the cache serves it.

Dispatch: the missed runs are partitioned into *units*, the pieces of
work that are never split.  Under ``backend="event"`` every run is its
own unit; under ``backend="batch"``
:func:`repro.exec.batch_sweep._form_units` folds runs that share a
recording into one unit.  Units run inline (``jobs=1``) or in chunks of
consecutive units on a process pool, through the same in-worker chunk
function, and their results scatter back to run order.

Observability: an ``observer`` (see :mod:`repro.obs.observer`) rides
along every simulation — which forces the sweep inline, uncached and
onto the event engine, because a cached, replayed or out-of-process
run produces no events to observe.  A ``profile``
(:class:`~repro.exec.profile.ExecProfile`) records host wall time per
run and per cache interaction in every mode.
"""

from __future__ import annotations

import dataclasses
import math
import tempfile
import time
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from contextlib import ExitStack
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, NamedTuple, Sequence

from repro.core.run import RunMeasurement
from repro.exec.batch_sweep import (
    BATCHABLE,
    BatchFallback,
    BatchReport,
    _form_units,
    _missing_tapes,
    _run_unit,
    _Unit,
    _warm_tapes,
    batch_cache_key,
)
from repro.exec.cache import ResultCache, TapeCache
from repro.exec.fingerprint import code_version_token, fingerprint
from repro.exec.profile import SOURCE_CACHE, SOURCE_RUN, ExecProfile, TaskTiming
from repro.exec.tasks import RunTask, SimTask
from repro.mpi.fastforward import FastForwardStats
from repro.util.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.observer import RunObserver

#: Backends :func:`sweep` accepts.
BACKENDS = ("event", "batch")


def check_backend(backend: str) -> None:
    """Reject a backend name that is not in :data:`BACKENDS`."""
    if backend not in BACKENDS:
        known = ", ".join(repr(b) for b in BACKENDS)
        raise ConfigurationError(
            f"unknown backend {backend!r}; choose from {known}"
        )


def cache_key(task: RunTask) -> str:
    """The content-addressed cache key of one run."""
    return fingerprint(
        {"task": task.describe(), "code_version": code_version_token()}
    )


def _ff_ledger(task: SimTask) -> FastForwardStats | None:
    """A copy of the fast-forward ledger of this task's config, or None.

    The config's cross-run ``aggregate`` ledger; sampling it before and
    after a unit runs attributes the difference (:func:`_ff_delta`) to
    that unit.  Works identically inline and inside a pool worker: the
    worker mutates its own pickled copy of the config, and the delta
    travels back with the unit's outcome to be merged into the
    parent's ledger (:func:`_merge_ff`).
    """
    config = getattr(task, "fast_forward", None)
    return None if config is None else dataclasses.replace(config.aggregate)


def _ff_delta(
    task: SimTask, before: FastForwardStats | None
) -> FastForwardStats | None:
    """What fast-forward did under the task's config since ``before``."""
    if before is None:
        return None
    after = task.fast_forward.aggregate  # type: ignore[attr-defined]
    return FastForwardStats(
        **{
            f.name: getattr(after, f.name) - getattr(before, f.name)
            for f in dataclasses.fields(FastForwardStats)
        }
    )


def _merge_ff(task: SimTask, delta: FastForwardStats | None) -> None:
    """Fold a pool worker's ledger delta into the parent's config, so
    pooled and inline sweeps report the same totals."""
    if delta is not None:
        task.fast_forward.aggregate.merge(delta)  # type: ignore[attr-defined]


class _Pending(NamedTuple):
    """One run to simulate: the cache missed it, or there is no cache."""

    #: Position of the point that lists the run, in task order.
    slot: int
    #: Position of the run in that point's ``runs()``.
    position: int
    run: RunTask
    #: Result-cache key, or None without a cache.
    key: str | None
    lookup_s: float


class _Outcome(NamedTuple):
    """What running one unit produced, as it travels back from a worker."""

    #: Results in unit order.
    results: list[Any]
    #: Batch fallback reason, or None.
    fallback: str | None
    record_s: float
    replay_s: float
    #: The unit's wall seconds (chunk overhead spread evenly).
    wall_s: float
    #: Fast-forward ledger delta of the unit's config (None without one).
    ff: FastForwardStats | None
    #: Tape-cache entries discarded (failed to load or to replay) and
    #: re-recorded.
    tapes_invalidated: int
    #: Whether the unit replayed a tape loaded from the store.
    tape_loaded: bool


class _ChunkPointError(Exception):
    """One unit of a chunk failed.

    Carries the chunk-local unit index so the caller can name the exact
    failing point, and the original exception as the cause to chain.
    Built from plain ``args`` so it pickles across the process boundary.
    """

    def __init__(self, index: int, cause: BaseException):
        super().__init__(index, cause)
        self.index = index
        self.cause = cause


def _run_chunk(
    units: Sequence[_Unit],
    tape_root: Path | None = None,
    observer: "RunObserver | None" = None,
) -> list[_Outcome]:
    """Run consecutive units in this process: inline, or one worker call.

    The chunk's own loop overhead is spread evenly over the units, so
    their wall seconds sum to the chunk's wall measured here; worker
    startup and IPC stay excluded.
    """
    chunk_start = time.perf_counter()
    tapes = TapeCache(tape_root) if tape_root is not None else None
    runs = []
    for index, unit in enumerate(units):
        start = time.perf_counter()
        ledger = _ff_ledger(unit.tasks[0])
        invalidated = tapes.stats.invalidated if tapes is not None else 0
        try:
            if unit.batch:
                done = _run_unit(unit, tapes)
            elif observer is not None:
                # Only pass the observer when one is attached: tasks that
                # predate observability keep their plain run() signature.
                done = [unit.tasks[0].run(observer=observer)], None, 0.0, 0.0, False
            else:
                done = [unit.tasks[0].run()], None, 0.0, 0.0, False
        except Exception as exc:
            raise _ChunkPointError(index, exc) from exc
        results, fallback, record_s, replay_s, loaded = done
        runs.append(
            _Outcome(
                [_headline(result) for result in results],
                fallback,
                record_s,
                replay_s,
                wall_s=time.perf_counter() - start,
                ff=_ff_delta(unit.tasks[0], ledger),
                tapes_invalidated=(
                    tapes.stats.invalidated - invalidated if tapes else 0
                ),
                tape_loaded=loaded,
            )
        )
    if not runs:
        return []
    overhead = time.perf_counter() - chunk_start - sum(r.wall_s for r in runs)
    residual = overhead / len(runs)
    return [r._replace(wall_s=r.wall_s + residual) for r in runs]


def _headline(result: Any) -> Any:
    """A run's result as the executor returns it: without the event-level
    :class:`~repro.mpi.world.WorldResult` (see :class:`RunMeasurement`),
    so no run's meters and traces outlive its unit or cross a pipe."""
    if isinstance(result, RunMeasurement) and result.result is not None:
        return dataclasses.replace(result, result=None)
    return result


def _point_error(task: SimTask, exc: BaseException) -> SimulationError:
    """Name a failing point, by scenario when the task carries one.

    The scenario name is resolved on the *caller's* task object, so the
    report is identical whether the point failed inline or inside a
    pool worker (the exception crosses the process boundary carrying
    only the chunk-local index).
    """
    scenario = getattr(task, "scenario", None)
    where = f" of scenario {scenario!r}" if scenario else ""
    return SimulationError(
        f"sweep point {task.key!r}{where} failed: {type(exc).__name__}: {exc}"
    )


def _auto_chunk_size(units: int, jobs: int) -> int:
    """Default chunk size: about four chunks per worker.

    Large enough to amortize pickling/IPC per dispatch, small enough
    that an uneven last wave cannot idle most of the pool.
    """
    workers = min(jobs, units)
    if workers <= 0:
        return 1
    return max(1, math.ceil(units / (workers * 4)))


def sweep(
    tasks: Iterable[SimTask],
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    observer: "RunObserver | None" = None,
    profile: ExecProfile | None = None,
    chunk_size: int | None = None,
    backend: str = "event",
    batch_report: BatchReport | None = None,
    tape_cache: TapeCache | None = None,
) -> list[Any]:
    """Execute simulation points, possibly in parallel, possibly cached.

    Args:
        tasks: the points; keys must be unique.
        jobs: worker processes.  1 (the default) runs inline in this
            process; N > 1 runs the missed runs on a process pool of up
            to N workers.
        cache: optional on-disk result cache consulted before running
            and filled after.
        observer: optional run observer.  Observed sweeps run inline,
            bypass the cache and use the event engine — a replayed or
            out-of-process run has no gear events or trace records to
            observe.  Observation never changes results (the simulator
            is deterministic).
        profile: optional profile accumulating per-run wall time and
            cache-latency accounting across this sweep.
        chunk_size: units dispatched per worker call when ``jobs > 1``
            (amortizes pickling/IPC).  ``None`` picks about four chunks
            per worker.  Chunks are consecutive units in first-seen
            order, so chunking never changes results or merge order.
            Under the event backend a unit is one run; under the
            batch backend it is one batch group or passthrough run,
            so one recording is never split across workers.
        backend: ``"event"`` (the default) simulates every run
            independently; ``"batch"`` records gear-groupable runs
            once and replays the grid (see
            :mod:`repro.exec.batch_sweep`; results equal to ~1e-9,
            cached under distinct keys).
        batch_report: optional
            :class:`repro.exec.batch_sweep.BatchReport` accumulating
            grouping/fallback/tape-cache/stage-timing accounting (batch
            backend only).
        tape_cache: optional :class:`repro.exec.cache.TapeCache`
            persisting batch recordings across sweeps and processes
            (batch backend only).  ``None`` keeps recordings
            sweep-local; a pooled batch sweep still shares them between
            its workers through a temporary store.

    Returns:
        One result per task, in task order regardless of completion
        order or cache state.

    Raises:
        ConfigurationError: duplicate task keys, an unknown ``backend``,
            ``jobs < 1``, or ``chunk_size < 1``.
        SimulationError: a run failed, or a point could not be
            assembled from its runs; the message names the run's or the
            point's key and the original exception is chained as
            ``__cause__``.
    """
    check_backend(backend)
    ordered: Sequence[SimTask] = list(tasks)
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if chunk_size is not None and chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    seen: set[tuple] = set()
    for task in ordered:
        if task.key in seen:
            raise ConfigurationError(f"duplicate sweep point key {task.key!r}")
        seen.add(task.key)

    sweep_start = time.perf_counter()
    if observer is not None:
        # Cached or replayed runs would produce no events to observe.
        cache = None
        backend = "event"
    batched = backend == "batch"
    report = batch_report if batched else None

    plans = [task.runs() for task in ordered]
    measured: list[list[Any]] = [[None] * len(runs) for runs in plans]
    pending: list[_Pending] = []
    for slot, runs in enumerate(plans):
        for position, run in enumerate(runs):
            if cache is None:
                pending.append(_Pending(slot, position, run, None, 0.0))
                continue
            lookup_start = time.perf_counter()
            if batched and type(run) in BATCHABLE:
                key = batch_cache_key(run)
            else:
                key = cache_key(run)
            result = cache.load(key, run.decode)
            lookup_s = time.perf_counter() - lookup_start
            if result is None:
                pending.append(_Pending(slot, position, run, key, lookup_s))
                continue
            measured[slot][position] = result
            if profile is not None:
                profile.add(
                    TaskTiming(
                        key=str(run.key),
                        source=SOURCE_CACHE,
                        seconds=0.0,
                        lookup_s=lookup_s,
                    )
                )

    if batched:
        units = _form_units([(ordered[p.slot], p.run) for p in pending])
        if report is not None:
            report.count_units(units, tape_cache)
    else:
        units = [_Unit([p.run], [index]) for index, p in enumerate(pending)]
    tape_root = None
    if batched and tape_cache is not None:
        tape_root = Path(tape_cache.root)
    if jobs > 1 and len(units) > 1 and observer is None:
        size = chunk_size or _auto_chunk_size(len(units), jobs)
        outcomes = _run_pool(units, jobs, size, tape_root, profile, report)
    else:
        try:
            outcomes = _run_chunk(units, tape_root, observer)
        except _ChunkPointError as exc:
            raise _point_error(units[exc.index].tasks[0], exc.cause) from exc.cause

    merge_start = time.perf_counter()
    computed: list[Any] = [None] * len(pending)
    seconds = [0.0] * len(pending)
    skips = [0] * len(pending)
    for unit, outcome in zip(units, outcomes):
        # A unit's runs share its wall (plus any warm-phase recording)
        # evenly, so the rows still sum to the measured walls; the
        # fast-forward delta goes to the first run, as the ledger saw
        # one recording run.
        share = (outcome.wall_s + unit.warm_s) / len(unit.tasks)
        for index, result in zip(unit.indices, outcome.results):
            computed[index] = result
            seconds[index] = share
        skipped = outcome.ff.skipped_iterations if outcome.ff else 0
        skips[unit.indices[0]] = skipped + unit.warm_skipped
        if tape_cache is not None:
            tape_cache.stats.invalidated += outcome.tapes_invalidated
        if report is not None:
            report.record_s += outcome.record_s
            report.replay_s += outcome.replay_s
            if outcome.fallback is not None:
                report.fallbacks.append(
                    BatchFallback(
                        point=str(unit.tasks[0].key),
                        points=len(unit.tasks),
                        reason=outcome.fallback,
                    )
                )
    for index, (slot, position, run, key, lookup_s) in enumerate(pending):
        result = measured[slot][position] = computed[index]
        store_s = 0.0
        if cache is not None and key is not None:
            store_start = time.perf_counter()
            meta: dict[str, Any] = {"point": [str(part) for part in run.key]}
            scenario = getattr(run, "scenario", None)
            if scenario:
                meta["scenario"] = scenario
            cache.store(key, run.encode(result), meta=meta)
            store_s = time.perf_counter() - store_start
        if profile is not None:
            profile.add(
                TaskTiming(
                    key=str(run.key),
                    source=SOURCE_RUN,
                    seconds=seconds[index],
                    lookup_s=lookup_s,
                    store_s=store_s,
                    ff_skipped=skips[index],
                )
            )
    if report is not None:
        if tape_cache is not None:
            report.count_tapes(units, [outcome.tape_loaded for outcome in outcomes])
        report.merge_s += time.perf_counter() - merge_start
    results = []
    for task, runs in zip(ordered, measured):
        try:
            results.append(task.assemble(runs))
        except Exception as exc:
            raise _point_error(task, exc) from exc
    if profile is not None:
        profile.wall_s += time.perf_counter() - sweep_start
    return results


def _run_pool(
    units: Sequence[_Unit],
    jobs: int,
    chunk_size: int,
    tape_root: Path | None,
    profile: ExecProfile | None,
    report: BatchReport | None,
) -> list[_Outcome]:
    """Run unit chunks on a process pool; outcomes come back in unit order.

    Batch units first get their missing tapes recorded on the same pool,
    one task per tape (:func:`repro.exec.batch_sweep._warm_tapes`), so
    the chunks that follow replay from the tape store.
    """
    chunks = [units[i : i + chunk_size] for i in range(0, len(units), chunk_size)]
    with ExitStack() as stack:
        if tape_root is None and any(unit.batch for unit in units):
            # No persistent cache: an ephemeral sweep-local store still
            # lets the warm phase hand tapes to the unit workers.
            tape_dir = tempfile.TemporaryDirectory(prefix="repro-tapes-")
            tape_root = Path(stack.enter_context(tape_dir))
        missing = _missing_tapes(units, tape_root) if tape_root is not None else {}
        workers = min(jobs, max(len(chunks), len(missing)))
        if profile is not None:
            profile.workers = max(profile.workers, workers)
        pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
        if missing:
            _warm_tapes(missing, pool, tape_root, report)  # type: ignore[arg-type]
        futures = [pool.submit(_run_chunk, chunk, tape_root) for chunk in chunks]
        wait(futures, return_when=FIRST_EXCEPTION)
        outcomes = []
        for chunk, future in zip(chunks, futures):
            try:
                chunk_outcomes = future.result()
            except _ChunkPointError as exc:
                for other in futures:
                    other.cancel()
                failed = chunk[exc.index].tasks[0]
                raise _point_error(failed, exc.cause) from exc.cause
            except Exception as exc:
                # Infrastructure failure (e.g. a broken pool): no unit
                # index to blame, so name the chunk's first point.
                for other in futures:
                    other.cancel()
                raise _point_error(chunk[0].tasks[0], exc) from exc
            for unit, outcome in zip(chunk, chunk_outcomes):
                _merge_ff(unit.tasks[0], outcome.ff)
                if unit.tape_key in missing:
                    # The warm phase recorded the tape this unit loaded.
                    outcome = outcome._replace(tape_loaded=False)
                outcomes.append(outcome)
    return outcomes
