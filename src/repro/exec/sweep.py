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

Accounting: every run the sweep returns leaves one row in a
:class:`~repro.exec.record.RunRecord` — its tier, host seconds, cache
latencies and the fast-forward stats of the World that produced it —
and every batch group one group row.  Each unit's outcome brings its
rows back from wherever it ran, so inline and pooled sweeps account
alike, and the merge adds them in one place.

Observability: an ``observer`` (see :mod:`repro.obs.observer`) rides
along every simulation — which forces the sweep inline, uncached and
onto the event engine, because a cached, replayed or out-of-process
run produces no events to observe.
"""

from __future__ import annotations

import dataclasses
import math
import time
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, NamedTuple, Sequence

from repro.core.run import RunMeasurement
from repro.exec.batch_sweep import (
    BATCHABLE,
    _form_units,
    _run_unit,
    _Unit,
    batch_cache_key,
)
from repro.exec.cache import ResultCache, TapeCache
from repro.exec.fingerprint import code_version_token, fingerprint
from repro.exec.record import (
    CACHE,
    EVENT,
    FALLBACK,
    REPLAY,
    GroupRow,
    RunRecord,
    RunRow,
)
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
    #: One row per result; the merge adds the cache latencies.
    rows: list[RunRow]
    #: The batch group's row, or None for a run on the event engine.
    group: GroupRow | None
    #: Tape-cache entries discarded (failed to load or to replay) and
    #: re-recorded.
    tapes_invalidated: int


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

    A unit's runs share its in-worker wall seconds evenly; worker
    startup and IPC stay excluded.
    """
    tapes = TapeCache(tape_root) if tape_root is not None else None
    outcomes = []
    for index, unit in enumerate(units):
        start = time.perf_counter()
        invalidated = tapes.stats.invalidated if tapes is not None else 0
        try:
            if unit.batch:
                results, group, recording_ff = _run_unit(unit, tapes)
            else:
                # Only pass the observer when one is attached: tasks that
                # predate observability keep their plain run() signature.
                extra = {"observer": observer} if observer is not None else {}
                results = [unit.tasks[0].run(**extra)]
                group = recording_ff = None
        except Exception as exc:
            raise _ChunkPointError(index, exc) from exc
        if group is not None and group.fallback is None:
            # A replay: the recording's stats go to the first run it served.
            tier = REPLAY
            stats = [recording_ff] + [None] * (len(results) - 1)
        else:
            tier = EVENT if group is None else FALLBACK
            stats = [_stats(result) for result in results]
        share = (time.perf_counter() - start) / len(results)
        outcomes.append(
            _Outcome(
                [_headline(result) for result in results],
                [
                    RunRow(task.key, tier, share, ff=ff)
                    for task, ff in zip(unit.tasks, stats)
                ],
                group,
                tapes.stats.invalidated - invalidated if tapes else 0,
            )
        )
    return outcomes


def _stats(result: Any) -> FastForwardStats | None:
    """Fast-forward stats of the World behind an event-engine result."""
    if isinstance(result, RunMeasurement) and result.result is not None:
        return result.result.fast_forward
    return None


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
    chunk_size: int | None = None,
    backend: str = "event",
    tape_cache: TapeCache | None = None,
    record: RunRecord | None = None,
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
        tape_cache: optional :class:`repro.exec.cache.TapeCache`
            persisting batch recordings across sweeps and processes
            (batch backend only).  ``None`` keeps every recording
            inside the unit that made it.
        record: optional :class:`~repro.exec.record.RunRecord` that
            receives this sweep's run and group rows.

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
    if record is None:
        record = RunRecord()
    if observer is not None:
        # Cached or replayed runs would produce no events to observe.
        cache = None
        backend = "event"
    batched = backend == "batch"

    plans = [task.runs() for task in ordered]
    measured: list[list[Any]] = [[None] * len(runs) for runs in plans]
    rows: list[list[Any]] = [[None] * len(runs) for runs in plans]
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
            rows[slot][position] = RunRow(run.key, CACHE, lookup_s=lookup_s)

    if batched:
        units = _form_units([(ordered[p.slot], p.run) for p in pending])
    else:
        units = [_Unit([p.run], [index]) for index, p in enumerate(pending)]
    tape_root = None
    if batched and tape_cache is not None:
        tape_root = Path(tape_cache.root)
        record.tape_cache = True
    if jobs > 1 and len(units) > 1 and observer is None:
        size = chunk_size or _auto_chunk_size(len(units), jobs)
        outcomes = _run_pool(units, jobs, size, tape_root, record)
    else:
        try:
            outcomes = _run_chunk(units, tape_root, observer)
        except _ChunkPointError as exc:
            raise _point_error(units[exc.index].tasks[0], exc.cause) from exc.cause

    merge_start = time.perf_counter()
    for unit, outcome in zip(units, outcomes):
        for index, result, row in zip(unit.indices, outcome.results, outcome.rows):
            slot, position = pending[index][:2]
            measured[slot][position] = result
            rows[slot][position] = row
        if outcome.group is not None:
            record.groups.append(outcome.group)
        if tape_cache is not None:
            tape_cache.stats.invalidated += outcome.tapes_invalidated
    for slot, position, run, key, lookup_s in pending:
        store_s = 0.0
        if cache is not None and key is not None:
            store_start = time.perf_counter()
            meta: dict[str, Any] = {"point": [str(part) for part in run.key]}
            scenario = getattr(run, "scenario", None)
            if scenario:
                meta["scenario"] = scenario
            cache.store(key, run.encode(measured[slot][position]), meta=meta)
            store_s = time.perf_counter() - store_start
        rows[slot][position] = rows[slot][position]._replace(
            lookup_s=lookup_s, store_s=store_s
        )
    record.merge_s += time.perf_counter() - merge_start
    for point_rows in rows:
        record.runs.extend(point_rows)
    results = []
    for task, runs in zip(ordered, measured):
        try:
            results.append(task.assemble(runs))
        except Exception as exc:
            raise _point_error(task, exc) from exc
    record.wall_s += time.perf_counter() - sweep_start
    return results


def _run_pool(
    units: Sequence[_Unit],
    jobs: int,
    chunk_size: int,
    tape_root: Path | None,
    record: RunRecord,
) -> list[_Outcome]:
    """Run unit chunks on a process pool; outcomes come back in unit order.

    Each chunk records its batch groups' tapes itself, exactly as the
    inline path does.
    """
    chunks = [units[i : i + chunk_size] for i in range(0, len(units), chunk_size)]
    workers = min(jobs, len(chunks))
    record.workers = max(record.workers, workers)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_chunk, chunk, tape_root) for chunk in chunks]
        wait(futures, return_when=FIRST_EXCEPTION)
        outcomes = []
        for chunk, future in zip(chunks, futures):
            try:
                outcomes.extend(future.result())
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
    return outcomes
