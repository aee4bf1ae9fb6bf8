"""Fan a set of simulation points out, merge results deterministically.

:func:`sweep` is the one concurrency primitive of the package.  The
contract that makes it safe to drop into the experiment harness:

- **Deterministic merge.**  Results come back in the order the tasks
  were given — never in completion order — so a parallel run is
  byte-identical to a serial one.
- **Cache transparency.**  With a cache, each point is looked up by its
  content fingerprint first and only misses are executed (then stored).
  A warm sweep does no simulation at all.
- **Failure naming.**  Any exception in a worker is re-raised in the
  caller as a :class:`~repro.util.errors.SimulationError` naming the
  failing point's key, with the original exception chained as the cause.

Observability: an ``observer`` (see :mod:`repro.obs.observer`) rides
along every simulation — which forces the sweep inline and uncached,
because a cached or out-of-process point produces no events to observe.
A ``profile`` (:class:`~repro.exec.profile.ExecProfile`) records host
wall time per point and per cache interaction in every mode.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.exec.cache import ResultCache
from repro.exec.fingerprint import code_version_token, fingerprint
from repro.exec.profile import SOURCE_CACHE, SOURCE_RUN, ExecProfile, TaskTiming
from repro.exec.tasks import SimTask
from repro.util.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.observer import RunObserver


def cache_key(task: SimTask) -> str:
    """The content-addressed cache key of one simulation point."""
    return fingerprint(
        {"task": task.describe(), "code_version": code_version_token()}
    )


def _execute(task: SimTask) -> Any:
    """Run one task; module-level so process pools can pickle it."""
    return task.run()


def _execute_timed(task: SimTask) -> tuple[Any, float]:
    """Run one task in a worker, returning (result, wall seconds)."""
    start = time.perf_counter()
    result = task.run()
    return result, time.perf_counter() - start


def _ff_skipped(task: SimTask) -> int:
    """Iterations fast-forward has skipped under this task's config so far.

    Reads the config's cross-run ``aggregate`` ledger; sampling it
    before and after a point runs attributes the delta to that point.
    Works identically inline and inside a pool worker (the worker
    mutates its own pickled copy of the config and the delta travels
    back with the chunk's timings).
    """
    config = getattr(task, "fast_forward", None)
    if config is None:
        return 0
    return config.aggregate.skipped_iterations


class _ChunkPointError(Exception):
    """One point of a chunk failed in a worker.

    Carries the chunk-local index so the caller can name the exact
    failing point, and the original exception as the cause to chain.
    Built from plain ``args`` so it pickles across the process boundary.
    """

    def __init__(self, index: int, cause: BaseException):
        super().__init__(index, cause)
        self.index = index
        self.cause = cause


def _execute_chunk(
    tasks: Sequence[SimTask],
) -> tuple[list[Any], list[float], float, list[int]]:
    """Run a chunk of tasks in one worker call.

    Returns (results, per-point wall seconds, chunk wall seconds,
    per-point fast-forwarded iterations), all measured inside the worker
    so IPC and worker startup are excluded.
    """
    chunk_start = time.perf_counter()
    results: list[Any] = []
    seconds: list[float] = []
    ff_skips: list[int] = []
    for index, task in enumerate(tasks):
        start = time.perf_counter()
        skipped_before = _ff_skipped(task)
        try:
            results.append(task.run())
        except Exception as exc:
            raise _ChunkPointError(index, exc) from exc
        seconds.append(time.perf_counter() - start)
        ff_skips.append(_ff_skipped(task) - skipped_before)
    return results, seconds, time.perf_counter() - chunk_start, ff_skips


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


def _auto_chunk_size(points: int, jobs: int) -> int:
    """Default chunk size: about four chunks per worker.

    Large enough to amortize pickling/IPC per dispatch, small enough
    that an uneven last wave cannot idle most of the pool.
    """
    workers = min(jobs, points)
    if workers <= 0:
        return 1
    return max(1, math.ceil(points / (workers * 4)))


def sweep(
    tasks: Iterable[SimTask],
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    observer: "RunObserver | None" = None,
    profile: ExecProfile | None = None,
    chunk_size: int | None = None,
    backend: str = "event",
    batch_report: Any = None,
    tape_cache: Any = None,
) -> list[Any]:
    """Execute simulation points, possibly in parallel, possibly cached.

    Args:
        tasks: the points; keys must be unique.
        jobs: worker processes.  1 (the default) runs inline in this
            process; N > 1 runs cache misses on a process pool of up to
            N workers.
        cache: optional on-disk result cache consulted before running
            and filled after.
        observer: optional run observer.  Observed sweeps run inline and
            bypass the cache — a replayed or out-of-process point has no
            gear events or trace records to observe.  Observation never
            changes results (the simulator is deterministic).
        profile: optional profile accumulating per-point wall time and
            cache-latency accounting across this sweep.
        chunk_size: points dispatched per worker call when ``jobs > 1``
            (amortizes pickling/IPC).  ``None`` picks about four chunks
            per worker.  Chunks are consecutive slices in task order, so
            chunking never changes results or merge order.  Under the
            batch backend the unit of chunking is a batch *group*, not a
            point — one recording is never split across workers.
        backend: ``"event"`` (the default) simulates every point
            independently; ``"batch"`` routes the sweep through
            :func:`repro.exec.batch_sweep.batch_sweep`, which records
            gear-groupable points once and replays the grid (results
            equal to ~1e-9, cached under distinct keys).  Observed
            sweeps always use the event engine — a replayed tape
            produces no events to observe.
        batch_report: optional
            :class:`repro.exec.batch_sweep.BatchReport` accumulating
            grouping/fallback/tape-cache/stage-timing accounting (batch
            backend only).
        tape_cache: optional :class:`repro.exec.cache.TapeCache`
            persisting batch recordings across sweeps and processes
            (batch backend only; see
            :func:`repro.exec.batch_sweep.batch_sweep`).

    Returns:
        One result per task, in task order regardless of completion
        order or cache state.

    Raises:
        ConfigurationError: duplicate task keys, an unknown ``backend``,
            ``jobs < 1``, or ``chunk_size < 1``.
        SimulationError: a point failed; the message names its key and
            the original exception is chained as ``__cause__``.
    """
    from repro.exec.batch_sweep import BACKENDS, batch_sweep

    if backend not in BACKENDS:
        known = ", ".join(repr(b) for b in BACKENDS)
        raise ConfigurationError(
            f"unknown backend {backend!r}; choose from {known}"
        )
    if backend == "batch" and observer is None:
        return batch_sweep(
            tasks,
            jobs=jobs,
            cache=cache,
            profile=profile,
            chunk_size=chunk_size,
            report=batch_report,
            tape_cache=tape_cache,
        )
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
        cache = None  # cached points would produce no events to observe

    results: dict[tuple, Any] = {}
    pending: list[tuple[SimTask, str | None]] = []
    lookups: dict[tuple, float] = {}
    for task in ordered:
        if cache is not None:
            lookup_start = time.perf_counter()
            key = cache_key(task)
            payload = cache.load(key)
            lookup_s = time.perf_counter() - lookup_start
            if payload is not None:
                results[task.key] = task.decode(payload)
                if profile is not None:
                    profile.add(
                        TaskTiming(
                            key=str(task.key),
                            source=SOURCE_CACHE,
                            seconds=0.0,
                            lookup_s=lookup_s,
                        )
                    )
                continue
            lookups[task.key] = lookup_s
            pending.append((task, key))
        else:
            pending.append((task, None))

    if jobs > 1 and len(pending) > 1 and observer is None:
        size = chunk_size or _auto_chunk_size(len(pending), jobs)
        nchunks = math.ceil(len(pending) / size)
        computed = _run_pool(pending, jobs, profile, size)
        if profile is not None:
            profile.workers = max(profile.workers, min(jobs, nchunks))
    else:
        computed = _run_inline(pending, observer, profile)

    for i, ((task, key), result) in enumerate(zip(pending, computed)):
        results[task.key] = result
        store_s = 0.0
        if cache is not None and key is not None:
            store_start = time.perf_counter()
            meta: dict[str, Any] = {"point": [str(part) for part in task.key]}
            scenario = getattr(task, "scenario", None)
            if scenario:
                meta["scenario"] = scenario
            cache.store(key, task.encode(result), meta=meta)
            store_s = time.perf_counter() - store_start
        if profile is not None and (store_s or task.key in lookups):
            # Fold cache traffic into the point's timing entry.
            timing = profile.timings[-len(pending) + i]
            profile.timings[-len(pending) + i] = TaskTiming(
                key=timing.key,
                source=timing.source,
                seconds=timing.seconds,
                lookup_s=lookups.get(task.key, 0.0),
                store_s=store_s,
                ff_skipped=timing.ff_skipped,
            )
    if profile is not None:
        profile.wall_s += time.perf_counter() - sweep_start
    return [results[task.key] for task in ordered]


def _run_inline(
    pending: Sequence[tuple[SimTask, str | None]],
    observer: "RunObserver | None" = None,
    profile: ExecProfile | None = None,
) -> list[Any]:
    out = []
    for task, _ in pending:
        start = time.perf_counter()
        skipped_before = _ff_skipped(task)
        try:
            # Only pass the observer when one is attached: tasks that
            # predate observability keep their plain run() signature.
            if observer is not None:
                out.append(task.run(observer=observer))
            else:
                out.append(task.run())
        except Exception as exc:
            raise _point_error(task, exc) from exc
        if profile is not None:
            profile.add(
                TaskTiming(
                    key=str(task.key),
                    source=SOURCE_RUN,
                    seconds=time.perf_counter() - start,
                    ff_skipped=_ff_skipped(task) - skipped_before,
                )
            )
    return out


def _run_pool(
    pending: Sequence[tuple[SimTask, str | None]],
    jobs: int,
    profile: ExecProfile | None = None,
    chunk_size: int = 1,
) -> list[Any]:
    chunks = [
        [task for task, _ in pending[i : i + chunk_size]]
        for i in range(0, len(pending), chunk_size)
    ]
    workers = min(jobs, len(chunks))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_execute_chunk, chunk) for chunk in chunks]
        wait(futures, return_when=FIRST_EXCEPTION)
        out = []
        for chunk, future in zip(chunks, futures):
            try:
                results, seconds, chunk_wall, ff_skips = future.result()
            except _ChunkPointError as exc:
                for other in futures:
                    other.cancel()
                raise _point_error(chunk[exc.index], exc.cause) from exc.cause
            except Exception as exc:
                # Infrastructure failure (e.g. a broken pool): no point
                # index to blame, so name the chunk's first point.
                for other in futures:
                    other.cancel()
                raise _point_error(chunk[0], exc) from exc
            out.extend(results)
            for task, skipped in zip(chunk, ff_skips):
                # Workers mutate their own pickled copy of the config;
                # carry the headline counter back to the parent's ledger
                # so pooled and inline sweeps report the same totals.
                config = getattr(task, "fast_forward", None)
                if config is not None and skipped:
                    config.aggregate.skipped_iterations += skipped
            if profile is not None:
                # Attribute the chunk's residual (request unpickling,
                # loop bookkeeping) evenly so the recorded per-point
                # times sum to the in-worker chunk wall time — worker
                # startup and IPC stay excluded.
                residual = (chunk_wall - sum(seconds)) / len(seconds)
                for task, point_s, skipped in zip(chunk, seconds, ff_skips):
                    profile.add(
                        TaskTiming(
                            key=str(task.key),
                            source=SOURCE_RUN,
                            seconds=point_s + residual,
                            ff_skipped=skipped,
                        )
                    )
    return out
