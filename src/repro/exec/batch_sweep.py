"""Batch-backend sweeps: group points, record once, replay the grid.

The event-engine :func:`repro.exec.sweep.sweep` treats every point as an
independent simulation.  This module is its batch twin: points that
share a recording — a :class:`~repro.exec.tasks.GearSweepTask` (one
recording covers its whole gear grid) or several
:class:`~repro.exec.tasks.MeasurementTask` points differing only in
gear — are folded into one *batch group* and executed through
:mod:`repro.sim.batch`: one recording run plus a cheap replay per gear.

The sweep contract is unchanged:

- **Deterministic merge** — results return in task order; groups are
  formed by first occurrence and their results are scattered back to
  the original positions, so a batch sweep's output lines up 1:1 with
  an event sweep's.
- **Cache transparency** — every point is looked up/stored under a key
  whose fingerprint carries a ``"backend": "batch"`` token, so batch
  results (1e-9-equivalent, not bitwise) never share cache entries with
  event results.  Partial hits shrink a group to its misses; the
  recording is still shared across them.
- **Failure naming** — exceptions name the failing point's key exactly
  like the event path.
- **Exact fallback** — any :class:`~repro.sim.batch.BatchUnsupported`
  (uncertifiable structure, self-check miss) reruns the group's points
  on the event engine, bitwise what a plain run produces, and logs the
  group in the :class:`BatchReport` so truncated batch coverage is
  never silent.

Group-aware dispatch: with ``jobs > 1`` the pool chunks over *groups*,
not points — :func:`repro.exec.sweep._auto_chunk_size` is applied to the
group count, so one recording is never split across workers and a sweep
of few large groups still fans out group-per-worker.

Recordings are the serial bottleneck once replay is vectorized, so they
are handled as a stage of their own:

- **Tape cache** — with ``tape_cache`` set, every batch group's
  recording is serialized (:func:`repro.sim.batch.tape_to_payload`)
  into a persistent :class:`~repro.exec.cache.TapeCache` under
  :func:`tape_key` — the fingerprint of the group's configuration
  *minus the gear axis* plus the recording gear, the code-version
  token, and the tape format version.  Later sweeps (same process or
  not) deserialize instead of re-recording; the replay-time self-check
  still runs on every loaded tape, so a stale or corrupt entry rejects
  itself into the exact event fallback.
- **Parallel recording** — with ``jobs > 1`` the missing tapes are
  recorded first, one pool task per distinct tape key, before any unit
  chunk is dispatched; units then load their tape from the cache (an
  ephemeral sweep-local store when no ``tape_cache`` was given).  A
  sweep of N groups thus records N-wide instead of chunk-by-chunk.
- **Stage timings** — :class:`BatchReport` splits the wall into
  record/replay/merge so the dominant stage is visible in the CLI
  summary and the bench harness.

Tasks that cannot batch (calibration, policy runs — their structure is
gear-dependent by design) pass through on the event engine with their
normal cache keys, inside the same deterministic merge.
"""

from __future__ import annotations

import tempfile
import time
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.exec.cache import ResultCache, TapeCache
from repro.exec.fingerprint import code_version_token, fingerprint
from repro.exec.profile import SOURCE_CACHE, SOURCE_RUN, ExecProfile, TaskTiming
from repro.exec.sweep import _auto_chunk_size, _ff_skipped, _point_error, cache_key
from repro.exec.tasks import GearSweepTask, MeasurementTask, SimTask
from repro.util.errors import ConfigurationError

#: Fingerprint token that keys batch-computed results apart from event
#: results (they agree to ~1e-9, not bitwise — same precedent as the
#: fast-forward config entering the fingerprint).
BACKEND_TOKEN = "batch"

#: Backends :func:`repro.exec.sweep.sweep` accepts.
BACKENDS = ("event", "batch")


def batch_cache_key(task: SimTask) -> str:
    """Cache key of a point executed through the batch backend."""
    return fingerprint(
        {
            "task": task.describe(),
            "code_version": code_version_token(),
            "backend": BACKEND_TOKEN,
        }
    )


def _recording_gear(task: SimTask) -> int:
    """The gear a group led by ``task`` records at.

    Mirrors :func:`repro.sim.batch.batch_gear_grid`: the first gear of
    the requested grid.  Deterministic per group, so the tape key is
    stable across invocations.
    """
    if type(task) is GearSweepTask:
        if task.gears is not None:
            return task.gears[0]
        return list(task.cluster.gears.indices)[0]
    return task.gear  # type: ignore[attr-defined]


def tape_key(task: SimTask, recording_gear: int) -> str:
    """Persistent-cache key of the tape a group led by ``task`` shares.

    The fingerprint covers the task description *minus the gear axis*
    (``kind``/``gear``/``gears`` dropped — a recording is reusable by
    any grid over the same configuration, and a
    :class:`~repro.exec.tasks.GearSweepTask` can share a tape with a
    :class:`~repro.exec.tasks.MeasurementTask` group), plus the
    recording gear, the code-version token, and the tape format
    version, so stale tapes are never hit and
    :meth:`~repro.exec.cache.ResultCache.prune` invalidates them.
    """
    from repro.sim.batch import TAPE_FORMAT_VERSION

    desc = dict(task.describe())
    for axis in ("kind", "gear", "gears"):
        desc.pop(axis, None)
    return fingerprint(
        {
            "recording": desc,
            "recording_gear": recording_gear,
            "code_version": code_version_token(),
            "tape_format": TAPE_FORMAT_VERSION,
        }
    )


@dataclass
class BatchFallback:
    """One group that fell back to the exact event engine."""

    #: ``str(key)`` of the group's first point.
    point: str
    #: Points the group covered.
    points: int
    #: The :class:`~repro.sim.batch.BatchUnsupported` message.
    reason: str


@dataclass
class BatchReport:
    """What the batch backend did across one or more sweeps.

    Attributes:
        groups: batch groups formed (after cache hits shrank them).
        grouped_points: points covered by those groups.
        passthrough_points: non-batchable points run on the event engine.
        fallbacks: groups whose recording could not be certified and were
            re-run point-by-point on the event engine.
        tape_cache_enabled: whether a persistent tape cache was in play.
        tape_hits: distinct tapes loaded from the persistent cache
            instead of re-recorded.
        tape_misses: distinct tapes that had to be recorded (and were
            stored for the next sweep).
        record_s: seconds spent executing recording runs (in-worker
            when pooled — IPC and pool startup excluded).
        replay_s: seconds spent revaluing gear grids from tapes.
        merge_s: parent-side seconds scattering unit results back to
            sweep order and writing the result cache.
    """

    groups: int = 0
    grouped_points: int = 0
    passthrough_points: int = 0
    fallbacks: list[BatchFallback] = field(default_factory=list)
    tape_cache_enabled: bool = False
    tape_hits: int = 0
    tape_misses: int = 0
    record_s: float = 0.0
    replay_s: float = 0.0
    merge_s: float = 0.0

    @property
    def fallback_points(self) -> int:
        """Points that ended up on the event engine via fallback."""
        return sum(f.points for f in self.fallbacks)

    def summary(self) -> str:
        """One human-readable summary for CLI/bench reporting.

        Always names the fallback count (zero included — silence is not
        a signal), the tape-cache hit/miss counts when a persistent
        cache was in play, and the record/replay/merge stage split.
        """
        line = (
            f"batch backend: {self.grouped_points} point(s) in "
            f"{self.groups} group(s)"
        )
        if self.passthrough_points:
            line += f", {self.passthrough_points} passthrough"
        line += f", {len(self.fallbacks)} fallback(s)"
        if self.tape_cache_enabled:
            line += (
                f"; tape cache: {self.tape_hits} hit(s), "
                f"{self.tape_misses} miss(es)"
            )
        line += (
            f"; stages: record {self.record_s:.3f}s, "
            f"replay {self.replay_s:.3f}s, merge {self.merge_s:.3f}s"
        )
        if self.fallbacks:
            line += f", {self.fallback_points} point(s) fell back:"
            for fb in self.fallbacks:
                line += f"\n  {fb.point}: {fb.reason}"
        return line


@dataclass
class _Unit:
    """One execution unit: a batch group or a single passthrough task."""

    tasks: list[SimTask]
    #: Positions of each task in the pending list (for the merge).
    indices: list[int]
    batch: bool
    #: Persistent-cache key of the group's tape (batch units only).
    tape_key: str | None = None
    #: Gear the group's recording runs at (batch units only).
    rec_gear: int | None = None
    #: Certification failure from the parallel-recording phase; set on
    #: every unit sharing the failed tape so each falls back without
    #: re-attempting the recording.
    prefail: str | None = None
    #: Warm-phase recording seconds attributed to this unit (first
    #: owner of a freshly recorded tape) for profile-row accounting.
    warm_s: float = 0.0
    #: Warm-phase fast-forwarded iterations attributed likewise.
    warm_skipped: int = 0


def _group_token(task: SimTask) -> tuple | None:
    """Identity under which a task may share a recording, or None.

    A :class:`MeasurementTask`'s token is the fingerprint of its
    description *minus the gear*: two points group iff everything else
    about them — cluster, workload state, node count, fast-forward
    config — is identical, which is exactly the condition for a shared
    gear-invariant tape.  :class:`GearSweepTask` returns None (it is a
    whole grid already and always forms its own group), as does any
    non-batchable kind.
    """
    if type(task) is MeasurementTask:
        desc = dict(task.describe())
        desc.pop("gear")
        return ("measurement", fingerprint(desc))
    return None


def _form_units(pending: Sequence[tuple[SimTask, str | None]]) -> list[_Unit]:
    """Partition pending points into execution units, in first-seen order."""
    units: list[_Unit] = []
    by_token: dict[tuple, _Unit] = {}
    for index, (task, _) in enumerate(pending):
        if type(task) is GearSweepTask:
            units.append(_Unit([task], [index], batch=True))
            continue
        token = _group_token(task)
        if token is None:
            units.append(_Unit([task], [index], batch=False))
            continue
        unit = by_token.get(token)
        if unit is None:
            unit = _Unit([], [], batch=True)
            by_token[token] = unit
            units.append(unit)
        unit.tasks.append(task)
        unit.indices.append(index)
    return units


def _load_tape(cluster: Any, tape_root: Path, key: str) -> Any | None:
    """Deserialize a cached tape, or None on miss/corruption/version skew.

    A payload that does not decode or whose op streams do not hold
    together (format bump, truncated write an atomic rename should have
    prevented, hand-edited entry) is treated as a miss — the caller
    re-records.  A payload that decodes but no longer matches its
    recording totals is caught later by the replay self-check, which
    rejects the whole tape into the event fallback.
    """
    from repro.sim.batch import tape_from_payload

    payload = TapeCache(tape_root).load(key)
    if payload is None:
        return None
    try:
        return tape_from_payload(cluster, payload)
    except (ValueError, KeyError, TypeError, IndexError):
        return None


def _record_tape_job(
    task: SimTask, rec_gear: int, tape_root: Path, key: str
) -> tuple[str | None, float, int]:
    """Record one group's tape into the cache (parallel-recording phase).

    Returns (certification-failure reason or None, in-worker recording
    seconds, fast-forwarded iterations) — plain values so the tuple
    pickles back from a pool worker.
    """
    from repro.sim.batch import BatchUnsupported, record_tape, tape_to_payload

    start = time.perf_counter()
    skipped_before = _ff_skipped(task)
    try:
        tape = record_tape(
            task.cluster,  # type: ignore[attr-defined]
            task.workload,  # type: ignore[attr-defined]
            nodes=task.nodes,  # type: ignore[attr-defined]
            gear=rec_gear,
            fast_forward=getattr(task, "fast_forward", None),
        )
    except BatchUnsupported as exc:
        return (
            str(exc),
            time.perf_counter() - start,
            _ff_skipped(task) - skipped_before,
        )
    TapeCache(tape_root).store(key, tape_to_payload(tape))
    return (
        None,
        time.perf_counter() - start,
        _ff_skipped(task) - skipped_before,
    )


def _run_unit(
    tasks: Sequence[SimTask],
    batch: bool,
    *,
    tape_root: Path | None = None,
    tape_key: str | None = None,
    prefail: str | None = None,
) -> tuple[list[Any], str | None, float, float]:
    """Execute one unit.

    Returns (results in task order, fallback reason, recording seconds,
    replay seconds).  Any :class:`~repro.sim.batch.BatchUnsupported` —
    from certification, from the recording-gear self-check, or carried
    in as ``prefail`` from the parallel-recording phase — downgrades
    the whole unit to per-point event-engine runs, which are exact by
    definition.  With a tape store available the recording is loaded
    from it when present and stored into it when fresh.
    """
    from repro.sim.batch import (
        BatchUnsupported,
        batch_gear_grid,
        batch_gear_sweep,
        record_tape,
        tape_to_payload,
    )

    if not batch:
        return [task.run() for task in tasks], None, 0.0, 0.0
    if prefail is not None:
        return [task.run() for task in tasks], prefail, 0.0, 0.0
    first = tasks[0]
    record_s = 0.0
    try:
        tape = None
        if tape_root is not None and tape_key is not None:
            tape = _load_tape(first.cluster, tape_root, tape_key)  # type: ignore[attr-defined]
        if tape is None:
            rec_start = time.perf_counter()
            tape = record_tape(
                first.cluster,  # type: ignore[attr-defined]
                first.workload,  # type: ignore[attr-defined]
                nodes=first.nodes,  # type: ignore[attr-defined]
                gear=_recording_gear(first),
                fast_forward=getattr(first, "fast_forward", None),
            )
            record_s = time.perf_counter() - rec_start
            if tape_root is not None and tape_key is not None:
                TapeCache(tape_root).store(tape_key, tape_to_payload(tape))
        replay_start = time.perf_counter()
        if type(first) is GearSweepTask:
            results: list[Any] = [
                batch_gear_sweep(
                    first.cluster,
                    first.workload,
                    nodes=first.nodes,
                    gears=first.gears,
                    fast_forward=first.fast_forward,
                    tape=tape,
                )
            ]
        else:
            results = list(
                batch_gear_grid(
                    first.cluster,  # type: ignore[attr-defined]
                    first.workload,  # type: ignore[attr-defined]
                    nodes=first.nodes,  # type: ignore[attr-defined]
                    gears=[t.gear for t in tasks],  # type: ignore[union-attr]
                    fast_forward=getattr(first, "fast_forward", None),
                    tape=tape,
                )
            )
        return results, None, record_s, time.perf_counter() - replay_start
    except BatchUnsupported as exc:
        return [task.run() for task in tasks], str(exc), record_s, 0.0


class _UnitPointError(Exception):
    """A unit failed in a worker; carries chunk-local coordinates.

    Built from plain ``args`` so it pickles across the process boundary.
    """

    def __init__(self, unit_index: int, cause: BaseException):
        super().__init__(unit_index, cause)
        self.unit_index = unit_index
        self.cause = cause


def _execute_unit_chunk(
    chunk: Sequence[tuple[list[SimTask], bool, str | None, str | None]],
    tape_root: Path | None = None,
) -> list[tuple[list[Any], str | None, float, int, float, float]]:
    """Run a chunk of units in one worker call.

    Per unit: (results, fallback reason, in-worker wall seconds,
    fast-forwarded iterations, recording seconds, replay seconds) —
    mirrors the event pool's in-worker accounting so IPC and startup
    stay excluded.
    """
    out = []
    for index, (tasks, batch, key, prefail) in enumerate(chunk):
        start = time.perf_counter()
        skipped_before = _ff_skipped(tasks[0])
        try:
            results, fallback, record_s, replay_s = _run_unit(
                tasks,
                batch,
                tape_root=tape_root,
                tape_key=key,
                prefail=prefail,
            )
        except Exception as exc:
            raise _UnitPointError(index, exc) from exc
        out.append(
            (
                results,
                fallback,
                time.perf_counter() - start,
                _ff_skipped(tasks[0]) - skipped_before,
                record_s,
                replay_s,
            )
        )
    return out


def batch_sweep(
    tasks: Iterable[SimTask],
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    profile: ExecProfile | None = None,
    chunk_size: int | None = None,
    report: BatchReport | None = None,
    tape_cache: TapeCache | None = None,
) -> list[Any]:
    """The batch-backend twin of :func:`repro.exec.sweep.sweep`.

    Same arguments and guarantees, minus ``observer`` (observed sweeps
    are routed to the event path by ``sweep`` itself — a replayed tape
    produces no events to observe).  ``report`` accumulates grouping,
    fallback, tape-cache, and stage-timing accounting across calls when
    provided.

    Args:
        tape_cache: optional persistent store of serialized recordings;
            groups whose tape is present skip re-recording entirely
            (across processes and executor invocations — the key pins
            configuration, recording gear, and code version), and fresh
            recordings are stored for the next sweep.  ``None`` keeps
            recordings sweep-local (a temporary store still backs the
            parallel-recording phase when ``jobs > 1``).
    """
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
    results: dict[tuple, Any] = {}
    pending: list[tuple[SimTask, str | None]] = []
    lookups: dict[tuple, float] = {}
    for task in ordered:
        if cache is not None:
            lookup_start = time.perf_counter()
            batchable = type(task) in (GearSweepTask, MeasurementTask)
            key = batch_cache_key(task) if batchable else cache_key(task)
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

    units = _form_units(pending)
    for unit in units:
        if unit.batch:
            unit.rec_gear = _recording_gear(unit.tasks[0])
            unit.tape_key = tape_key(unit.tasks[0], unit.rec_gear)
    if report is not None:
        for unit in units:
            if unit.batch:
                report.groups += 1
                report.grouped_points += len(unit.tasks)
            else:
                report.passthrough_points += len(unit.tasks)
        if tape_cache is not None:
            # Parent-side hit/miss attribution, counted per distinct
            # tape (cross-kind units can share one) before anything
            # runs — workers rebuild their own cache handles, so their
            # CacheStats never travel back.
            report.tape_cache_enabled = True
            counted: set[str] = set()
            for unit in units:
                if not unit.batch or unit.tape_key in counted:
                    continue
                counted.add(unit.tape_key)  # type: ignore[arg-type]
                if tape_cache.contains(unit.tape_key):  # type: ignore[arg-type]
                    report.tape_hits += 1
                else:
                    report.tape_misses += 1

    tape_root = Path(tape_cache.root) if tape_cache is not None else None
    computed: list[Any] = [None] * len(pending)
    if jobs > 1 and len(units) > 1:
        # Group-aware chunking: size the chunks on the number of UNITS,
        # never points — a unit's recording is one indivisible run, so a
        # sweep of few large groups still spreads group-per-worker
        # instead of splitting a recording (or idling the pool).
        size = chunk_size or _auto_chunk_size(len(units), jobs)
        with ExitStack() as stack:
            pool_root = tape_root
            if pool_root is None and any(unit.batch for unit in units):
                # No persistent cache: an ephemeral sweep-local store
                # still lets the parallel-recording phase hand tapes to
                # the unit workers without a second IPC round-trip.
                pool_root = Path(
                    stack.enter_context(
                        tempfile.TemporaryDirectory(prefix="repro-tapes-")
                    )
                )
            _run_units_pool(
                units,
                jobs,
                size,
                computed,
                profile,
                report,
                pool_root,
            )
    else:
        for unit in units:
            start = time.perf_counter()
            skipped_before = _ff_skipped(unit.tasks[0])
            try:
                unit_results, fallback, record_s, replay_s = _run_unit(
                    unit.tasks,
                    unit.batch,
                    tape_root=tape_root,
                    tape_key=unit.tape_key,
                )
            except Exception as exc:
                raise _point_error(unit.tasks[0], exc) from exc
            _merge_unit(
                unit,
                unit_results,
                fallback,
                time.perf_counter() - start,
                _ff_skipped(unit.tasks[0]) - skipped_before,
                computed,
                profile,
                report,
                record_s=record_s,
                replay_s=replay_s,
            )

    merge_start = time.perf_counter()
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
            timing = profile.timings[-len(pending) + i]
            profile.timings[-len(pending) + i] = TaskTiming(
                key=timing.key,
                source=timing.source,
                seconds=timing.seconds,
                lookup_s=lookups.get(task.key, 0.0),
                store_s=store_s,
                ff_skipped=timing.ff_skipped,
            )
    if report is not None:
        report.merge_s += time.perf_counter() - merge_start
    if profile is not None:
        profile.wall_s += time.perf_counter() - sweep_start
    return [results[task.key] for task in ordered]


def _merge_unit(
    unit: _Unit,
    unit_results: list[Any],
    fallback: str | None,
    unit_s: float,
    ff_skipped: int,
    computed: list[Any],
    profile: ExecProfile | None,
    report: BatchReport | None,
    *,
    record_s: float = 0.0,
    replay_s: float = 0.0,
) -> None:
    """Scatter a unit's results back to their sweep positions.

    Profile rows synthesize per-point cost from the shared recording:
    the unit's wall time (plus any warm-phase recording attributed to
    this unit) is split evenly, so the rows still sum to the measured
    walls and per-sweep totals stay meaningful.  The fast-forward delta
    (the recording's jumps) is attributed to the first point, mirroring
    how the ledger would see one recording run.
    """
    merge_start = time.perf_counter()
    for index, result in zip(unit.indices, unit_results):
        computed[index] = result
    if report is not None:
        report.record_s += record_s
        report.replay_s += replay_s
        if fallback is not None:
            report.fallbacks.append(
                BatchFallback(
                    point=str(unit.tasks[0].key),
                    points=len(unit.tasks),
                    reason=fallback,
                )
            )
    if profile is not None:
        share = (unit_s + unit.warm_s) / len(unit.tasks)
        skipped_total = ff_skipped + unit.warm_skipped
        for i, task in enumerate(unit.tasks):
            profile.add(
                TaskTiming(
                    key=str(task.key),
                    source=SOURCE_RUN,
                    seconds=share,
                    ff_skipped=skipped_total if i == 0 else 0,
                )
            )
    if report is not None:
        report.merge_s += time.perf_counter() - merge_start


def _missing_tapes(
    units: Sequence[_Unit], tape_root: Path
) -> dict[str, list[_Unit]]:
    """Batch units whose tape is absent from the store, keyed by tape.

    Cross-kind units can share one tape key; the list preserves unit
    order so warm-phase accounting lands on the first owner.
    """
    store = TapeCache(tape_root)
    missing: dict[str, list[_Unit]] = {}
    for unit in units:
        if unit.batch and unit.tape_key is not None:
            if not store.contains(unit.tape_key):
                missing.setdefault(unit.tape_key, []).append(unit)
    return missing


def _warm_tapes(
    missing: dict[str, list[_Unit]],
    pool: ProcessPoolExecutor,
    tape_root: Path,
    report: BatchReport | None,
) -> None:
    """Record every missing tape in parallel, one pool task per tape.

    Recording is the serial bottleneck once replay is vectorized, so it
    fans out recording-per-worker *before* unit chunks are formed — a
    sweep of N fresh groups records N-wide even when chunking would
    have packed those groups onto fewer workers.  A certification
    failure marks every owning unit ``prefail`` so each falls back to
    the event engine without re-attempting the recording; the
    fast-forward skip delta folds into the parent ledger exactly like
    the event pool does.
    """
    futures = {
        key: pool.submit(
            _record_tape_job, owners[0].tasks[0], owners[0].rec_gear,
            tape_root, key,
        )
        for key, owners in missing.items()
    }
    wait(futures.values(), return_when=FIRST_EXCEPTION)
    for key, future in futures.items():
        owners = missing[key]
        try:
            fail, record_s, skipped = future.result()
        except Exception as exc:
            for other in futures.values():
                other.cancel()
            raise _point_error(owners[0].tasks[0], exc) from exc
        if report is not None:
            report.record_s += record_s
        config = getattr(owners[0].tasks[0], "fast_forward", None)
        if config is not None and skipped:
            config.aggregate.skipped_iterations += skipped
        owners[0].warm_s += record_s
        owners[0].warm_skipped += skipped
        if fail is not None:
            for unit in owners:
                unit.prefail = fail


def _run_units_pool(
    units: Sequence[_Unit],
    jobs: int,
    chunk_size: int,
    computed: list[Any],
    profile: ExecProfile | None,
    report: BatchReport | None,
    tape_root: Path | None,
) -> None:
    """Fan unit chunks out to a process pool; merge in unit order.

    Two pool phases on one worker pool: first the parallel-recording
    phase fills the tape store (see :func:`_warm_tapes`), then unit
    chunks replay from it.
    """
    chunks = [
        list(units[i : i + chunk_size])
        for i in range(0, len(units), chunk_size)
    ]
    missing = _missing_tapes(units, tape_root) if tape_root is not None else {}
    workers = min(jobs, max(len(chunks), len(missing)))
    if profile is not None:
        profile.workers = max(profile.workers, workers)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        if missing:
            _warm_tapes(missing, pool, tape_root, report)  # type: ignore[arg-type]
        payloads = [
            [
                (unit.tasks, unit.batch, unit.tape_key, unit.prefail)
                for unit in chunk
            ]
            for chunk in chunks
        ]
        futures = [
            pool.submit(_execute_unit_chunk, payload, tape_root)
            for payload in payloads
        ]
        wait(futures, return_when=FIRST_EXCEPTION)
        for chunk, future in zip(chunks, futures):
            try:
                outcomes = future.result()
            except _UnitPointError as exc:
                for other in futures:
                    other.cancel()
                raise _point_error(
                    chunk[exc.unit_index].tasks[0], exc.cause
                ) from exc.cause
            except Exception as exc:
                for other in futures:
                    other.cancel()
                raise _point_error(chunk[0].tasks[0], exc) from exc
            for unit, (
                unit_results,
                fallback,
                unit_s,
                skipped,
                record_s,
                replay_s,
            ) in zip(chunk, outcomes):
                # Workers mutate their own pickled fast-forward config;
                # fold the recording's skip count back into the parent
                # ledger exactly like the event pool does.
                config = getattr(unit.tasks[0], "fast_forward", None)
                if config is not None and skipped:
                    config.aggregate.skipped_iterations += skipped
                _merge_unit(
                    unit,
                    unit_results,
                    fallback,
                    unit_s,
                    skipped,
                    computed,
                    profile,
                    report,
                    record_s=record_s,
                    replay_s=replay_s,
                )
