"""The batch backend of a sweep: group runs, record once, replay the grid.

:func:`repro.exec.sweep.sweep` runs both backends through one lookup →
dispatch → merge path over *runs* (:class:`~repro.exec.tasks.RunTask`).
Under ``backend="batch"`` it hands the runs the cache missed to this
module, which folds runs that share a recording into one *batch group*
and executes it through :mod:`repro.sim.batch`: one recording run plus
a cheap replay per gear.  A group is either

- the pending runs of one composite point
  (:class:`~repro.exec.tasks.GearSweepTask` or
  :class:`~repro.exec.tasks.CalibrationTask`), or
- standalone :class:`~repro.exec.tasks.MeasurementTask` points that
  differ only in gear.

What the batch backend adds to the sweep contract:

- **Grouping** — groups are formed by first occurrence and their
  results scatter back to the original positions, so a batch sweep's
  output lines up 1:1 with an event sweep's.  A pooled sweep chunks
  over groups, so one recording is never split across workers.
- **Distinct cache keys** — every measurement run is looked up/stored
  under :func:`batch_cache_key`, whose fingerprint carries a
  ``"backend": "batch"`` token, so batch results (1e-9-equivalent, not
  bitwise) never share cache entries with event results.  Partial hits
  shrink a group to its misses; the recording is still shared across
  them.
- **Exact fallback** — any :class:`~repro.sim.batch.BatchUnsupported`
  (uncertifiable structure, self-check miss) reruns the group's runs
  on the event engine, bitwise what a plain run produces, and logs the
  group in the :class:`BatchReport` so truncated batch coverage is
  never silent.

Recordings are the serial bottleneck once replay is vectorized, so they
are handled as a stage of their own:

- **Tape cache** — with a ``tape_cache``, every batch group's recording
  is serialized (:func:`repro.sim.batch.tape_to_payload`) into a
  persistent :class:`~repro.exec.cache.TapeCache` under
  :func:`tape_key` — the fingerprint of the group's configuration
  *minus the gear axis* plus the recording gear, the code-version
  token, and the tape format version.  Later sweeps (same process or
  not) deserialize instead of re-recording; the replay-time self-check
  still runs on every loaded tape, so a stale or corrupt entry rejects
  itself: it is discarded and the group records afresh.
- **Parallel recording** — with ``jobs > 1`` the missing tapes are
  recorded first, one pool task per distinct tape key, before any unit
  chunk is dispatched (:func:`_warm_tapes`); units then load their tape
  from the store.  A sweep of N groups thus records N-wide instead of
  chunk-by-chunk.
- **Stage timings** — :class:`BatchReport` splits the wall into
  record/replay/merge so the dominant stage is visible in the CLI
  summary and the bench harness.

Policy runs cannot batch — a gear policy changes the gear from inside
the run, so their request stream is gear-dependent by design — and
pass through on the event engine with their event cache keys, inside
the same deterministic merge.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.exec.cache import TapeCache
from repro.exec.fingerprint import code_version_token, fingerprint
from repro.core.run import RunMeasurement
from repro.exec.tasks import MeasurementTask, RunTask, SimTask

#: Fingerprint token that keys batch-computed results apart from event
#: results (they agree to ~1e-9, not bitwise — same precedent as the
#: fast-forward config entering the fingerprint).
BACKEND_TOKEN = "batch"

#: Run kinds the batch backend records and replays; every other kind
#: passes through on the event engine under its event cache key.
BATCHABLE = (MeasurementTask,)


def batch_cache_key(task: RunTask) -> str:
    """Cache key of a run executed through the batch backend."""
    return fingerprint(
        {
            "task": task.describe(),
            "code_version": code_version_token(),
            "backend": BACKEND_TOKEN,
        }
    )


def tape_key(task: SimTask, recording_gear: int) -> str:
    """Persistent-cache key of the tape ``task``'s runs share.

    The fingerprint covers the description of the task's first run
    *minus the gear axis* (``kind`` and ``gear`` dropped — a recording
    is reusable by any grid over the same configuration, so every run
    of a :class:`~repro.exec.tasks.GearSweepTask` and every
    :class:`~repro.exec.tasks.MeasurementTask` of its configuration map
    to one tape), plus the recording gear, the code-version token, and
    the tape format version, so stale tapes are never hit and
    :meth:`~repro.exec.cache.ResultCache.prune` invalidates them.
    """
    from repro.sim.batch import TAPE_FORMAT_VERSION

    desc = dict(task.runs()[0].describe())
    for axis in ("kind", "gear"):
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

    #: ``str(key)`` of the group's first run.
    point: str
    #: Runs the group covered.
    points: int
    #: The :class:`~repro.sim.batch.BatchUnsupported` message.
    reason: str


@dataclass
class BatchReport:
    """What the batch backend did across one or more sweeps.

    Every count is of runs (:class:`~repro.exec.tasks.RunTask`), not of
    the points a sweep was given.

    Attributes:
        groups: batch groups formed (after cache hits shrank them).
        single_run_groups: groups of one run, whose recording serves
            no other gear.
        grouped_points: runs covered by those groups.
        passthrough_points: non-batchable runs run on the event engine.
        fallbacks: groups whose recording could not be certified and were
            re-run run-by-run on the event engine.
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
    single_run_groups: int = 0
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
        """Runs that ended up on the event engine via fallback."""
        return sum(f.points for f in self.fallbacks)

    def count_units(
        self, units: Sequence[_Unit], tape_cache: TapeCache | None
    ) -> None:
        """Account one sweep's units before anything runs.

        Tape hits and misses are counted once the units have run, per
        distinct tape (cross-kind units can share one), by
        :meth:`count_tapes`.
        """
        for unit in units:
            if unit.batch:
                self.groups += 1
                self.single_run_groups += len(unit.tasks) == 1
                self.grouped_points += len(unit.tasks)
            else:
                self.passthrough_points += len(unit.tasks)
        if tape_cache is not None:
            self.tape_cache_enabled = True

    def count_tapes(self, units: Sequence[_Unit], loaded: Sequence[bool]) -> None:
        """Count each distinct tape of ``units`` as a hit or a miss.

        ``loaded[i]`` says whether unit ``i`` replayed a tape it loaded
        from the store; the first unit of each tape, in sweep order,
        decides.  A tape invalidated at load, or discarded after failing
        its replay, was recorded afresh and is a miss.  Counted in the
        parent — workers rebuild their own cache handles, so their
        :class:`~repro.exec.cache.CacheStats` never travel back.
        """
        first: dict[str, bool] = {}
        for unit, hit in zip(units, loaded):
            if unit.batch:
                first.setdefault(unit.tape_key, hit)  # type: ignore[arg-type]
        hits = sum(first.values())
        self.tape_hits += hits
        self.tape_misses += len(first) - hits

    def summary(self) -> str:
        """One human-readable summary for CLI/bench reporting.

        Always names the fallback count and the groups of a single run
        (zero included — silence is not a signal), the tape-cache
        hit/miss counts when a persistent cache was in play, and the
        record/replay/merge stage split.
        """
        line = (
            f"batch backend: {self.grouped_points} run(s) in "
            f"{self.groups} group(s) ({self.single_run_groups} single-run)"
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
            line += f", {self.fallback_points} run(s) fell back:"
            for fb in self.fallbacks:
                line += f"\n  {fb.point}: {fb.reason}"
        return line


@dataclass
class _Unit:
    """One execution unit of a sweep, never split across workers.

    Either a batch group, or one run on the event engine (every run
    under the event backend, a passthrough run under the batch
    backend).
    """

    tasks: list[RunTask]
    #: Positions of each run in the sweep's pending list (for the merge).
    indices: list[int]
    batch: bool = False
    #: Persistent-cache key of the group's tape (batch units only).
    tape_key: str | None = None
    #: Certification failure from the parallel-recording phase; set on
    #: every unit sharing the failed tape so each falls back without
    #: re-attempting the recording.
    prefail: str | None = None
    #: Warm-phase recording seconds attributed to this unit (first
    #: owner of a freshly recorded tape) for profile-row accounting.
    warm_s: float = 0.0
    #: Warm-phase fast-forwarded iterations attributed likewise.
    warm_skipped: int = 0


def _group_token(task: MeasurementTask) -> str:
    """Identity under which standalone measurements share a recording.

    The fingerprint of the run's description *minus the gear*: two
    runs group iff everything else about them — cluster, workload
    state, node count, fast-forward config — is identical, which is
    exactly the condition for a shared gear-invariant tape.
    """
    desc = dict(task.describe())
    desc.pop("gear")
    return fingerprint(desc)


def _form_units(pending: Sequence[tuple[SimTask, RunTask]]) -> list[_Unit]:
    """Partition pending runs into execution units, in first-seen order.

    ``pending`` pairs each run with the point that asked for it.  The
    pending runs of one composite form one batch group; standalone
    :class:`MeasurementTask` points group by :func:`_group_token`; any
    other run passes through on the event engine.  Every batch group
    gets the key of the tape it records or loads, at its first run's
    gear.
    """
    units: list[_Unit] = []
    groups: dict[Any, _Unit] = {}
    for index, (point, run) in enumerate(pending):
        if type(run) not in BATCHABLE:
            units.append(_Unit([run], [index]))
            continue
        token = _group_token(run) if point is run else id(point)
        unit = groups.get(token)
        if unit is None:
            unit = groups[token] = _Unit([], [], batch=True)
            units.append(unit)
        unit.tasks.append(run)
        unit.indices.append(index)
    for unit in units:
        if unit.batch:
            first = unit.tasks[0]
            unit.tape_key = tape_key(first, first.gear)  # type: ignore[attr-defined]
    return units


def _load_tape(task: MeasurementTask, tapes: TapeCache, key: str) -> Any | None:
    """Deserialize the cached tape of ``task``'s group, or None on a miss.

    A payload that does not decode, fails
    :func:`~repro.sim.batch.tape_from_payload`'s checks or records
    another workload, node count or recording gear than the group's
    (format bump, truncated write an atomic rename should have
    prevented, hand-edited entry) is a miss counted in
    ``tapes.stats.invalidated`` — the caller re-records.  A payload that
    decodes but no longer matches its recording totals is caught later
    by the replay self-check; :func:`_run_unit` then discards it and
    re-records likewise.
    """
    from repro.sim.batch import tape_from_payload

    expected = (task.workload.name, task.nodes, task.gear)

    def decode(payload: Any) -> Any:
        tape = tape_from_payload(task.cluster, payload)
        got = (tape.workload_name, tape.nodes, tape.recording_gear)
        if got != expected:
            raise ValueError(f"tape records {got}, the group needs {expected}")
        return tape

    return tapes.load(key, decode)


def _record_tape(task: MeasurementTask, tapes: TapeCache | None, key: str) -> Any:
    """Record the tape of the group led by ``task`` at its gear and,
    with a tape store, store it under ``key``.

    Raises:
        BatchUnsupported: the recording cannot be certified.
    """
    from repro.sim.batch import record_tape, tape_to_payload

    tape = record_tape(
        task.cluster,
        task.workload,
        nodes=task.nodes,
        gear=task.gear,
        fast_forward=task.fast_forward,
    )
    if tapes is not None:
        tapes.store(key, tape_to_payload(tape))
    return tape


def _record_tape_job(
    task: MeasurementTask, tape_root: Path, key: str
) -> tuple[str | None, float, Any]:
    """Record one group's tape into the cache (parallel-recording phase).

    Returns (certification-failure reason or None, in-worker recording
    seconds, the fast-forward ledger delta or None) — plain values so
    the tuple pickles back from a pool worker.
    """
    # sweep imports this module
    from repro.exec.sweep import _ff_delta, _ff_ledger
    from repro.sim.batch import BatchUnsupported

    start = time.perf_counter()
    ledger = _ff_ledger(task)
    fail = None
    try:
        _record_tape(task, TapeCache(tape_root), key)
    except BatchUnsupported as exc:
        fail = str(exc)
    return fail, time.perf_counter() - start, _ff_delta(task, ledger)


def _run_unit(
    unit: _Unit, tapes: TapeCache | None
) -> tuple[list[Any], str | None, float, float, bool]:
    """Execute one batch group.

    Returns (results in run order, fallback reason, recording seconds,
    replay seconds, whether the tape replayed was loaded from the
    store).  Any :class:`~repro.sim.batch.BatchUnsupported` — from
    certification, from the recording-gear self-check of a fresh
    recording, or carried in as ``prefail`` from the parallel-recording
    phase — downgrades the whole unit to run-by-run event-engine runs,
    which are exact by definition.  With a tape store available the
    recording is loaded from it when present and stored into it when
    fresh.  A loaded tape that fails its replay is discarded, counted in
    ``tapes.stats.invalidated``, and recorded afresh once, so a stale
    entry costs one recording instead of a fallback on every sweep; the
    failed replay's seconds still count as replay.
    """
    from repro.sim.batch import BatchUnsupported

    tasks: list[MeasurementTask] = unit.tasks  # type: ignore[assignment]
    if unit.prefail is not None:
        return [task.run() for task in tasks], unit.prefail, 0.0, 0.0, False
    first = tasks[0]
    key: str = unit.tape_key  # type: ignore[assignment]
    record_s = replay_s = 0.0
    try:
        tape = _load_tape(first, tapes, key) if tapes is not None else None
        if tape is not None:
            start = time.perf_counter()
            try:
                results = _replay_unit(tasks, tape)
                return results, None, 0.0, time.perf_counter() - start, True
            except BatchUnsupported:
                tapes.discard(key)  # type: ignore[union-attr]
                replay_s = time.perf_counter() - start
        start = time.perf_counter()
        tape = _record_tape(first, tapes, key)
        record_s = time.perf_counter() - start
        start = time.perf_counter()
        results = _replay_unit(tasks, tape)
        replay_s += time.perf_counter() - start
        return results, None, record_s, replay_s, False
    except BatchUnsupported as exc:
        return [task.run() for task in tasks], str(exc), record_s, replay_s, False


def _replay_unit(tasks: list[MeasurementTask], tape: Any) -> list[RunMeasurement]:
    """Revalue one batch group's gears from its tape (see :func:`_run_unit`).

    Raises:
        BatchUnsupported: the replay failed, its self-check included.
    """
    from repro.sim.batch import batch_gear_grid

    first = tasks[0]
    return batch_gear_grid(
        first.cluster,
        first.workload,
        nodes=first.nodes,
        gears=[task.gear for task in tasks],
        fast_forward=first.fast_forward,
        tape=tape,
    )


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
    fans out recording-per-worker *before* unit chunks are dispatched —
    a sweep of N fresh groups records N-wide even when chunking would
    have packed those groups onto fewer workers.  A certification
    failure marks every owning unit ``prefail`` so each falls back to
    the event engine without re-attempting the recording; the
    fast-forward ledger delta folds into the parent ledger exactly like
    the unit chunks' deltas do.
    """
    # sweep imports this module
    from repro.exec.sweep import _merge_ff, _point_error

    futures = {
        key: pool.submit(
            _record_tape_job,
            owners[0].tasks[0],
            tape_root,
            key,
        )
        for key, owners in missing.items()
    }
    wait(futures.values(), return_when=FIRST_EXCEPTION)
    for key, future in futures.items():
        owners = missing[key]
        try:
            fail, record_s, ff = future.result()
        except Exception as exc:
            for other in futures.values():
                other.cancel()
            raise _point_error(owners[0].tasks[0], exc) from exc
        if report is not None:
            report.record_s += record_s
        _merge_ff(owners[0].tasks[0], ff)
        owners[0].warm_s += record_s
        owners[0].warm_skipped += ff.skipped_iterations if ff else 0
        if fail is not None:
            for unit in owners:
                unit.prefail = fail
