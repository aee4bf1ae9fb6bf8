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
  on the event engine, bitwise what a plain run produces, and the
  group's row in the :class:`~repro.exec.record.RunRecord` keeps the
  reason, so truncated batch coverage is never silent.

Recordings are the serial bottleneck once replay is vectorized, so
they are kept, and made in one place:

- **Tape cache** — with a ``tape_cache``, every batch group's recording
  is serialized (:func:`repro.sim.batch.tape_to_payload`) into a
  persistent :class:`~repro.exec.cache.TapeCache` under
  :func:`tape_key` — the fingerprint of the group's configuration
  *minus the gear axis* plus the recording gear, the code-version
  token, and the tape format version.  Later sweeps (same process or
  not) deserialize instead of re-recording; the replay-time self-check
  still runs on every loaded tape, so a stale or corrupt entry rejects
  itself: it is discarded and the group records afresh.
- **One recording path** — a unit loads or records its own tape,
  inline or inside a pool worker alike, so a pooled sweep records and
  accounts exactly as a serial one does.  Its group row splits the
  wall into record and replay seconds.

Policy runs cannot batch — a gear policy changes the gear from inside
the run, so their request stream is gear-dependent by design — and
pass through on the event engine with their event cache keys, inside
the same deterministic merge.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.run import RunMeasurement
from repro.exec.cache import TapeCache
from repro.exec.fingerprint import code_version_token, fingerprint
from repro.exec.record import GroupRow
from repro.exec.tasks import MeasurementTask, RunTask, SimTask
from repro.mpi.fastforward import FastForwardStats

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
    other run passes through on the event engine.
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


def _run_unit(
    unit: _Unit, tapes: TapeCache | None
) -> tuple[list[Any], GroupRow, FastForwardStats | None]:
    """Execute one batch group, whose tape is keyed at its first run's
    gear (:func:`tape_key`).

    Returns (results in run order, the group's row, the fast-forward
    stats of the recording the results were replayed from — None for a
    loaded tape or a fallback).  Any
    :class:`~repro.sim.batch.BatchUnsupported` — from certification or
    from the recording-gear self-check of a fresh recording — downgrades
    the whole unit to run-by-run event-engine runs, which are exact by
    definition.  With a tape store available the recording is loaded
    from it when present and stored into it when fresh.  A loaded tape
    that fails its replay is discarded, counted in
    ``tapes.stats.invalidated``, and recorded afresh once, so a stale
    entry costs one recording instead of a fallback on every sweep; the
    failed replay's seconds still count as replay.
    """
    from repro.sim.batch import BatchUnsupported

    tasks: list[MeasurementTask] = unit.tasks  # type: ignore[assignment]
    first = tasks[0]
    key = tape_key(first, first.gear)
    record_s = replay_s = 0.0

    def row(loaded: bool, fallback: str | None = None) -> GroupRow:
        return GroupRow(first.key, len(tasks), loaded, fallback, record_s, replay_s)

    try:
        tape = _load_tape(first, tapes, key) if tapes is not None else None
        if tape is not None:
            start = time.perf_counter()
            try:
                results = _replay_unit(tasks, tape)
                replay_s = time.perf_counter() - start
                return results, row(True), None
            except BatchUnsupported:
                tapes.discard(key)  # type: ignore[union-attr]
                replay_s = time.perf_counter() - start
        start = time.perf_counter()
        tape = _record_tape(first, tapes, key)
        record_s = time.perf_counter() - start
        start = time.perf_counter()
        results = _replay_unit(tasks, tape)
        replay_s += time.perf_counter() - start
        return results, row(False), tape.recording_stats
    except BatchUnsupported as exc:
        return [task.run() for task in tasks], row(False, str(exc)), None


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
