"""Batch-backend sweeps: grouping, merge determinism, cache keying.

The load-bearing guarantees: runs sharing a recording fold into one
group and scatter back byte-identically whether the sweep is serial or
pooled (chunking counts *groups*, never splitting a recording across
workers), batch results cache under keys the event engine never reads,
and non-batchable runs pass through unchanged.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.cluster.machines import athlon_cluster
from repro.exec import (
    CalibrationTask,
    Executor,
    GearSweepTask,
    MeasurementTask,
    PolicyMeasurementTask,
    ResultCache,
    RunRecord,
    TapeCache,
    tape_key,
)
from repro.exec.batch_sweep import _form_units, batch_cache_key
from repro.exec.record import EVENT
from repro.exec.sweep import _auto_chunk_size, cache_key, sweep
from repro.experiments import table1
from repro.obs import RunObserver
from repro.policy.adaptive import IdleLowPolicy
from repro.util.errors import ConfigurationError
from repro.workloads.jacobi import Jacobi
from repro.workloads.nas import EP

#: Tiny but non-degenerate workload scale for executor tests.
SCALE = 0.03

ALL_GEARS = (1, 2, 3, 4, 5, 6)


@pytest.fixture(scope="module")
def cluster():
    return athlon_cluster()


@pytest.fixture(scope="module")
def tasks(cluster):
    """A mixed bag: one gear-grid family, one sweep, one calibration and
    one passthrough — 15 runs in 3 groups and 1 passthrough run."""
    return (
        [
            MeasurementTask(cluster, EP(SCALE), nodes=2, gear=g)
            for g in ALL_GEARS
        ]
        + [GearSweepTask(cluster, Jacobi(SCALE), nodes=2, gears=(1, 4))]
        + [CalibrationTask(cluster, EP(SCALE))]
        + [PolicyMeasurementTask(cluster, EP(SCALE), nodes=2, policy=IdleLowPolicy())]
    )


def _pending(tasks):
    """Every run of ``tasks``, paired with its point, as a sweep forms units."""
    return [(task, run) for task in tasks for run in task.runs()]


def _runs(tasks):
    return sum(len(task.runs()) for task in tasks)


def _tapes(record):
    """(tape hits, tape misses) of a record: one per batch group."""
    return record.tape_hits, len(record.groups) - record.tape_hits


def _stage(record, name):
    """Summed record or replay seconds of a record's groups."""
    return sum(getattr(group, name) for group in record.groups)


def _payloads(tasks, results):
    return [
        json.dumps(task.encode(result), sort_keys=True)
        for task, result in zip(tasks, results)
    ]


class TestGrouping:
    def test_units_form_by_shared_recording(self, tasks):
        units = _form_units(_pending(tasks))
        # 6 measurements -> 1 group, the sweep's 2 runs -> their own
        # group, the calibration's 6 one-node runs -> a third, the policy
        # run -> passthrough.
        assert [(len(u.tasks), u.batch) for u in units] == [
            (6, True),
            (2, True),
            (6, True),
            (1, False),
        ]

    def test_gear_moved_points_group_but_node_moved_do_not(self, cluster):
        mixed = [
            MeasurementTask(cluster, EP(SCALE), nodes=2, gear=1),
            MeasurementTask(cluster, EP(SCALE), nodes=4, gear=1),
            MeasurementTask(cluster, EP(SCALE), nodes=2, gear=5),
        ]
        units = _form_units(_pending(mixed))
        assert [len(u.tasks) for u in units] == [2, 1]
        # First-seen order: the nodes=2 pair merged into the first unit.
        assert [t.gear for t in units[0].tasks] == [1, 5]

    def test_report_accounts_groups_and_passthrough(self, tasks):
        record = RunRecord()
        sweep(tasks, backend="batch", record=record)
        assert [group.runs for group in record.groups] == [6, 2, 6]
        assert len(record.tier(EVENT)) == 1  # the passthrough policy run
        assert record.fallback_points == 0
        line = record.batch_summary()
        assert "14 run(s) in 3 group(s) (0 single-run), 1 passthrough" in line


class TestMergeDeterminism:
    """The regression the group-aware chunk sizing pins down.

    Chunk sizes are computed from the number of *units*, not points:
    with more workers than groups, a point-count chunk size would split
    a recording's points across workers (duplicating the recording) or
    leave the merge order at the mercy of completion order.  Serial,
    pooled, and explicitly-chunked sweeps must produce byte-identical
    payload lists.
    """

    def test_pooled_merge_is_byte_identical_to_serial(self, tasks):
        serial = _payloads(tasks, sweep(tasks, backend="batch", jobs=1))
        pooled = _payloads(tasks, sweep(tasks, backend="batch", jobs=4))
        assert pooled == serial

    def test_explicit_chunk_size_changes_nothing(self, tasks):
        serial = _payloads(tasks, sweep(tasks, backend="batch", jobs=1))
        chunked = _payloads(
            tasks, sweep(tasks, backend="batch", jobs=2, chunk_size=1)
        )
        assert chunked == serial

    def test_chunks_count_units_not_points(self, tasks):
        # 15 runs but only 4 units: auto-sizing on runs would give
        # chunks of 2+ units and idle half a 4-worker pool; sizing on
        # units keeps one unit per chunk.
        units = _form_units(_pending(tasks))
        assert _auto_chunk_size(len(units), jobs=4) == 1

    def test_more_workers_than_groups_still_groups_once(self, tasks):
        record = RunRecord()
        sweep(tasks, backend="batch", jobs=8, record=record)
        assert len(record.groups) == 3  # recordings never split by the pool

    def test_duplicate_point_keys_rejected(self, tasks):
        with pytest.raises(ConfigurationError, match="duplicate"):
            sweep([tasks[0], tasks[0]], backend="batch")


class TestCacheKeying:
    def test_batch_keys_never_collide_with_event_keys(self, tasks):
        for _, run in _pending(tasks):
            if type(run) is MeasurementTask:  # the batchable kind
                assert batch_cache_key(run) != cache_key(run)

    def test_warm_cache_replays_identically(self, tasks, tmp_path):
        cache = ResultCache(root=tmp_path / "batch-cache")
        cold = _payloads(tasks, sweep(tasks, backend="batch", cache=cache))
        record = RunRecord()
        warm = _payloads(
            tasks, sweep(tasks, backend="batch", cache=cache, record=record)
        )
        assert warm == cold
        assert cache.stats.hits == _runs(tasks)
        assert record.groups == []  # nothing left to record

    def test_event_executor_never_reads_batch_entries(self, tasks, tmp_path):
        cache = ResultCache(root=tmp_path / "shared-cache")
        sweep(tasks, backend="batch", cache=cache)
        hits_before = cache.stats.hits
        sweep(tasks[:1], cache=cache)
        # The event sweep missed: batch results are 1e-9-equivalent,
        # not bitwise, so they must not shadow exact results.
        assert cache.stats.hits == hits_before


    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("backend", ["event", "batch"])
    def test_every_stored_key_follows_the_backend(
        self, cluster, tmp_path, monkeypatch, backend, jobs
    ):
        four_kinds = [
            GearSweepTask(cluster, Jacobi(SCALE), nodes=2, gears=(1, 4)),
            MeasurementTask(cluster, EP(SCALE), nodes=2, gear=3),
            PolicyMeasurementTask(
                cluster, EP(SCALE), nodes=2, policy=IdleLowPolicy()
            ),
            CalibrationTask(cluster, EP(SCALE)),
        ]
        cache = ResultCache(root=tmp_path)
        stored = []
        store = cache.store

        def recording_store(key, payload, *, meta=None):
            stored.append(key)
            return store(key, payload, meta=meta)

        monkeypatch.setattr(cache, "store", recording_store)
        sweep(four_kinds, backend=backend, jobs=jobs, cache=cache)
        # Only runs are stored, each under its backend's key; the
        # composites (2 runs and 6 runs) have no entry of their own.
        assert stored == [
            batch_cache_key(run)
            if backend == "batch" and type(run) is MeasurementTask
            else cache_key(run)
            for _, run in _pending(four_kinds)
        ]
        assert len(stored) == 10


class TestRunSharing:
    def test_table1_alone_forms_twelve_groups_and_reloads_six_tapes(
        self, tmp_path, monkeypatch
    ):
        # Per code, the gears 1-3 sweep's runs form one group and the
        # gear-1 UPM run a single-run group of its own: repeats inside
        # one sweep are not merged.  That group reloads the tape the
        # sweep's group stored, and the record counts it as a hit.
        # (The sweep's chunks keep their own TapeCache handles, so
        # store hits are counted at load.)
        hits = []
        load = TapeCache.load

        def counting_load(tapes, key, decode=None):
            before = tapes.stats.hits
            payload = load(tapes, key, decode)
            hits.append(tapes.stats.hits - before)
            return payload

        monkeypatch.setattr(TapeCache, "load", counting_load)
        executor = Executor(backend="batch", cache=ResultCache(root=tmp_path))
        table1(scale=SCALE, executor=executor)
        record = executor.record
        assert len(record.groups) == 12
        assert [group.runs for group in record.groups].count(1) == 6
        assert record.fallback_points == 0
        assert _tapes(record) == (sum(hits), 6) == (6, 6)
        line = record.batch_summary()
        assert "(6 single-run)" in line
        assert "tape cache: 6 hit(s), 6 miss(es)" in line

    def test_calibration_runs_hit_an_earlier_sweep(self, cluster, tmp_path):
        executor = Executor(backend="batch", cache=ResultCache(root=tmp_path))
        executor.run([GearSweepTask(cluster, EP(SCALE), nodes=1)])
        stores = executor.stats.stores
        (calibration,) = executor.run([CalibrationTask(cluster, EP(SCALE))])
        assert executor.stats.stores == stores == 6
        assert executor.stats.hits == 6
        assert len(executor.record.groups) == 1
        assert calibration.gears == ALL_GEARS


class TestProfileRows:
    def test_cache_latency_lands_on_its_own_point(
        self, cluster, tmp_path, monkeypatch
    ):
        # Units run in group order (EP@1 and EP@3 share a recording),
        # not in pending order: the store latency of the slow Jacobi
        # point must still be charged to Jacobi's own row.
        delay = 0.05
        pending = [
            MeasurementTask(cluster, EP(SCALE), nodes=2, gear=1),
            MeasurementTask(cluster, Jacobi(SCALE), nodes=2, gear=1),
            MeasurementTask(cluster, EP(SCALE), nodes=2, gear=3),
        ]
        cache = ResultCache(root=tmp_path)
        store = cache.store

        def slow_for_jacobi(key, payload, *, meta=None):
            if "Jacobi" in meta["point"]:
                time.sleep(delay)
            return store(key, payload, meta=meta)

        monkeypatch.setattr(cache, "store", slow_for_jacobi)
        record = RunRecord()
        sweep(pending, backend="batch", cache=cache, record=record)
        rows = {row.key: row for row in record.runs}
        assert rows[pending[1].key].store_s >= delay
        assert rows[pending[0].key].store_s < delay
        assert rows[pending[2].key].store_s < delay
        assert all(row.lookup_s > 0 for row in record.runs)
        # Rows come back in task order, whatever order the units ran in.
        assert list(rows) == [task.key for task in pending]


class TestBackendSelection:
    def test_sweep_routes_batch_backend(self, tasks):
        # Unobserved, the batch backend groups the batchable points; an
        # observer routes the sweep to the event engine, because a
        # replayed tape produces no events to observe.
        record = RunRecord()
        sweep(tasks, backend="batch", record=record)
        assert (len(record.groups), len(record.tier(EVENT))) == (3, 1)
        observed_record = RunRecord()
        observed = sweep(
            tasks,
            backend="batch",
            observer=RunObserver(),
            record=observed_record,
        )
        assert _payloads(tasks, observed) == _payloads(tasks, sweep(tasks))
        assert observed_record.groups == []
        assert {row.tier for row in observed_record.runs} == {EVENT}

    @pytest.mark.parametrize("make", [
        lambda: Executor(backend="turbo"),
        lambda: sweep([], backend="turbo"),
    ])
    def test_unknown_backend_fails_loudly(self, make):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            make()

    def test_executor_accumulates_batch_report(self, tasks):
        executor = Executor(backend="batch")
        executor.run(tasks[:6])
        executor.run(tasks[6:])
        assert executor.batch_report is executor.record
        assert len(executor.record.groups) == 3
        assert len(executor.record.tier(EVENT)) == 1
        assert "batch backend:" in executor.record.batch_summary()

    def test_event_executor_has_no_batch_report(self):
        assert Executor().batch_report is None


class TestTapeCache:
    """The persistent recording store: skip re-recording, never re-trust."""

    def test_miss_then_hit_with_identical_results(self, tasks, tmp_path):
        tape_cache = TapeCache(tmp_path / "tapes")
        cold_record = RunRecord()
        cold = _payloads(
            tasks,
            sweep(
                tasks,
                backend="batch",
                record=cold_record,
                tape_cache=tape_cache,
            ),
        )
        assert cold_record.tape_cache
        assert _tapes(cold_record) == (0, 3)
        warm_record = RunRecord()
        warm = _payloads(
            tasks,
            sweep(
                tasks,
                backend="batch",
                record=warm_record,
                tape_cache=tape_cache,
            ),
        )
        assert warm == cold  # a loaded tape replays byte-identically
        assert _tapes(warm_record) == (3, 0)
        assert _stage(warm_record, "record_s") == 0.0  # nothing re-recorded

    def test_pooled_sweep_shares_tapes_and_matches_serial(self, tasks, tmp_path):
        serial = _payloads(tasks, sweep(tasks, backend="batch"))
        tape_cache = TapeCache(tmp_path / "tapes")
        cold = _payloads(
            tasks, sweep(tasks, backend="batch", jobs=4, tape_cache=tape_cache)
        )
        warm = _payloads(
            tasks, sweep(tasks, backend="batch", jobs=4, tape_cache=tape_cache)
        )
        assert cold == serial
        assert warm == serial

    def test_prune_evicts_tapes(self, tasks, tmp_path, monkeypatch):
        tape_cache = TapeCache(tmp_path / "tapes")
        sweep(tasks, backend="batch", tape_cache=tape_cache)
        assert len(tape_cache) == 3
        # Explicit size bound: evict (LRU) until the store fits.
        assert tape_cache.prune(max_bytes=0) == 3
        assert len(tape_cache) == 0
        assert tape_cache.stats.evicted == 3
        # The environment knob drives the same bound when prune() gets
        # no explicit argument (the runner's post-run prune path).
        sweep(tasks, backend="batch", tape_cache=tape_cache)
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0.000001")
        assert tape_cache.prune() == 3
        # Eviction is never silent corruption: the next sweep simply
        # re-records and produces the same numbers.
        record = RunRecord()
        sweep(tasks, backend="batch", record=record, tape_cache=tape_cache)
        assert _tapes(record) == (0, 3)

    def test_tape_store_is_invisible_to_the_result_cache(self, tasks, tmp_path):
        # The tape cache nests under the result-cache root in the
        # executor's derived layout; the result cache's entry glob must
        # never see (or prune) tape entries as its own.
        cache = ResultCache(root=tmp_path / "cache")
        tape_cache = TapeCache(tmp_path / "cache" / "tapes")
        sweep(tasks, backend="batch", cache=cache, tape_cache=tape_cache)
        assert len(tape_cache) == 3
        assert len(cache) == _runs(tasks)

    def test_summary_names_fallbacks_stages_and_tape_counts(
        self, tasks, tmp_path
    ):
        record = RunRecord()
        sweep(
            tasks,
            backend="batch",
            record=record,
            tape_cache=TapeCache(tmp_path / "tapes"),
        )
        line = record.batch_summary()
        assert ", 0 fallback(s)" in line
        assert "tape cache: 0 hit(s), 3 miss(es)" in line
        assert "stages: record" in line
        assert "replay" in line and "merge" in line
        assert _stage(record, "record_s") > 0.0
        assert _stage(record, "replay_s") > 0.0

    def test_no_cache_summary_omits_tape_counts(self, tasks):
        record = RunRecord()
        sweep(tasks, backend="batch", record=record)
        assert not record.tape_cache
        assert "tape cache" not in record.batch_summary()

    @pytest.mark.parametrize("corruption", ["swapped_segments", "wait_slot"])
    def test_corrupted_tape_is_rerecorded(self, cluster, tmp_path, corruption):
        # A cached tape that decodes but whose ops no longer hold
        # together is a miss: the sweep re-records instead of crashing
        # in replay, and ships exactly the clean sweep's numbers.
        task = GearSweepTask(cluster, Jacobi(SCALE), nodes=2, gears=ALL_GEARS)
        clean = _payloads([task], sweep([task], backend="batch"))
        tape_cache = TapeCache(tmp_path / "tapes")
        sweep([task], backend="batch", tape_cache=tape_cache)
        key = tape_key(task, ALL_GEARS[0])
        payload = tape_cache.load(key)
        ops = payload["ops"][0]
        if corruption == "swapped_segments":
            first, second = [op for op in ops if op[0] == 0][:2]
            first[1], second[1] = second[1], first[1]
        else:
            wait = next(op for op in ops if op[0] == 3)
            wait[1] = payload["recv_slots"][0]
        tape_cache.store(key, payload)
        record = RunRecord()
        again = sweep([task], backend="batch", record=record, tape_cache=tape_cache)
        assert _payloads([task], again) == clean
        assert record.fallback_points == 0
        assert _stage(record, "record_s") > 0.0  # the entry was re-recorded


class TestTapeKey:
    def test_shared_across_kinds_and_requested_gears(self, cluster):
        # Every member of a gear-grid family — and the sweep task that
        # covers the same grid — must map to ONE tape.
        low = MeasurementTask(cluster, EP(SCALE), nodes=2, gear=1)
        high = MeasurementTask(cluster, EP(SCALE), nodes=2, gear=5)
        grid = GearSweepTask(cluster, EP(SCALE), nodes=2, gears=ALL_GEARS)
        assert tape_key(low, 1) == tape_key(high, 1) == tape_key(grid, 1)

    def test_sensitive_to_everything_that_changes_the_recording(self, cluster):
        base = MeasurementTask(cluster, EP(SCALE), nodes=2, gear=1)
        keys = {
            tape_key(base, 1),
            tape_key(base, 2),  # recording gear
            tape_key(MeasurementTask(cluster, EP(SCALE), nodes=4, gear=1), 1),
            tape_key(MeasurementTask(cluster, Jacobi(SCALE), nodes=2, gear=1), 1),
            tape_key(MeasurementTask(cluster, EP(0.3), nodes=2, gear=1), 1),
        }
        assert len(keys) == 5


class TestSweepForwarding:
    def test_sweep_forwards_tape_cache(self, tasks, tmp_path):
        tape_cache = TapeCache(tmp_path / "tapes")
        via_sweep = _payloads(
            tasks, sweep(tasks, backend="batch", tape_cache=tape_cache)
        )
        uncached = _payloads(tasks, sweep(tasks, backend="batch"))
        assert via_sweep == uncached
        assert len(tape_cache) == 3  # the cache saw the recordings


class TestExecutorTapeCache:
    def test_derived_under_the_result_cache_root(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        executor = Executor(backend="batch", cache=cache)
        assert isinstance(executor.tape_cache, TapeCache)
        assert executor.tape_cache.root == tmp_path / "cache" / "tapes"

    def test_not_derived_without_batch_backend_or_cache(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        assert Executor(cache=cache).tape_cache is None
        assert Executor(backend="batch").tape_cache is None

    def test_tapes_outlive_a_cleared_result_cache(self, tasks, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        executor = Executor(backend="batch", cache=cache)
        executor.run(tasks)
        cache.clear()  # point payloads gone; recordings survive
        executor.run(tasks)
        assert _tapes(executor.record) == (3, 3)
