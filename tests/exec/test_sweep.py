"""Concurrency and caching behaviour of the sweep executor.

The load-bearing guarantees: a parallel sweep merges to exactly the
serial result (deterministic, ordered by point, not by completion), a
failing worker surfaces as a :class:`SimulationError` naming the point,
and the cache's hit/miss/invalidation accounting is exact.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from typing import Any

import pytest

from repro.cluster.machines import athlon_cluster
from repro.core.calibration import calibrate_gears
from repro.core.run import gear_sweep, run_workload
from repro.exec import (
    CalibrationTask,
    Executor,
    GearSweepTask,
    MeasurementTask,
    ResultCache,
    RunRecord,
    RunTask,
    code_version_token,
    sweep,
)
from repro.exec.batch_sweep import _Unit
from repro.exec.record import CACHE, EVENT
from repro.exec.sweep import (
    _auto_chunk_size,
    _ChunkPointError,
    _run_chunk,
    cache_key,
)
from repro.mpi.world import World
from repro.util.errors import ConfigurationError, SimulationError
from repro.workloads.jacobi import Jacobi
from repro.workloads.nas import EP, MG

#: Tiny but non-degenerate workload scale for executor tests.
SCALE = 0.02


@pytest.fixture(scope="module")
def cluster():
    return athlon_cluster()


@pytest.fixture(scope="module")
def tasks(cluster):
    """A mixed bag of points: sweeps, measurements, a calibration."""
    return [
        GearSweepTask(cluster, EP(SCALE), nodes=2),
        GearSweepTask(cluster, MG(SCALE), nodes=1, gears=(1, 2)),
        MeasurementTask(cluster, Jacobi(SCALE), nodes=3, gear=2),
        CalibrationTask(cluster, EP(SCALE)),
    ]


def _runs(tasks) -> int:
    """How many runs the points list (every one distinct here)."""
    return sum(len(task.runs()) for task in tasks)


@dataclass(frozen=True)
class ExplodingTask(RunTask):
    """A point whose simulation always fails (picklable for the pool)."""

    label: str

    @property
    def key(self) -> tuple:
        return ("exploding", self.label)

    def describe(self) -> Any:
        return {"kind": "exploding", "label": self.label}

    def run(self) -> Any:
        raise ValueError(f"boom in {self.label}")

    def encode(self, result: Any) -> Any:  # pragma: no cover - never succeeds
        return result

    def decode(self, payload: Any) -> Any:  # pragma: no cover - never succeeds
        return payload


class TestDeterministicMerge:
    def test_serial_and_parallel_results_are_identical(self, tasks):
        serial = sweep(tasks, jobs=1)
        parallel = sweep(tasks, jobs=4)
        assert serial == parallel

    def test_results_come_back_in_task_order(self, cluster):
        counts = (4, 1, 3, 2)
        tasks = [
            GearSweepTask(cluster, Jacobi(SCALE), nodes=n) for n in counts
        ]
        curves = sweep(tasks, jobs=4)
        assert tuple(c.nodes for c in curves) == counts

    def test_duplicate_point_keys_are_rejected(self, cluster):
        task = GearSweepTask(cluster, EP(SCALE), nodes=1)
        with pytest.raises(ConfigurationError, match="duplicate"):
            sweep([task, task])

    def test_jobs_must_be_positive(self, tasks):
        with pytest.raises(ConfigurationError, match="jobs"):
            sweep(tasks, jobs=0)


class TestFailurePropagation:
    def test_inline_failure_names_the_point(self, cluster):
        tasks = [
            GearSweepTask(cluster, EP(SCALE), nodes=1),
            ExplodingTask("inline"),
        ]
        with pytest.raises(SimulationError, match=r"'exploding', 'inline'") as info:
            sweep(tasks, jobs=1)
        assert isinstance(info.value.__cause__, ValueError)

    def test_pool_failure_names_the_point(self, cluster):
        tasks = [
            GearSweepTask(cluster, EP(SCALE), nodes=1),
            ExplodingTask("pooled"),
            GearSweepTask(cluster, EP(SCALE), nodes=2),
        ]
        with pytest.raises(SimulationError, match=r"'exploding', 'pooled'") as info:
            sweep(tasks, jobs=2)
        assert isinstance(info.value.__cause__, ValueError)


class TestCacheAccounting:
    def test_cold_then_warm(self, tasks, tmp_path):
        # The cache counts runs: one entry per run, none per composite.
        cache = ResultCache(root=tmp_path)
        cold = sweep(tasks, cache=cache)
        assert cache.stats.misses == _runs(tasks)
        assert cache.stats.stores == _runs(tasks)
        warm = sweep(tasks, cache=cache)
        assert warm == cold
        assert cache.stats.hits == _runs(tasks)
        assert len(cache) == _runs(tasks)

    def test_warm_parallel_sweep_does_not_spawn_work(self, tasks, tmp_path):
        cache = ResultCache(root=tmp_path)
        cold = sweep(tasks, cache=cache)
        # All runs cached: the pooled path has nothing to submit.
        warm = sweep(tasks, jobs=4, cache=cache)
        assert warm == cold
        assert cache.stats.stores == _runs(tasks)

    def test_distinct_configs_have_distinct_keys(self, cluster):
        keys = {
            cache_key(MeasurementTask(cluster, EP(SCALE), nodes=n)) for n in (1, 2, 4)
        }
        # EP(0.25) has a different iteration count, hence different work.
        keys.add(cache_key(MeasurementTask(cluster, EP(0.25), nodes=1)))
        keys.add(cache_key(MeasurementTask(cluster, EP(SCALE), nodes=1, gear=2)))
        assert len(keys) == 5

    def test_corrupt_entry_is_invalidated_and_recomputed(self, cluster, tmp_path):
        cache = ResultCache(root=tmp_path)
        tasks = [GearSweepTask(cluster, EP(SCALE), nodes=1, gears=(1, 2))]
        (result,) = sweep(tasks, cache=cache)
        entry = next(iter(cache._entry_paths()))
        entry.write_text("{ not json")
        (again,) = sweep(tasks, cache=cache)
        assert again == result
        assert cache.stats.invalidated == 1
        # Two runs stored cold, and the corrupt one again.
        assert cache.stats.stores == 3

    def test_prune_removes_stale_versions(self, cluster, tmp_path):
        cache = ResultCache(root=tmp_path)
        sweep([MeasurementTask(cluster, EP(SCALE), nodes=1)], cache=cache)
        assert cache.prune() == 0
        assert cache.prune(current_version="some-other-code") == 1
        assert len(cache) == 0
        assert cache.stats.invalidated == 1

    def test_clear_empties_the_cache(self, tasks, tmp_path):
        cache = ResultCache(root=tmp_path)
        sweep(tasks, cache=cache)
        assert cache.clear() == _runs(tasks)
        assert len(cache) == 0

    def test_cache_key_tracks_code_version(self, cluster, monkeypatch):
        # repro.exec.sweep (the module) is shadowed by the sweep function
        # re-exported from the package, so patch via the module object.
        import importlib

        sweep_module = importlib.import_module("repro.exec.sweep")

        task = MeasurementTask(cluster, EP(SCALE), nodes=1)
        before = cache_key(task)
        monkeypatch.setattr(sweep_module, "code_version_token", lambda: "other-code")
        assert cache_key(task) != before


class TestExecutor:
    def test_default_executor_is_serial_and_uncached(self):
        ex = Executor()
        assert ex.jobs == 1 and ex.cache is None
        assert ex.stats.lookups == 0

    def test_cache_true_builds_default_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        ex = Executor(cache=True)
        assert ex.cache is not None
        assert ex.cache.root == tmp_path / "c"

    def test_executor_runs_tasks(self, tasks, tmp_path):
        ex = Executor(jobs=2, cache=ResultCache(root=tmp_path))
        first = ex.run(tasks)
        second = ex.run(tasks)
        assert first == second
        assert ex.stats.hits == _runs(tasks)

    def test_code_version_token_is_stable(self):
        assert code_version_token() == code_version_token()
        assert len(code_version_token()) == 64


class TestChunkedDispatch:
    def test_chunked_sweep_matches_serial(self, tasks):
        serial = sweep(tasks, jobs=1)
        for size in (1, 2, len(tasks) + 5):
            assert sweep(tasks, jobs=2, chunk_size=size) == serial

    def test_chunk_size_must_be_positive(self, tasks):
        with pytest.raises(ConfigurationError, match="chunk_size"):
            sweep(tasks, jobs=2, chunk_size=0)

    def test_auto_chunk_size_targets_four_chunks_per_worker(self):
        assert _auto_chunk_size(32, 4) == 2
        assert _auto_chunk_size(3, 8) == 1
        assert _auto_chunk_size(0, 4) == 1

    def test_chunk_failure_names_the_exact_point(self, cluster):
        # The exploding point sits mid-chunk: the error must name *it*,
        # not the chunk or the chunk's first point.
        tasks = [
            GearSweepTask(cluster, EP(SCALE), nodes=1),
            ExplodingTask("mid-chunk"),
            GearSweepTask(cluster, EP(SCALE), nodes=2),
        ]
        with pytest.raises(
            SimulationError, match=r"'exploding', 'mid-chunk'"
        ) as info:
            sweep(tasks, jobs=2, chunk_size=3)
        assert isinstance(info.value.__cause__, ValueError)

    def test_chunk_point_error_survives_pickling(self):
        exc = pickle.loads(pickle.dumps(_ChunkPointError(3, ValueError("boom"))))
        assert exc.index == 3
        assert isinstance(exc.cause, ValueError)

    def test_warm_cache_chunked_sweep_replays_without_workers(
        self, tasks, tmp_path
    ):
        cache = ResultCache(root=tmp_path)
        cold = sweep(tasks, cache=cache)
        warm = sweep(tasks, jobs=2, chunk_size=2, cache=cache)
        assert warm == cold
        assert cache.stats.hits == _runs(tasks)
        assert cache.stats.stores == _runs(tasks)


class TestChunkedProfile:
    def test_per_point_seconds_sum_to_chunk_wall(self, cluster):
        chunk = [
            _Unit([MeasurementTask(cluster, EP(SCALE), nodes=n)], [i])
            for i, n in enumerate((1, 2))
        ]
        start = time.perf_counter()
        outcomes = _run_chunk(chunk)
        wall = time.perf_counter() - start
        assert [len(outcome.results) for outcome in outcomes] == [1, 1]
        assert [outcome.group for outcome in outcomes] == [None, None]
        rows = [row for outcome in outcomes for row in outcome.rows]
        assert [row.ff for row in rows] == [None, None]
        assert all(row.seconds > 0 for row in rows)
        # The units' in-worker times fit inside the caller's wall.
        assert sum(row.seconds for row in rows) <= wall

    def test_chunked_sweep_profile_accounting(self, tasks):
        record = RunRecord()
        sweep(tasks, jobs=2, chunk_size=2, record=record)
        assert len(record.runs) == _runs(tasks)
        # One event row per run, merged back in task order.
        assert [row.key for row in record.runs] == [
            run.key for task in tasks for run in task.runs()
        ]
        assert all(row.tier == EVENT for row in record.runs)
        assert all(row.seconds > 0 for row in record.runs)
        # Fifteen runs in chunks of two -> eight chunks, both workers used.
        assert record.workers == 2
        # Per-point times are in-worker walls (startup and IPC excluded),
        # so busy time fits inside workers * host wall time.
        assert record.busy_s <= record.wall_s * record.workers


class TestRunsAreShared:
    """Points are assembled from runs, and the cache serves every run once.

    A one-node sweep, then its gear-1 measurement and the workload's
    calibration, then a two-node sweep and its gear-1 measurement: the
    later points repeat runs the earlier ones stored, so 12 distinct
    runs are simulated where whole-point caching simulated 20.
    """

    @pytest.mark.parametrize(
        "jobs,chunk_size",
        [(1, None), (2, None), (2, 1)],
        ids=["serial", "pooled", "chunked"],
    )
    def test_each_distinct_run_is_simulated_once(
        self, cluster, tmp_path, monkeypatch, jobs, chunk_size
    ):
        workload = Jacobi(SCALE)
        simulated = []
        world_run = World.run

        def counting_run(world):
            simulated.append(world.nodes)
            return world_run(world)

        # Pool workers count in their own memory; the record and the
        # cache count for them.
        if jobs == 1:
            monkeypatch.setattr(World, "run", counting_run)
        executor = Executor(
            jobs=jobs,
            chunk_size=chunk_size,
            cache=ResultCache(root=tmp_path),
        )
        (one_node,) = executor.run([GearSweepTask(cluster, workload, nodes=1)])
        measured, calibration = executor.run(
            [
                MeasurementTask(cluster, workload, nodes=1, gear=1),
                CalibrationTask(cluster, workload),
            ]
        )
        (two_node,) = executor.run([GearSweepTask(cluster, workload, nodes=2)])
        (two_measured,) = executor.run(
            [MeasurementTask(cluster, workload, nodes=2, gear=1)]
        )
        tiers = [row.tier for row in executor.record.runs]
        assert (tiers.count(EVENT), tiers.count(CACHE)) == (12, 8)
        assert executor.stats.stores == 12
        assert (executor.stats.hits, executor.stats.misses) == (8, 12)
        if jobs == 1:
            assert sorted(simulated) == [1] * 6 + [2] * 6
        monkeypatch.setattr(World, "run", world_run)
        assert one_node == gear_sweep(cluster, workload, nodes=1)
        assert measured == run_workload(cluster, workload, nodes=1, gear=1)
        assert calibration == calibrate_gears(cluster, workload)
        assert two_node == gear_sweep(cluster, workload, nodes=2)
        assert two_measured == run_workload(cluster, workload, nodes=2, gear=1)
        # Executor results never carry the event-level result.
        assert measured.result is None and two_measured.result is None
