"""Fast-forward wiring through the execution stack, and cache bounds."""

from __future__ import annotations

import json
import os

import pytest

from repro.cluster.machines import athlon_cluster
from repro.exec import (
    CacheStats,
    Executor,
    GearSweepTask,
    MeasurementTask,
    PolicyMeasurementTask,
    ResultCache,
    RunRecord,
    sweep,
)
from repro.exec.cache import CACHE_MAX_MB_ENV, env_max_bytes
from repro.exec.sweep import cache_key
from repro.experiments.figure3 import figure3
from repro.experiments.table1 import table1
from repro.mpi import FastForwardConfig, FastForwardStats
from repro.policy import IdleLowPolicy, SlackPolicy
from repro.workloads import EP, Jacobi

#: Engages within Jacobi's 100 iterations.
FF = FastForwardConfig(max_period=8)


@pytest.fixture(scope="module")
def cluster():
    return athlon_cluster()


class TestCacheKeys:
    def test_fast_forward_changes_the_cache_key(self, cluster):
        plain = MeasurementTask(cluster, Jacobi(), nodes=2)
        fast = MeasurementTask(cluster, Jacobi(), nodes=2, fast_forward=FF)
        assert cache_key(plain) != cache_key(fast)
        assert plain.key != fast.key

    def test_plain_task_fingerprint_unchanged_by_the_field(self, cluster):
        # A task without a config must fingerprint exactly as before the
        # field existed: no "fast_forward" entry in its description.
        task = MeasurementTask(cluster, Jacobi(), nodes=2)
        assert "fast_forward" not in task.describe()

    def test_different_knobs_get_different_keys(self, cluster):
        a = MeasurementTask(
            cluster, Jacobi(), nodes=2, fast_forward=FastForwardConfig(max_period=4)
        )
        b = MeasurementTask(
            cluster, Jacobi(), nodes=2, fast_forward=FastForwardConfig(max_period=8)
        )
        assert cache_key(a) != cache_key(b)


class TestExecutorStamping:
    def test_executor_stamps_config_onto_tasks(self, cluster):
        executor = Executor(fast_forward=FF)
        executor.run([MeasurementTask(cluster, Jacobi(), nodes=2)])
        assert executor.record.fast_forward().skipped_iterations > 0

    def test_task_keeps_its_own_config(self, cluster):
        own = FastForwardConfig(max_period=4)
        executor = Executor(fast_forward=FF)
        task = MeasurementTask(cluster, Jacobi(), nodes=2, fast_forward=own)
        assert executor._with_fast_forward(task) is task

    def test_results_match_full_simulation(self, cluster):
        task = MeasurementTask(cluster, Jacobi(), nodes=4)
        [full] = Executor().run([task])
        [fast] = Executor(fast_forward=FastForwardConfig(max_period=8)).run([task])
        assert abs(full.time - fast.time) <= 1e-9 * full.time
        assert abs(full.energy - fast.energy) <= 1e-9 * full.energy


class TestLedger:
    def test_paper_scale_ledger_is_pinned(self):
        # The golden artifacts run at a scale where fast-forward never
        # jumps, and the batch smoke compares outputs at 1e-9, which a
        # run that jumps less also meets.  So the full-scale ledger is
        # pinned here, field by field: a lost jump fails this test.
        executor = Executor(fast_forward=FastForwardConfig())
        figure3(scale=1.0, executor=executor)
        table1(scale=1.0, executor=executor)
        assert executor.record.fast_forward() == FastForwardStats(
            marks=7302,
            jumps=198,
            skipped_iterations=12388,
            deviations=0,
            armed_rounds=30,
            vetoed_rounds=0,
        )


    def test_summary_names_each_run_that_deviated(self, cluster):
        # The trial-slack policy shifts one rank's compute gear mid-run,
        # which changes its iteration signature: one deviation.  The
        # idle-low run settles and deviates nowhere.
        config = FastForwardConfig(max_period=4)
        slack, idle = (
            PolicyMeasurementTask(
                cluster, Jacobi(scale=0.1), nodes=4, policy=policy,
                fast_forward=config,
            )
            for policy in (SlackPolicy(), IdleLowPolicy())
        )
        record = RunRecord()
        sweep([slack, idle], record=record)
        assert record.deviations() == [(slack.key, 1)]
        summary = record.fast_forward_summary()
        assert summary.splitlines() == [
            f"fast-forward: {record.fast_forward().skipped_iterations} "
            "iterations macro-stepped across "
            f"{record.fast_forward().jumps} jumps, 1 deviations, in 1 run(s):",
            f"  {slack.key}: 1 deviation(s)",
        ]

    def test_summary_without_deviations_is_one_line(self, cluster):
        record = RunRecord()
        task = MeasurementTask(cluster, Jacobi(), nodes=2, fast_forward=FF)
        sweep([task], record=record)
        assert record.deviations() == []
        assert "\n" not in record.fast_forward_summary()
        assert "0 deviations" in record.fast_forward_summary()


class TestProfileAccounting:
    def test_inline_profile_records_ff_skipped(self, cluster):
        record = RunRecord()
        task = MeasurementTask(
            cluster, Jacobi(), nodes=2, fast_forward=FastForwardConfig(max_period=8)
        )
        sweep([task], record=record)
        (row,) = record.runs
        assert row.ff.skipped_iterations > 0
        assert record.fast_forward() == row.ff
        assert "fast-forwarded iterations" in record.render()

    def test_chunked_profile_matches_inline_skips(self, cluster):
        config = FastForwardConfig(max_period=8)
        tasks = [
            MeasurementTask(cluster, Jacobi(), nodes=n, fast_forward=config)
            for n in (1, 2, 4)
        ]
        inline = RunRecord()
        sweep(tasks, record=inline)
        pooled = RunRecord()
        sweep(tasks, jobs=2, chunk_size=2, record=pooled)
        assert [(r.key, r.ff) for r in inline.runs] == [
            (r.key, r.ff) for r in pooled.runs
        ]
        assert pooled.fast_forward().skipped_iterations > 0

    def test_pooled_sweep_folds_skips_into_parent_ledger(self, cluster):
        # Every field of every run's stats must come back from the
        # workers, under both backends.
        def ledger(backend, jobs):
            config = FastForwardConfig(max_period=8)
            tasks = [
                MeasurementTask(cluster, Jacobi(), nodes=n, fast_forward=config)
                for n in (1, 2)
            ]
            record = RunRecord()
            sweep(tasks, jobs=jobs, chunk_size=1, backend=backend, record=record)
            return record.fast_forward()

        for backend in ("event", "batch"):
            serial = ledger(backend, 1)
            assert serial.jumps > 0
            assert serial.skipped_iterations > 0
            assert ledger(backend, 2) == serial

    def test_unconfigured_tasks_report_zero_skips(self, cluster):
        record = RunRecord()
        sweep([MeasurementTask(cluster, EP(), nodes=2)], record=record)
        assert record.fast_forward() == FastForwardStats()
        assert "fast-forwarded iterations" not in record.render()

    def test_cache_traffic_rewrite_preserves_ff_skipped(self, cluster, tmp_path):
        record = RunRecord()
        task = MeasurementTask(
            cluster, Jacobi(), nodes=2, fast_forward=FastForwardConfig(max_period=8)
        )
        sweep([task], cache=ResultCache(root=tmp_path), record=record)
        # The merge adds the store latency to the run's row; its stats
        # must survive that.
        assert record.runs[0].store_s > 0
        assert record.runs[0].ff.skipped_iterations > 0
        # A cache hit serves the measurement, and no World ran for it.
        sweep([task], cache=ResultCache(root=tmp_path), record=record)
        assert record.runs[1].ff is None
        assert record.fast_forward() == record.runs[0].ff


class TestPooledBatchAccounting:
    """Pooled and serial batch sweeps record and account alike.

    A fast-forwarded Jacobi sweep and its standalone gear-1 measurement
    form two groups that share one tape key.  Without a tape cache each
    group records its own tape, pooled or not; a pooled sweep used to
    record the shared tape once, in a warm-up the serial path does not
    have, and so reported fewer fast-forwarded iterations.
    """

    def test_shared_tape_key_is_recorded_by_each_group(self, cluster):
        config = FastForwardConfig(max_period=8)
        tasks = [
            GearSweepTask(cluster, Jacobi(), nodes=2, fast_forward=config),
            MeasurementTask(cluster, Jacobi(), nodes=2, gear=1, fast_forward=config),
        ]

        def run(jobs, chunk_size):
            record = RunRecord()
            results = sweep(
                tasks, backend="batch", jobs=jobs, chunk_size=chunk_size,
                record=record,
            )
            groups = [(g.key, g.runs, g.loaded, g.fallback) for g in record.groups]
            recordings = [row.ff for row in record.runs if row.ff is not None]
            return results, record.fast_forward(), groups, recordings

        serial = run(1, None)
        assert run(2, 1) == serial
        _, ledger, groups, recordings = serial
        # Each group recorded the shared tape itself, and each recording
        # counts once, on the first run it served.
        assert len(recordings) == 2 and recordings[0] == recordings[1]
        assert ledger.skipped_iterations == 2 * recordings[0].skipped_iterations > 0
        assert [group[1:] for group in groups] == [
            (6, False, None),
            (1, False, None),
        ]


def _fill(cache: ResultCache, n: int) -> list[str]:
    keys = [f"{i:02d}" + "e" * 62 for i in range(n)]
    for i, key in enumerate(keys):
        cache.store(key, {"i": i, "pad": "x" * 512})
        # Distinct mtimes so LRU order is deterministic.
        path = cache._entry_path(key)
        os.utime(path, (1000.0 + i, 1000.0 + i))
    return keys


class TestCacheEviction:
    def test_prune_max_entries_evicts_oldest_first(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        keys = _fill(cache, 6)
        removed = cache.prune(max_entries=2)
        assert removed == 4
        assert cache.stats.evicted == 4
        assert len(cache) == 2
        # The two newest survive.
        assert cache.load(keys[-1]) is not None
        assert cache.load(keys[-2]) is not None
        assert cache.load(keys[0]) is None

    def test_prune_max_bytes_bound(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        _fill(cache, 5)
        entry_size = cache._entry_path(
            next(iter(cache._entry_paths())).stem
        ).stat().st_size
        cache.prune(max_bytes=entry_size * 2)
        assert len(cache) <= 2
        assert cache.stats.evicted >= 3

    def test_prune_without_bounds_keeps_current_entries(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        _fill(cache, 3)
        assert cache.prune() == 0
        assert len(cache) == 3
        assert cache.stats.evicted == 0

    def test_env_knob_bounds_default_prune(self, tmp_path, monkeypatch):
        cache = ResultCache(root=tmp_path)
        _fill(cache, 5)
        monkeypatch.setenv(CACHE_MAX_MB_ENV, str(1 / 1024))  # 1 KiB
        assert env_max_bytes() == 1024
        cache.prune()
        total = sum(p.stat().st_size for p in cache._entry_paths())
        assert total <= 1024
        assert cache.stats.evicted > 0

    @pytest.mark.parametrize("raw", ["", "not-a-number", "-5", "0"])
    def test_env_knob_ignores_bad_values(self, monkeypatch, raw):
        monkeypatch.setenv(CACHE_MAX_MB_ENV, raw)
        assert env_max_bytes() is None

    def test_stale_versions_count_as_invalidated_not_evicted(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = "ab" + "c" * 62
        cache.store(key, {"x": 1})
        path = cache._entry_path(key)
        entry = json.loads(path.read_text())
        entry["version"] = "stale"
        path.write_text(json.dumps(entry))
        removed = cache.prune(max_entries=10)
        assert removed == 1
        assert cache.stats.invalidated == 1
        assert cache.stats.evicted == 0

    def test_render_mentions_evictions_only_when_present(self):
        assert "evicted" not in CacheStats().render()
        assert "3 evicted" in CacheStats(evicted=3).render()


class TestHitRate:
    def test_hit_rate_is_zero_with_no_lookups(self):
        # Regression pin: a fresh cache must report 0.0, not raise
        # ZeroDivisionError.
        stats = CacheStats()
        assert stats.lookups == 0
        assert stats.hit_rate == 0.0

    def test_hit_rate_after_traffic(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = "ab" + "c" * 62
        assert cache.load(key) is None
        cache.store(key, {"x": 1})
        assert cache.load(key) == {"x": 1}
        assert cache.stats.hit_rate == 0.5
