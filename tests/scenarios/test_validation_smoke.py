"""Tier-1 smoke run of the validation sweep (~200 points).

A downsized instance of exactly what ``benchmarks/bench_validation.py``
runs nightly at 10k+ points: generator -> registry pack -> cached
chunked executor -> fast-forward fold-back, with the cache capped hard
enough to force evictions mid-sweep.
"""

from __future__ import annotations

import pytest

from repro.exec import ResultCache
from repro.scenarios import run_validation, total_points, validation_pack
from repro.scenarios.validation import ValidationReport


@pytest.fixture(scope="module")
def report(tmp_path_factory) -> ValidationReport:
    specs = validation_pack(min_points=200)
    cache = ResultCache(root=tmp_path_factory.mktemp("validation-cache"))
    return run_validation(
        specs,
        jobs=2,
        chunk_size=16,
        cache=cache,
        max_cache_bytes=64 * 1024,  # tiny: forces evictions every wave
        waves=4,
        recheck_stride=5,
    )


class TestSmokeSweep:
    def test_every_contract_held(self, report):
        assert report.mismatches == []
        assert report.ok

    def test_the_sweep_is_sized_as_requested(self, report):
        assert report.points >= 200
        assert report.scenarios == len(validation_pack(min_points=200))
        assert report.waves == 4

    def test_evictions_were_forced(self, report):
        """The tiny byte bound must actually evict entries mid-sweep."""
        assert report.cache_evicted > 0

    def test_recheck_saw_both_cache_paths(self, report):
        """Sampled points came back both as hits and as recomputations."""
        assert report.rechecked >= 200 // 5
        assert report.recheck_hits > 0
        assert report.recheck_recomputed > 0
        assert (
            report.recheck_hits + report.recheck_recomputed == report.rechecked
        )

    def test_fast_forward_engaged_and_agreed(self, report):
        assert report.ff_twins > 0
        assert report.ff_skipped_iterations > 0
        assert report.ff_max_rel_err <= report.ff_rtol

    def test_batch_backend_engaged_and_agreed(self, report):
        """Batch twins actually folded points into shared recordings."""
        assert report.batch_twins > 0
        assert report.batch_grouped_points > 0
        assert report.batch_groups < report.batch_grouped_points
        assert report.batch_fallback_points == 0
        assert report.batch_max_rel_err <= report.batch_rtol

    def test_report_serializes(self, report, tmp_path):
        import json

        path = report.write(tmp_path / "VALIDATION_sweep.json")
        data = json.loads(path.read_text())
        assert data["ok"] is True
        assert data["points"] == report.points
        assert data["mismatches"] == []


def test_each_phase_step_is_one_executor_call(tmp_path, monkeypatch):
    """The recheck is one sweep over the sampled points, and each twin
    spec's exact baselines one sweep, so no spec is digested again per
    point: the waves, the recheck, then two calls per twin."""
    from repro.exec import Executor

    calls = []
    run = Executor.run

    def counting(executor, tasks, *args, **kwargs):
        tasks = list(tasks)
        calls.append(len(tasks))
        return run(executor, tasks, *args, **kwargs)

    monkeypatch.setattr(Executor, "run", counting)
    report = run_validation(
        validation_pack(min_points=60),
        cache=ResultCache(root=tmp_path),
        max_cache_bytes=8_000,
        recheck_stride=3,
    )
    assert report.ok
    assert len(calls) == report.waves + 1 + 2 * (
        report.ff_twins + report.batch_twins
    )
    assert len(calls) == 21
    assert calls[report.waves] == report.rechecked


class TestReportSemantics:
    def test_not_ok_when_bound_set_but_nothing_evicted(self):
        report = ValidationReport(cache_bound_bytes=1, cache_evicted=0)
        assert not report.ok
        report.cache_evicted = 3
        assert report.ok

    def test_not_ok_when_twins_never_skipped(self):
        report = ValidationReport(ff_twins=2, ff_skipped_iterations=0)
        assert not report.ok

    def test_not_ok_when_batch_never_grouped(self):
        report = ValidationReport(batch_twins=2, batch_grouped_points=0)
        assert not report.ok
        report.batch_grouped_points = 8
        assert report.ok

    def test_mismatches_always_fail(self):
        from repro.scenarios.validation import Mismatch

        report = ValidationReport(
            mismatches=[Mismatch("determinism", "s", "p", "d")]
        )
        assert not report.ok
        assert "MISMATCHES" in report.render()

    def test_total_points_matches_report(self):
        specs = validation_pack(min_points=150)
        assert total_points(specs) >= 150


class TestTwinComparison:
    """Both twin phases compare through one helper."""

    @staticmethod
    def _tasks():
        from repro.cluster.machines import athlon_cluster
        from repro.exec.tasks import GearSweepTask, MeasurementTask
        from repro.workloads import EP

        cluster, workload = athlon_cluster(), EP(scale=0.05)
        return (
            MeasurementTask(cluster, workload, nodes=1, gear=1),
            GearSweepTask(cluster, workload, nodes=1),
        )

    def test_error_beyond_rtol_is_a_mismatch(self):
        from types import SimpleNamespace

        from repro.scenarios.validation import _compare_twin

        task, _ = self._tasks()
        exact = SimpleNamespace(time=1.0, energy=10.0)
        twin = SimpleNamespace(time=1.0, energy=10.0 + 1e-6)
        report = ValidationReport()
        err = _compare_twin(report, "batch", "s", [task], [exact], [twin], 1e-9)
        assert err == pytest.approx(1e-7)
        [mismatch] = report.mismatches
        assert (mismatch.check, mismatch.scenario, mismatch.point) == (
            "batch",
            "s",
            str(task.key),
        )
        assert mismatch.detail == "energy rel err 1.000e-07 exceeds 1e-09"
        assert _compare_twin(report, "batch", "s", [task], [exact], [twin], 1e-6)
        assert len(report.mismatches) == 1

    def test_non_measurement_twin_is_a_mismatch(self):
        from repro.scenarios.validation import _compare_twin

        _, sweep = self._tasks()
        report = ValidationReport()
        err = _compare_twin(
            report, "fast-forward", "s", [sweep], [None], [None], 1e-9
        )
        assert err == 0.0
        [mismatch] = report.mismatches
        assert mismatch.detail == (
            "fast-forward twins must be measurement kind, got GearSweepTask"
        )
