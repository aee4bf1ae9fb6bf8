"""The run record's profile view, and the sweep that fills the record."""

from __future__ import annotations

import pytest

from repro.cluster.machines import athlon_cluster
from repro.exec import ResultCache, RunRecord, sweep
from repro.exec.record import CACHE, EVENT, RunRow
from repro.exec.tasks import MeasurementTask
from repro.workloads.jacobi import Jacobi


def jacobi_tasks(gears=(1, 2)):
    """A couple of cheap, distinct simulation points."""
    return [
        MeasurementTask(
            cluster=athlon_cluster(),
            workload=Jacobi(scale=0.03),
            nodes=1,
            gear=g,
        )
        for g in gears
    ]


class TestDerivedNumbers:
    def filled(self) -> RunRecord:
        record = RunRecord(workers=2, wall_s=2.0)
        record.runs.append(RunRow(("a",), EVENT, seconds=2.0))
        record.runs.append(
            RunRow(("b",), EVENT, seconds=1.0, lookup_s=0.25, store_s=0.25)
        )
        record.runs.append(RunRow(("c",), CACHE, lookup_s=0.5))
        return record

    def test_totals(self):
        record = self.filled()
        assert len(record.runs) == 3
        assert record.busy_s == pytest.approx(4.0)
        assert record.utilization == pytest.approx(1.0)  # 4.0 / (2.0 * 2)

    def test_cache_accounting(self):
        record = self.filled()
        assert [row.key for row in record.tier(CACHE)] == [("c",)]
        assert [row.key for row in record.tier(EVENT)] == [("a",), ("b",)]
        report = record.render()
        assert "1 (avg 500.00 ms)" in report
        assert "2 (avg 1.750 s)" in report

    def test_slowest_sorts_by_total_time_then_key(self):
        report = self.filled().render()
        slowest = report.split("Slowest points")[1]
        assert slowest.index("('a',)") < slowest.index("('b',)")
        assert slowest.index("('b',)") < slowest.index("('c',)")

    def test_empty_profile_renders_without_errors(self):
        report = RunRecord().render()
        assert "Executor profile" in report
        assert "utilization" in report

    def test_render_lists_slowest_points(self):
        report = self.filled().render()
        assert "Slowest points" in report
        assert "cache" in report

    def test_utilization_is_zero_without_wall_time(self):
        assert RunRecord().utilization == 0.0


class TestSweepFillsProfile:
    def test_uncached_inline_sweep_times_every_point(self):
        record = RunRecord()
        sweep(jacobi_tasks(), record=record)
        assert len(record.runs) == 2
        assert all(row.tier == EVENT for row in record.runs)
        assert all(row.seconds > 0 for row in record.runs)
        assert all(row.lookup_s == 0.0 for row in record.runs)
        assert record.wall_s >= max(row.seconds for row in record.runs)

    def test_cached_sweep_records_miss_then_hit_latencies(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cold, warm = RunRecord(), RunRecord()
        sweep(jacobi_tasks(), cache=ResultCache(), record=cold)
        sweep(jacobi_tasks(), cache=ResultCache(), record=warm)
        assert [row.tier for row in cold.runs] == [EVENT, EVENT]
        assert all(row.lookup_s > 0 and row.store_s > 0 for row in cold.runs)
        assert [row.tier for row in warm.runs] == [CACHE, CACHE]
        assert all(row.seconds == 0.0 for row in warm.runs)

    def test_pool_sweep_reports_worker_count(self):
        record = RunRecord()
        results = sweep(jacobi_tasks((1, 2, 3)), jobs=2, record=record)
        assert len(results) == 3
        assert record.workers == 2
        assert len(record.runs) == 3

    def test_profiling_does_not_change_results(self):
        plain = sweep(jacobi_tasks())
        profiled = sweep(jacobi_tasks(), record=RunRecord())
        assert [m.energy for m in plain] == [m.energy for m in profiled]
