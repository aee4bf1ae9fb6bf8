"""Run observers: labelling, trace capture, metrics capture, fan-out."""

from __future__ import annotations

import json

import pytest

from repro.cluster.machines import athlon_cluster
from repro.core.run import gear_sweep, run_workload
from repro.obs import (
    CompositeObserver,
    MetricsObserver,
    RunLabel,
    RunObserver,
    TraceObserver,
)
from repro.policy.adaptive import IdleLowPolicy
from repro.workloads.jacobi import Jacobi

SCALE = 0.03


class RecordingObserver(RunObserver):
    """Appends every hook invocation to a log, for assertions."""

    def __init__(self):
        self.log = []

    def run_started(self, label):
        self.log.append(("started", label))

    def gear_change(self, rank, time, gear, old=None):
        self.log.append(("gear", rank, time, gear, old))

    def run_complete(self, label, result):
        self.log.append(("complete", label))


class TestRunLabel:
    def test_slug_is_filesystem_safe(self):
        label = RunLabel(workload="LU/weird name", cluster="c", nodes=4, gear=2)
        slug = label.slug
        assert "/" not in slug and " " not in slug
        assert slug.endswith("-n4-g2")

    def test_gear_zero_means_policy_managed(self):
        label = RunLabel(workload="CG", cluster="c", nodes=2, gear=0)
        assert label.slug == "CG-n2-policy"


class TestHookDelivery:
    def test_run_workload_announces_and_reports_initial_gears(self):
        observer = RecordingObserver()
        run_workload(
            athlon_cluster(),
            Jacobi(scale=SCALE),
            nodes=2,
            gear=3,
            observer=observer,
        )
        kinds = [entry[0] for entry in observer.log]
        assert kinds[0] == "started" and kinds[-1] == "complete"
        initial = [e for e in observer.log if e[0] == "gear" and e[4] is None]
        assert [(e[1], e[2], e[3]) for e in initial] == [(0, 0.0, 3), (1, 0.0, 3)]
        label = observer.log[0][1]
        assert (label.nodes, label.gear) == (2, 3)

    def test_policy_run_reports_transitions_with_old_gear(self):
        observer = RecordingObserver()
        run_workload(
            athlon_cluster(),
            Jacobi(scale=SCALE),
            nodes=2,
            policy=IdleLowPolicy(),
            observer=observer,
        )
        transitions = [e for e in observer.log if e[0] == "gear" and e[4] is not None]
        assert transitions, "the idle-low policy must shift gears"
        for _, _, _, gear, old in transitions:
            assert gear != old

    def test_gear_sweep_announces_every_gear(self):
        observer = RecordingObserver()
        gear_sweep(
            athlon_cluster(),
            Jacobi(scale=SCALE),
            nodes=1,
            gears=(1, 2),
            observer=observer,
        )
        started = [e[1].gear for e in observer.log if e[0] == "started"]
        assert started == [1, 2]


class TestTraceObserver:
    def test_writes_one_file_per_run_named_by_slug(self, tmp_path):
        observer = TraceObserver(tmp_path)
        gear_sweep(
            athlon_cluster(),
            Jacobi(scale=SCALE),
            nodes=1,
            gears=(1, 2),
            observer=observer,
        )
        assert [p.name for p in observer.written] == [
            "Jacobi-n1-g1.trace.json",
            "Jacobi-n1-g2.trace.json",
        ]
        for path in observer.written:
            document = json.loads(path.read_text())
            assert document["traceEvents"]

    def test_gear_changes_do_not_leak_between_runs(self, tmp_path):
        observer = TraceObserver(tmp_path)
        run_workload(
            athlon_cluster(),
            Jacobi(scale=SCALE),
            nodes=2,
            policy=IdleLowPolicy(),
            observer=observer,
        )
        run_workload(
            athlon_cluster(),
            Jacobi(scale=SCALE),
            nodes=1,
            gear=1,
            observer=observer,
        )
        static = json.loads(observer.written[1].read_text())
        markers = [
            e
            for e in static["traceEvents"]
            if e.get("cat") == "gear" and e["args"]["from"] is not None
        ]
        assert not markers  # static run: initial gear only, no transitions


class TestMetricsObserver:
    def test_publishes_headline_and_per_rank_metrics(self):
        observer = MetricsObserver()
        measurement = run_workload(
            athlon_cluster(),
            Jacobi(scale=SCALE),
            nodes=2,
            gear=1,
            observer=observer,
        )
        reg = observer.registry
        assert reg.counter("runs.completed") == 1.0
        assert reg.counter("energy_j.total") == pytest.approx(measurement.energy)
        slug = "Jacobi-n2-g1"
        assert reg.gauge(f"run.{slug}.time_s") == pytest.approx(measurement.time)
        for rank in (0, 1):
            active = reg.gauge(f"run.{slug}.rank{rank}.active_s")
            idle = reg.gauge(f"run.{slug}.rank{rank}.idle_s")
            assert active is not None and idle is not None
            assert active + idle == pytest.approx(measurement.time)
            assert reg.series(f"run.{slug}.rank{rank}.gear") == [(0.0, 1.0)]

    def test_counts_only_real_transitions(self):
        observer = MetricsObserver()
        run_workload(
            athlon_cluster(), Jacobi(scale=SCALE), nodes=2, gear=2,
            observer=observer,
        )
        assert observer.registry.counter("gear_changes.total") == 0.0
        run_workload(
            athlon_cluster(), Jacobi(scale=SCALE), nodes=2,
            policy=IdleLowPolicy(), observer=observer,
        )
        assert observer.registry.counter("gear_changes.total") > 0.0

    def test_optional_power_sampling(self):
        sampled = MetricsObserver(sample_power_hz=10.0)
        unsampled = MetricsObserver()
        for observer in (sampled, unsampled):
            run_workload(
                athlon_cluster(), Jacobi(scale=SCALE), nodes=1, gear=1,
                observer=observer,
            )
        name = "run.Jacobi-n1-g1.rank0.power_w"
        assert sampled.registry.series(name)
        assert not unsampled.registry.series(name)


class TestCompositeObserver:
    def test_fans_out_in_order(self):
        first, second = RecordingObserver(), RecordingObserver()
        run_workload(
            athlon_cluster(),
            Jacobi(scale=SCALE),
            nodes=1,
            gear=1,
            observer=CompositeObserver([first, second]),
        )
        assert first.log == second.log
        assert first.log[0][0] == "started"
