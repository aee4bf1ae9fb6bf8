"""Unit behaviour of the declarative scenario spec layer.

Construction-time validation, expansion into tasks, the identity /
metadata split, and exact JSON round-trips.
"""

from __future__ import annotations

import pytest

from repro.cluster.machines import athlon_cluster, reference_cluster
from repro.exec import CalibrationTask, GearSweepTask, MeasurementTask
from repro.exec.sweep import cache_key
from repro.scenarios.spec import (
    KIND_CALIBRATION,
    KIND_GEAR_SWEEP,
    KIND_MEASUREMENT,
    ClusterRef,
    ScenarioSpec,
    WorkloadRef,
    dump_specs,
    expand,
    load_specs,
)
from repro.util.errors import ConfigurationError
from repro.workloads.jacobi import Jacobi


def spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="t/EP",
        kind=KIND_GEAR_SWEEP,
        cluster=ClusterRef(),
        workload=WorkloadRef("EP", (("scale", 0.05),)),
        nodes=(1, 2),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestValidation:
    def test_unknown_machine_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown machine"):
            ClusterRef(machine="cray")

    def test_reference_cluster_has_no_dvfs_knobs(self):
        with pytest.raises(ConfigurationError, match="reference"):
            ClusterRef(machine="reference", gear_switch_latency=1e-4)
        with pytest.raises(ConfigurationError, match="reference"):
            ClusterRef(machine="reference", disk="drpm")

    def test_unknown_disk_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown disk"):
            ClusterRef(disk="ssd")

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            WorkloadRef("LINPACK")

    def test_non_scalar_parameter_rejected(self):
        with pytest.raises(ConfigurationError, match="JSON scalar"):
            WorkloadRef("EP", (("scale", [1, 2]),))

    def test_bad_constructor_parameter_surfaces_at_build(self):
        ref = WorkloadRef("EP", (("warp", 9),))
        with pytest.raises(ConfigurationError, match="rejected parameters"):
            ref.build()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario kind"):
            spec(kind="warmup")

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError, match="name"):
            spec(name="")

    def test_node_grid_required_except_for_calibration(self):
        with pytest.raises(ConfigurationError, match="node grid"):
            spec(nodes=())
        calibration = spec(kind=KIND_CALIBRATION, nodes=())
        assert calibration.points == 1

    def test_bad_gear_grid_rejected(self):
        with pytest.raises(ConfigurationError, match="gear grid"):
            spec(gears=())
        with pytest.raises(ConfigurationError, match="gear grid"):
            spec(gears=(0,))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            spec(backend="turbo")

    def test_bad_fast_forward_knobs_rejected_eagerly(self):
        with pytest.raises(ConfigurationError, match="fast-forward"):
            spec(fast_forward=(("warp_factor", 9),))


class TestBuild:
    def test_cluster_ref_builds_the_paper_machines(self):
        assert ClusterRef().build() == athlon_cluster()
        assert (
            ClusterRef(machine="reference", max_nodes=32).build()
            == reference_cluster(32)
        )

    def test_drpm_disk_is_attached(self):
        built = ClusterRef(disk="drpm").build()
        assert built.node.disk is not None

    def test_workload_ref_builds_with_parameters(self):
        workload = WorkloadRef(
            "Jacobi", (("scale", 0.1), ("work_multiplier", 2.0))
        ).build()
        assert isinstance(workload, Jacobi)
        assert workload.spec.iterations == Jacobi(0.1).spec.iterations

    def test_params_normalise_to_sorted_pairs(self):
        a = WorkloadRef("Jacobi", (("work_multiplier", 2.0), ("scale", 0.1)))
        b = WorkloadRef("Jacobi", (("scale", 0.1), ("work_multiplier", 2.0)))
        assert a == b


class TestExpansion:
    def test_gear_sweep_expands_one_task_per_node_count(self):
        tasks = spec().tasks()
        assert [type(t) for t in tasks] == [GearSweepTask, GearSweepTask]
        assert [t.nodes for t in tasks] == [1, 2]
        assert all(t.scenario == "t/EP" for t in tasks)

    def test_measurement_expands_nodes_major_gears_minor(self):
        tasks = spec(kind=KIND_MEASUREMENT, gears=(1, 3)).tasks()
        assert [type(t) for t in tasks] == [MeasurementTask] * 4
        assert [(t.nodes, t.gear) for t in tasks] == [
            (1, 1),
            (1, 3),
            (2, 1),
            (2, 3),
        ]

    def test_measurement_defaults_to_gear_one(self):
        tasks = spec(kind=KIND_MEASUREMENT).tasks()
        assert [t.gear for t in tasks] == [1, 1]

    def test_calibration_expands_to_a_single_task(self):
        tasks = spec(kind=KIND_CALIBRATION, nodes=()).tasks()
        assert [type(t) for t in tasks] == [CalibrationTask]

    def test_points_matches_expansion(self):
        for s in (
            spec(),
            spec(kind=KIND_MEASUREMENT, gears=(1, 2, 3)),
            spec(kind=KIND_CALIBRATION, nodes=()),
        ):
            assert s.points == len(s.tasks())

    def test_fast_forward_knobs_reach_the_tasks(self):
        tasks = spec(fast_forward=(("max_period", 2),)).tasks()
        assert all(t.fast_forward.max_period == 2 for t in tasks)

    def test_cluster_override_escape_hatch(self):
        big = athlon_cluster(17)
        tasks = spec().tasks(cluster=big)
        assert all(t.cluster.max_nodes == 17 for t in tasks)

    def test_expand_flattens_in_spec_order(self):
        specs = [spec(), spec(name="t/EP2", nodes=(4,))]
        tasks = expand(specs)
        assert [t.scenario for t in tasks] == ["t/EP", "t/EP", "t/EP2"]


class TestIdentity:
    def test_metadata_does_not_move_the_fingerprint(self):
        base = spec()
        assert base.renamed("other").fingerprint() == base.fingerprint()
        assert (
            spec(tags=("x",), description="y").fingerprint()
            == base.fingerprint()
        )

    def test_identity_fields_move_the_fingerprint(self):
        base = spec()
        assert spec(nodes=(1,)).fingerprint() != base.fingerprint()
        assert spec(gears=(1, 2)).fingerprint() != base.fingerprint()
        assert (
            spec(kind=KIND_MEASUREMENT).fingerprint() != base.fingerprint()
        )

    def test_equal_fingerprints_mean_equal_cache_keys(self):
        base, renamed = spec(), spec().renamed("other")
        assert base.fingerprint() == renamed.fingerprint()
        assert [cache_key(r) for t in base.tasks() for r in t.runs()] == [
            cache_key(r) for t in renamed.tasks() for r in t.runs()
        ]

    def test_batch_backend_moves_the_fingerprint(self):
        """Batch results cache apart, so the identity must track it —
        but event specs keep their pre-field fingerprints exactly."""
        event = spec()
        batch = spec(backend="batch")
        assert event.fingerprint() != batch.fingerprint()
        assert "backend" not in event.identity()
        assert batch.identity()["backend"] == "batch"

    def test_backend_round_trips_and_defaults_to_event(self):
        batch = spec(backend="batch")
        assert ScenarioSpec.from_json(batch.to_json()) == batch
        legacy = spec().to_dict()
        del legacy["backend"]  # packs written before the field existed
        assert ScenarioSpec.from_dict(legacy).backend == "event"

    def test_same_points_tracks_identity(self):
        assert spec().same_points(spec().renamed("other"))
        assert not spec().same_points(spec(nodes=(1,)))


class TestSerialization:
    def test_json_round_trip_is_exact(self):
        original = spec(
            gears=(1, 2, 3),
            fast_forward=(("max_period", 4),),
            tags=("a", "b"),
            description="desc",
        )
        rebuilt = ScenarioSpec.from_json(original.to_json())
        assert rebuilt == original
        assert rebuilt.fingerprint() == original.fingerprint()

    def test_unsupported_spec_version_rejected(self):
        data = spec().to_dict()
        data["spec_version"] = 99
        with pytest.raises(ConfigurationError, match="version"):
            ScenarioSpec.from_dict(data)

    def test_pack_round_trip(self):
        specs = [spec(), spec(name="t/cal", kind=KIND_CALIBRATION, nodes=())]
        rebuilt = load_specs(dump_specs(specs))
        assert rebuilt == specs

    def test_bare_list_pack_form_accepted(self):
        import json

        text = json.dumps([spec().to_dict()])
        assert load_specs(text) == [spec()]
