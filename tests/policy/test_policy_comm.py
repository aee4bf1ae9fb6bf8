"""The runtime's gear governor end-to-end: gear management around
compute and blocking operations."""

import pytest

from repro.cluster.machines import athlon_cluster
from repro.core.run import run_workload
from repro.policy import IdleLowPolicy, SlackPolicy, StaticPolicy
from repro.workloads.jacobi import Jacobi
from repro.workloads.nas import CG, EP, LU


@pytest.fixture(scope="module")
def static_baseline(cluster):
    return {
        "CG": run_workload(cluster, CG(scale=0.2), nodes=8, gear=1),
        "LU": run_workload(cluster, LU(scale=0.2), nodes=8, gear=1),
        "EP": run_workload(cluster, EP(scale=0.2), nodes=8, gear=1),
    }


class TestStaticEquivalence:
    def test_static_policy_matches_fixed_gear(self, cluster):
        w = CG(scale=0.1)
        fixed = run_workload(cluster, w, nodes=4, gear=1)
        managed = run_workload(cluster, w, nodes=4, policy=StaticPolicy(1))
        assert managed.time == pytest.approx(fixed.time, rel=1e-9)
        assert managed.energy == pytest.approx(fixed.energy, rel=1e-9)

    def test_static_policy_gear3(self, cluster):
        w = CG(scale=0.1)
        fixed = run_workload(cluster, w, nodes=4, gear=3)
        managed = run_workload(cluster, w, nodes=4, policy=StaticPolicy(3))
        assert managed.time == pytest.approx(fixed.time, rel=1e-9)
        assert managed.energy == pytest.approx(fixed.energy, rel=1e-9)


class TestIdleLow:
    def test_never_slower(self, cluster, static_baseline):
        for name, cls in (("CG", CG), ("LU", LU), ("EP", EP)):
            managed = run_workload(
                cluster, cls(scale=0.2), nodes=8, policy=IdleLowPolicy()
            )
            assert managed.time == pytest.approx(
                static_baseline[name].time, rel=1e-6
            ), name

    def test_saves_energy_on_comm_heavy_code(self, cluster, static_baseline):
        managed = run_workload(
            cluster, CG(scale=0.2), nodes=8, policy=IdleLowPolicy()
        )
        assert managed.energy < static_baseline["CG"].energy * 0.99

    def test_negligible_on_compute_bound(self, cluster, static_baseline):
        managed = run_workload(
            cluster, EP(scale=0.2), nodes=8, policy=IdleLowPolicy()
        )
        assert managed.energy == pytest.approx(
            static_baseline["EP"].energy, rel=0.01
        )


class TestSlackPolicy:
    def test_saves_energy_on_lu_without_slowdown(self, cluster, static_baseline):
        managed = run_workload(
            cluster, LU(scale=0.2), nodes=8, policy=SlackPolicy()
        )
        base = static_baseline["LU"]
        assert managed.energy < base.energy * 0.92
        assert managed.time <= base.time * 1.02

    def test_improves_edp_on_jacobi(self, cluster):
        w = Jacobi(scale=0.2)
        base = run_workload(cluster, w, nodes=8, gear=1)
        managed = run_workload(cluster, w, nodes=8, policy=SlackPolicy())
        assert managed.energy * managed.time < base.energy * base.time

    def test_leaves_ep_alone(self, cluster, static_baseline):
        managed = run_workload(
            cluster, EP(scale=0.2), nodes=8, policy=SlackPolicy()
        )
        assert managed.time == pytest.approx(static_baseline["EP"].time, rel=0.01)

    def test_gear_field_marks_policy_run(self, cluster):
        managed = run_workload(
            cluster, EP(scale=0.1), nodes=2, policy=SlackPolicy()
        )
        assert managed.gear == 0

    def test_per_rank_policies_independent(self, cluster):
        # Run an imbalanced program: rank 1 computes 4x more, so rank 0
        # has genuine slack and should downshift while rank 1 stays fast.
        from repro.mpi.world import World

        policies = [SlackPolicy(window=2) for _ in range(2)]

        def program(comm):
            for _ in range(30):
                factor = 4.0 if comm.rank == 1 else 1.0
                yield from comm.compute(uops=factor * 2.6e8)
                yield from comm.barrier()

        World(athlon_cluster(), program, nodes=2, gear=1, policies=policies).run()
        assert policies[0].compute_gear() > 1
        assert policies[1].compute_gear() == 1
