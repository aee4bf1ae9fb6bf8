"""Cross-subsystem integration: policies x disks x viz x search."""

import pytest

from repro.cluster.disk import drpm_disk
from repro.cluster.machines import athlon_cluster
from repro.core.imbalance import analyze_imbalance
from repro.core.run import run_workload
from repro.obs import RunObserver
from repro.policy import IdleLowPolicy
from repro.viz.plot import plot_family
from repro.viz.timeline import render_timeline
from repro.workloads import CheckpointedStencil, Jacobi


class TestPolicyWithDisk:
    def test_idle_low_on_checkpointed_workload(self):
        """The adaptive MPI layer composes with the disk substrate."""
        cluster = athlon_cluster(disk=drpm_disk())
        workload = CheckpointedStencil(0.2, checkpoint_every=5)
        base = run_workload(cluster, workload, nodes=4, gear=1)
        managed = run_workload(
            cluster, workload, nodes=4, policy=IdleLowPolicy()
        )
        assert managed.time == pytest.approx(base.time, rel=0.01)
        assert managed.energy < base.energy


class TestVizOnRealRuns:
    def test_timeline_of_policy_run(self, cluster):
        managed = run_workload(
            cluster,
            Jacobi(scale=0.1),
            nodes=4,
            policy=IdleLowPolicy(),
            observer=RunObserver(),
        )
        out = render_timeline(managed.result, width=48)
        assert out.count("rank") == 4

    def test_plot_of_experiment_family(self, figure3_result):
        out = plot_family(figure3_result.family)
        for nodes in (2, 4, 6, 8, 10):
            assert f"{nodes} nodes" in out


class TestImbalanceOnSuite:
    def test_nas_codes_roughly_balanced(self, cluster):
        # The NAS codes' imbalance is only the small serial fraction.
        from repro.workloads.nas import LU

        m = run_workload(cluster, LU(scale=0.1), nodes=4, gear=1)
        report = analyze_imbalance(m.result)
        assert report.bottleneck_rank == 0  # rank 0 carries the serial part
        assert report.imbalance_ratio < 1.2

    def test_headroom_matches_policy_behaviour(self, cluster):
        # The offline headroom analysis and the online slack policy agree
        # about WHERE the slack lives.
        from repro.workloads.nas import LU

        m = run_workload(cluster, LU(scale=0.1), nodes=4, gear=1)
        report = analyze_imbalance(m.result)
        headroom = report.scaling_headroom(cluster)
        assert headroom[report.bottleneck_rank] == min(headroom.values())
