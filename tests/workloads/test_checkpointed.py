"""Checkpointing stencil workload."""

import pytest

from repro.cluster.disk import drpm_disk
from repro.cluster.machines import athlon_cluster
from repro.core.run import run_workload
from repro.obs import RunObserver
from repro.util.errors import ConfigurationError
from repro.workloads.checkpointed import CheckpointedStencil


@pytest.fixture(scope="module")
def disk_cluster():
    return athlon_cluster(disk=drpm_disk())


class TestConstruction:
    def test_defaults(self):
        w = CheckpointedStencil(0.1)
        assert w.checkpoint_every == 10
        assert w.disk_speed == 1

    def test_rejects_bad_interval(self):
        with pytest.raises(ConfigurationError):
            CheckpointedStencil(0.1, checkpoint_every=0)

    def test_rejects_negative_volume(self):
        with pytest.raises(ConfigurationError):
            CheckpointedStencil(0.1, checkpoint_bytes=-1)


class TestBehaviour:
    def test_runs_and_writes_checkpoints(self, disk_cluster):
        w = CheckpointedStencil(0.2, checkpoint_every=3)
        m = run_workload(
            disk_cluster, w, nodes=2, gear=1, observer=RunObserver()
        )
        io_records = [
            r for r in m.result.ranks[0].trace.top_level() if r.op == "disk_io"
        ]
        assert len(io_records) == w.spec.iterations // 3

    def test_more_checkpoints_take_longer(self, disk_cluster):
        rare = run_workload(
            disk_cluster,
            CheckpointedStencil(0.2, checkpoint_every=12),
            nodes=2,
            gear=1,
        )
        frequent = run_workload(
            disk_cluster,
            CheckpointedStencil(0.2, checkpoint_every=2),
            nodes=2,
            gear=1,
        )
        assert frequent.time > rare.time

    def test_slow_spindle_slower(self, disk_cluster):
        fast = run_workload(
            disk_cluster, CheckpointedStencil(0.2, disk_speed=1), nodes=2, gear=1
        )
        slow = run_workload(
            disk_cluster, CheckpointedStencil(0.2, disk_speed=5), nodes=2, gear=1
        )
        assert slow.time > fast.time

    def test_checkpoint_volume_split_across_ranks(self, disk_cluster):
        w = CheckpointedStencil(0.2, checkpoint_every=3, checkpoint_bytes=8_000_000)
        m = run_workload(
            disk_cluster, w, nodes=4, gear=1, observer=RunObserver()
        )
        io = next(
            r for r in m.result.ranks[0].trace.top_level() if r.op == "disk_io"
        )
        assert io.nbytes == 2_000_000

    def test_needs_disk(self, cluster):
        with pytest.raises(ConfigurationError):
            run_workload(cluster, CheckpointedStencil(0.1), nodes=2, gear=1)
