"""Multi-speed disk model and its runtime integration."""

import pytest

from repro.cluster.disk import DiskModel, DiskSpec, DiskSpeed, drpm_disk
from repro.cluster.machines import athlon_cluster, athlon_node
from repro.cluster.node import NodeState
from repro.mpi.world import World
from repro.obs import RunObserver
from repro.util.errors import ConfigurationError


class TestDiskSpec:
    def test_drpm_table_shape(self):
        disk = drpm_disk()
        assert len(disk) == 5
        assert disk.fastest.rpm == 12000.0
        assert disk.slowest.rpm == 4000.0

    def test_monotone_properties(self):
        disk = drpm_disk()
        speeds = list(disk)
        for fast, slow in zip(speeds, speeds[1:]):
            assert slow.bandwidth < fast.bandwidth
            assert slow.access_latency > fast.access_latency
            assert slow.idle_power < fast.idle_power

    def test_lookup(self):
        disk = drpm_disk()
        assert disk[1] is disk.fastest
        with pytest.raises(ConfigurationError):
            disk[6]

    def test_rejects_non_monotone(self):
        fast = DiskSpeed(1, 12000, 50e6, 5e-3, 12.0, 8.0)
        too_fast = DiskSpeed(2, 13000, 60e6, 4e-3, 13.0, 9.0)
        with pytest.raises(ConfigurationError):
            DiskSpec("bad", [fast, too_fast])

    def test_rejects_negative_transition(self):
        speed = DiskSpeed(1, 12000, 50e6, 5e-3, 12.0, 8.0)
        with pytest.raises(ConfigurationError):
            DiskSpec("bad", [speed], transition_time=-0.1)

    def test_speed_validation(self):
        with pytest.raises(ConfigurationError):
            DiskSpeed(1, 12000, 50e6, 5e-3, active_power=5.0, idle_power=8.0)


class TestDiskModel:
    def test_io_time_components(self):
        disk = drpm_disk()
        model = DiskModel(disk)
        speed = disk.fastest
        t = model.io_time(55_000_000, speed)
        assert t == pytest.approx(speed.access_latency + 1.0)

    def test_slower_speed_slower_io(self):
        disk = drpm_disk()
        model = DiskModel(disk)
        assert model.io_time(10_000_000, disk.slowest) > model.io_time(
            10_000_000, disk.fastest
        )

    def test_rejects_negative_size(self):
        model = DiskModel(drpm_disk())
        with pytest.raises(ConfigurationError):
            model.io_time(-1, drpm_disk().fastest)


class TestNodeIntegration:
    def test_diskless_node_rejects_io(self):
        state = NodeState(athlon_node())
        with pytest.raises(ConfigurationError):
            state.io_duration(1000)

    def test_disk_idle_power_added(self):
        plain = NodeState(athlon_node())
        disky = NodeState(athlon_node(disk=drpm_disk()))
        delta = disky.idle_power() - plain.idle_power()
        assert delta == pytest.approx(drpm_disk().fastest.idle_power)

    def test_speed_change_reports_transition(self):
        state = NodeState(athlon_node(disk=drpm_disk()))
        assert state.set_disk_speed(1) == 0.0  # already there
        assert state.set_disk_speed(4) == pytest.approx(0.4)
        assert state.disk_speed.index == 4

    def test_io_power_is_cpu_idle_plus_disk_active(self):
        state = NodeState(athlon_node(disk=drpm_disk()))
        expected = (
            state.power_model.idle_power(state.gear)
            + drpm_disk().fastest.active_power
        )
        assert state.io_power() == pytest.approx(expected)


class TestRuntimeIntegration:
    def test_disk_io_blocks_and_charges(self):
        cluster = athlon_cluster(disk=drpm_disk())

        def program(comm):
            yield from comm.disk_write(55_000_000)  # ~1 s at speed 1

        result = World(
            cluster, program, nodes=1, gear=1, observer=RunObserver()
        ).run()
        assert result.end_time == pytest.approx(1.0, rel=0.02)
        ops = [r.op for r in result.ranks[0].trace.top_level()]
        assert "disk_io" in ops

    def test_slow_spindle_changes_tradeoff(self):
        cluster = athlon_cluster(disk=drpm_disk())

        def program(comm, speed):
            yield from comm.set_disk_speed(speed)
            yield from comm.compute(uops=2.6e9)
            yield from comm.disk_write(5_000_000)

        fast = World(cluster, lambda c: program(c, 1), nodes=1, gear=1).run()
        slow = World(cluster, lambda c: program(c, 5), nodes=1, gear=1).run()
        assert slow.end_time > fast.end_time
        # During the long compute stretch the slow spindle draws less.
        fast_power = fast.ranks[0].meter.power_at(0.5)
        slow_power = slow.ranks[0].meter.power_at(1.0)
        assert slow_power < fast_power

    def test_set_disk_speed_costs_transition_time(self):
        cluster = athlon_cluster(disk=drpm_disk())

        def program(comm):
            yield from comm.set_disk_speed(3)

        result = World(cluster, program, nodes=1, gear=1).run()
        assert result.end_time == pytest.approx(0.4)

    def test_diskless_cluster_raises_on_io(self):
        def program(comm):
            yield from comm.disk_write(1000)

        with pytest.raises(ConfigurationError):
            World(athlon_cluster(), program, nodes=1, gear=1).run()
