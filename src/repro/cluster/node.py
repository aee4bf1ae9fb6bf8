"""A node: CPU + memory (+ optional disk) + power model."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.cpu import CPUSpec
from repro.cluster.disk import DiskModel, DiskSpec, DiskSpeed
from repro.cluster.gears import Gear, GearTable
from repro.cluster.memory import ComputeBlock, MemoryModel, MemorySpec
from repro.cluster.power import NodePowerModel
from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class NodeSpec:
    """Specification of one cluster node.

    Attributes:
        cpu: the (possibly power-scalable) processor.
        memory: memory hierarchy parameters.
        base_power: gear-independent platform power, watts.
        memory_power_max: DRAM power at full miss bandwidth, watts.
        disk: optional multi-speed disk.  ``None`` (the stock paper
            cluster) folds a fixed disk into ``base_power``; setting a
            spec enables the disk-scaling experiments, with the disk's
            own idle/active power *added* on top of the base.
    """

    cpu: CPUSpec
    memory: MemorySpec
    base_power: float
    memory_power_max: float
    disk: DiskSpec | None = None

    def __post_init__(self) -> None:
        if self.base_power < 0 or self.memory_power_max < 0:
            raise ConfigurationError("node power constants must be non-negative")

    @property
    def gears(self) -> GearTable:
        """The node's gear table (from its CPU)."""
        return self.cpu.gears

    def memory_model(self) -> MemoryModel:
        """Build the timing model for this node's CPU/memory pair."""
        return MemoryModel(self.cpu, self.memory)

    def power_model(self) -> NodePowerModel:
        """Build the whole-node power model."""
        return NodePowerModel(
            self.cpu,
            base_power=self.base_power,
            memory_power_max=self.memory_power_max,
        )


class NodeState:
    """Mutable per-node runtime state used by the simulator.

    Holds the current gear and cached model objects.  One instance exists
    per rank during a simulation (the paper runs one MPI rank per node).
    """

    def __init__(self, spec: NodeSpec, gear_index: int = 1):
        self.spec = spec
        self.memory_model = spec.memory_model()
        self.power_model = spec.power_model()
        self._gear = spec.gears[gear_index]
        self.disk_model = DiskModel(spec.disk) if spec.disk else None
        self._disk_speed: DiskSpeed | None = (
            spec.disk.fastest if spec.disk else None
        )
        # Idle power is queried once per simulated event but only changes
        # on gear or disk-speed shifts; cache it between shifts.
        self._idle_power: float | None = None
        # compute_cost() memo: one block -> cost table per (gear index,
        # disk speed index) state, and the table of the current state.
        self._cost_tables: dict[
            tuple[int, int | None], dict[ComputeBlock, tuple[float, float, float]]
        ] = {}
        self._costs = self._cost_table()

    def _cost_table(self) -> dict[ComputeBlock, tuple[float, float, float]]:
        speed = self._disk_speed.index if self._disk_speed is not None else None
        return self._cost_tables.setdefault((self._gear.index, speed), {})

    @property
    def gear(self) -> Gear:
        """The node's current energy gear."""
        return self._gear

    def set_gear(self, gear_index: int) -> None:
        """Shift to another gear (validated against the gear table)."""
        self._gear = self.spec.gears[gear_index]
        self._idle_power = None
        self._costs = self._cost_table()

    @property
    def disk_speed(self) -> DiskSpeed | None:
        """The disk's current spindle speed, if a disk is configured."""
        return self._disk_speed

    def _require_disk(self) -> DiskModel:
        if self.disk_model is None:
            raise ConfigurationError(
                "this node has no disk configured (NodeSpec.disk is None)"
            )
        return self.disk_model

    def set_disk_speed(self, speed_index: int) -> float:
        """Shift the disk's spindle speed; returns the transition time."""
        model = self._require_disk()
        target = model.spec[speed_index]
        if self._disk_speed is not None and target.index == self._disk_speed.index:
            return 0.0
        self._disk_speed = target
        self._idle_power = None
        self._costs = self._cost_table()
        return model.spec.transition_time

    def _disk_idle_power(self) -> float:
        if self.disk_model is None or self._disk_speed is None:
            return 0.0
        return self.disk_model.idle_power(self._disk_speed)

    def io_duration(self, nbytes: int) -> float:
        """Wall time of one blocking disk burst at the current speed."""
        model = self._require_disk()
        assert self._disk_speed is not None
        return model.io_time(nbytes, self._disk_speed)

    def io_power(self) -> float:
        """System power during a disk burst: CPU idles, disk transfers."""
        model = self._require_disk()
        assert self._disk_speed is not None
        return self.power_model.idle_power(self._gear) + model.io_power(
            self._disk_speed
        )

    def compute_duration(self, block: ComputeBlock) -> float:
        """Wall time of a compute block at the current gear."""
        return self.memory_model.duration(block, self._gear)

    def compute_power(self, block: ComputeBlock) -> float:
        """System power while executing ``block`` at the current gear."""
        return (
            self.power_model.active_power(
                self._gear,
                stall_fraction=self.memory_model.stall_fraction(block, self._gear),
                memory_intensity=self.memory_model.memory_intensity(
                    block, self._gear
                ),
            )
            + self._disk_idle_power()
        )

    def compute_cost(self, block: ComputeBlock) -> tuple[float, float, float]:
        """``(duration, power, cycles)`` of ``block`` at the current state.

        Exactly :meth:`compute_duration`, :meth:`compute_power` and the
        duration times the gear's clock, memoized per block value at each
        (gear, disk speed): iterative programs run the same blocks over
        and over, and each evaluation walks the memory model three times.
        """
        cost = self._costs.get(block)
        if cost is None:
            duration = self.compute_duration(block)
            cost = (
                duration,
                self.compute_power(block),
                duration * self._gear.frequency_hz,
            )
            self._costs[block] = cost
        return cost

    def idle_power(self) -> float:
        """System power while blocked/idle at the current gear."""
        power = self._idle_power
        if power is None:
            power = self.power_model.idle_power(self._gear) + self._disk_idle_power()
            self._idle_power = power
        return power
