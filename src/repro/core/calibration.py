"""Single-node gear calibration (model step 4).

For each application and each gear the model needs:

- ``S_g`` — the application slowdown on one node (multiplicative, see
  :func:`repro.core.metrics.slowdown_ratio`);
- ``P_g`` — average whole-system power while the application runs;
- ``I_g`` — whole-system power of an idle node, per gear (application-
  independent).

The paper measures all three at the wall outlet; here the same numbers
come from metered single-node simulation runs, so the calibration is a
*measurement*, not a read-out of the power model's internals — exactly
the discipline the paper follows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.cluster.cluster import ClusterSpec
from repro.core.metrics import slowdown_ratio
from repro.core.run import RunMeasurement, run_workload
from repro.util.errors import ModelError
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.mpi.fastforward import FastForwardConfig
    from repro.obs.observer import RunObserver


@dataclass(frozen=True)
class GearCalibration:
    """Per-gear S_g, P_g (workload-specific) and I_g (idle) for one cluster.

    Attributes:
        workload: benchmark name the S/P columns belong to.
        slowdown: ``{gear: S_g}`` with S_1 == 1.
        active_power: ``{gear: P_g}`` in watts.
        idle_power: ``{gear: I_g}`` in watts.
        single_node_time: ``{gear: T_g(1)}`` raw measurements.
    """

    workload: str
    slowdown: Mapping[int, float]
    active_power: Mapping[int, float]
    idle_power: Mapping[int, float]
    single_node_time: Mapping[int, float]

    @property
    def gears(self) -> tuple[int, ...]:
        """Calibrated gear indices, ascending."""
        return tuple(sorted(self.slowdown))

    def check(self) -> None:
        """Validate the physical invariants the paper reports.

        - S_1 == 1 and S_g is non-decreasing with gear number;
        - P_g decreases with gear number (slower gear, lower power);
        - I_g < P_g at every gear (idle draws less than active).
        """
        gears = self.gears
        if abs(self.slowdown[gears[0]] - 1.0) > 1e-9:
            raise ModelError(f"S at fastest gear must be 1, got {self.slowdown[gears[0]]}")
        for a, b in zip(gears, gears[1:]):
            if self.slowdown[b] < self.slowdown[a] - 1e-9:
                raise ModelError(
                    f"{self.workload}: slowdown decreased from gear {a} to {b}"
                )
            if self.active_power[b] > self.active_power[a] + 1e-9:
                raise ModelError(
                    f"{self.workload}: active power increased from gear {a} to {b}"
                )
        for g in gears:
            if self.idle_power[g] >= self.active_power[g]:
                raise ModelError(
                    f"{self.workload}: idle power >= active power at gear {g}"
                )


def idle_power_by_gear(
    cluster: ClusterSpec, gears: Sequence[int] | None = None
) -> dict[int, float]:
    """Measure I_g: system power of an idle node at each gear."""
    node = cluster.node
    power = node.power_model()
    indices = list(gears) if gears is not None else list(cluster.gears.indices)
    return {g: power.idle_power(cluster.gears[g]) for g in indices}


def calibrate_gears(
    cluster: ClusterSpec,
    workload: Workload,
    *,
    gears: Sequence[int] | None = None,
    observer: "RunObserver | None" = None,
    fast_forward: "FastForwardConfig | None" = None,
) -> GearCalibration:
    """Run the workload on one node at every gear and extract S_g, P_g.

    ``P_g`` is the run's average power — on one node there is no
    communication idling, so this matches the paper's "average power
    consumption while the application runs".
    """
    indices = list(gears) if gears is not None else list(cluster.gears.indices)
    measurements = [
        run_workload(
            cluster,
            workload,
            nodes=1,
            gear=g,
            observer=observer,
            fast_forward=fast_forward,
        )
        for g in indices
    ]
    return calibration_from_runs(cluster, workload.name, measurements)


def calibration_from_runs(
    cluster: ClusterSpec, workload: str, measurements: Sequence[RunMeasurement]
) -> GearCalibration:
    """S_g, P_g and I_g from one-node runs, one per gear, then checked.

    The one assembly of a calibration: :func:`calibrate_gears` and the
    executor's :class:`~repro.exec.tasks.CalibrationTask` both build
    theirs here.  The gear-1 run is the slowdown reference.

    Raises:
        ModelError: no run at the fastest gear, or the calibration
            breaks an invariant :meth:`GearCalibration.check` tests.
    """
    times = {m.gear: m.time for m in measurements}
    if 1 not in times:
        raise ModelError("calibration needs the fastest gear as the reference")
    reference = times[1]
    calibration = GearCalibration(
        workload=workload,
        slowdown={g: slowdown_ratio(t, reference) for g, t in times.items()},
        active_power={m.gear: m.average_power for m in measurements},
        idle_power=idle_power_by_gear(cluster, list(times)),
        single_node_time=times,
    )
    calibration.check()
    return calibration
