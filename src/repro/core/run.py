"""Run orchestration: workloads × clusters × gears × node counts.

This is the equivalent of the paper's experimental harness: each
:func:`run_workload` call is one "plug in the multimeters and run it"
experiment; :func:`gear_sweep` produces one energy-time curve (one line in
Figures 1-4); :func:`node_sweep` produces the family of curves in one
panel of Figure 2/3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.cluster.cluster import ClusterSpec
from repro.core.curves import CurvePoint, EnergyTimeCurve, CurveFamily
from repro.mpi.world import World, WorldResult
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.mpi.fastforward import FastForwardConfig
    from repro.obs.observer import RunObserver
    from repro.policy.base import GearPolicy


@dataclass(frozen=True)
class RunMeasurement:
    """One experiment's headline numbers plus the full result.

    Attributes:
        workload: benchmark name.
        cluster: cluster name.
        nodes: rank/node count.
        gear: gear index used on every node; 0 for a policy-managed
            run.
        time: execution time (wall clock), seconds.
        energy: cumulative energy of all nodes, joules.
        active_time: T^A — max per-rank computation time.
        idle_time: T^I — execution time minus T^A.
        reducible_time: T^R — conservative reducible work.
        upm: whole-run micro-ops per L2 miss.
        result: the underlying :class:`WorldResult` of a direct
            :func:`run_workload` call.  Results that come back from the
            executor (:mod:`repro.exec`) never carry it, whether the run
            was simulated, replayed or restored from the result cache:
            only the headline numbers above are kept.  Excluded from
            equality: two measurements with the same headline numbers
            are the same measurement.
    """

    workload: str
    cluster: str
    nodes: int
    gear: int
    time: float
    energy: float
    active_time: float
    idle_time: float
    reducible_time: float
    upm: float
    result: WorldResult | None = field(default=None, compare=False)

    @property
    def average_power(self) -> float:
        """Cluster-total average power over the run, watts."""
        if self.time == 0:
            return 0.0
        return self.energy / self.time

    def curve_point(self) -> CurvePoint:
        """This measurement as an energy-time curve point."""
        return CurvePoint(gear=self.gear, time=self.time, energy=self.energy)


def run_workload(
    cluster: ClusterSpec,
    workload: Workload,
    *,
    nodes: int,
    gear: int = 1,
    observer: "RunObserver | None" = None,
    fast_forward: "FastForwardConfig | None" = None,
    policy: "GearPolicy | None" = None,
) -> RunMeasurement:
    """Execute one workload configuration and measure it.

    With an ``observer`` the run is announced (started / gear changes /
    complete) so traces and metrics can be captured, and every rank's
    trace keeps its rows for them; ``None`` (the default) runs the exact
    uninstrumented code path, whose traces keep the aggregates only.  With a
    ``fast_forward`` config, steady-state iteration stretches of
    mark-declaring workloads are macro-stepped analytically; ``None``
    (the default) simulates every event.

    With a ``policy``, every node starts at ``gear`` and the World's
    gear governor shifts it from there.  :meth:`GearPolicy.prepare`
    validates the policy's gears against the cluster and hands each rank
    its own instance: independent clones for per-node policies, or
    instances sharing per-run state for coordinated families like
    :class:`repro.policy.budget.PowerBudgetPolicy`.  The run and its
    observer label carry gear 0, marking "policy-managed".  Fast-forward
    is only sound once the policy's decisions settle into the periodic
    pattern the detector keys on; the policy-zoo conformance tests pin
    the 1e-9 equivalence.
    """
    workload.validate_nodes(nodes)
    cluster.validate_run(nodes, gear)
    policies = policy.prepare(cluster, nodes) if policy is not None else None
    # 0 marks "policy-managed" rather than a fixed gear.
    label_gear = gear if policy is None else 0
    if observer is not None:
        from repro.obs.observer import RunLabel

        label = RunLabel(
            workload=workload.name,
            cluster=cluster.name,
            nodes=nodes,
            gear=label_gear,
        )
        observer.run_started(label)
    world = World(
        cluster,
        workload.program,
        nodes=nodes,
        gear=gear,
        observer=observer,
        fast_forward=fast_forward,
        policies=policies,
    )
    result = world.run()
    if observer is not None:
        observer.run_complete(label, result)
    return RunMeasurement(
        workload=workload.name,
        cluster=cluster.name,
        nodes=nodes,
        gear=label_gear,
        time=result.elapsed,
        energy=result.total_energy,
        active_time=result.active_time,
        idle_time=result.idle_time,
        reducible_time=result.reducible_time(),
        upm=result.upm,
        result=result,
    )


def gear_sweep(
    cluster: ClusterSpec,
    workload: Workload,
    *,
    nodes: int,
    gears: Sequence[int] | None = None,
    observer: "RunObserver | None" = None,
    fast_forward: "FastForwardConfig | None" = None,
) -> EnergyTimeCurve:
    """Run a workload at every gear; returns one energy-time curve."""
    gear_indices = list(gears) if gears is not None else list(cluster.gears.indices)
    measurements = [
        run_workload(
            cluster,
            workload,
            nodes=nodes,
            gear=g,
            observer=observer,
            fast_forward=fast_forward,
        )
        for g in gear_indices
    ]
    return curve_from_runs(workload.name, nodes, measurements)


def curve_from_runs(
    workload: str, nodes: int, measurements: Sequence[RunMeasurement]
) -> EnergyTimeCurve:
    """The energy-time curve of a gear sweep's runs, one point per run.

    The one assembly of a curve: :func:`gear_sweep` and the executor's
    :class:`~repro.exec.tasks.GearSweepTask` both build their curves
    here, from measurements in grid order.
    """
    return EnergyTimeCurve(
        workload=workload,
        nodes=nodes,
        points=tuple(m.curve_point() for m in measurements),
    )


def node_sweep(
    cluster: ClusterSpec,
    workload: Workload,
    *,
    node_counts: Sequence[int],
    gears: Sequence[int] | None = None,
    observer: "RunObserver | None" = None,
    fast_forward: "FastForwardConfig | None" = None,
) -> CurveFamily:
    """Gear-sweep a workload at several node counts (one figure panel)."""
    curves = [
        gear_sweep(
            cluster,
            workload,
            nodes=n,
            gears=gears,
            observer=observer,
            fast_forward=fast_forward,
        )
        for n in node_counts
    ]
    return CurveFamily(workload=workload.name, curves=tuple(curves))
