"""Simulation points: the units of parallel execution and caching.

A :class:`SimTask` is one independent "plug in the multimeters and run
it" experiment — small enough to fan out across processes, coarse enough
that the result is worth caching.  Three concrete kinds cover every
paper artifact:

- :class:`GearSweepTask` — one energy-time curve (one line in a figure);
- :class:`MeasurementTask` — one fastest-gear trace run (model step 1,
  Table 1's UPM column);
- :class:`PolicyMeasurementTask` — one run under a gear policy from the
  zoo (the policy's knobs are part of the cache key);
- :class:`CalibrationTask` — the single-node per-gear S_g/P_g/I_g table
  (model step 4).

Each task is a frozen, picklable dataclass that knows how to

- ``run()`` itself (in a worker process),
- ``describe()`` itself as the canonical structure its cache key is
  fingerprinted from (full cluster + workload state — see
  :mod:`repro.exec.fingerprint`), and
- ``encode``/``decode`` its result to/from the JSON payload the cache
  stores.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.cluster.cluster import ClusterSpec
from repro.core.calibration import GearCalibration, calibrate_gears
from repro.core.curves import EnergyTimeCurve
from repro.core.run import RunMeasurement, gear_sweep, run_workload
from repro.exec.fingerprint import jsonable
from repro.reporting import curve_from_dict, curve_to_dict
from repro.util.units import is_amount
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.mpi.fastforward import FastForwardConfig
    from repro.obs.observer import RunObserver
    from repro.policy.base import GearPolicy


def _describe_workload(workload: Workload) -> Any:
    """Canonical state of a workload instance (class + all attributes)."""
    return jsonable(workload)


def _ff_key(config: "FastForwardConfig | None") -> tuple | None:
    """Orderable identity of a fast-forward config (knobs only)."""
    if config is None:
        return None
    return tuple(sorted(config.describe().items()))


def _with_ff(describe: dict, config: "FastForwardConfig | None") -> dict:
    """Add a fast-forward entry to a task description when configured.

    Fast-forwarded results agree with full simulation only to the
    configured tolerance, not bitwise, so the config participates in the
    fingerprint: runs with different fast-forward settings never share
    cache entries.  When no config is set the key is omitted entirely,
    keeping fingerprints (and hence cached results) of plain tasks
    identical to earlier releases.  The mutable ``aggregate`` ledger is
    excluded either way.
    """
    if config is not None:
        describe["fast_forward"] = config.describe()
    return describe


def _expect(payload: Any, name: str, expected: Any) -> Any:
    """``payload[name]``, checked to equal ``expected`` in type and value."""
    value = payload.get(name)
    if type(value) is not type(expected) or value != expected:
        raise ValueError(f"cached {name} is {value!r}, expected {expected!r}")
    return value


def _amount(payload: Any, name: str) -> Any:
    """``payload[name]``, checked to be a finite, non-negative number."""
    value = payload.get(name)
    if not is_amount(value):
        raise ValueError(f"cached {name} is {value!r}")
    return value


def _mapping(payload: Any, what: str) -> dict:
    if not isinstance(payload, dict):
        raise ValueError(f"cached {what} is not a mapping")
    return payload


def _decode_measurement(
    payload: Any, task: "MeasurementTask | PolicyMeasurementTask", gear: int
) -> RunMeasurement:
    """Rebuild a cached :class:`RunMeasurement`, validating it first.

    The one decoder of both measurement kinds.  The entry must name the
    task's own workload, cluster, node count and gear; its times and
    energy must be finite, non-negative numbers, and ``upm`` a
    non-negative float (infinite when the run missed nothing, NaN when
    nothing ran).

    Raises:
        ValueError: the payload does not hold together; the cache
            treats it as a miss (:meth:`ResultCache.load`).
    """
    payload = _mapping(payload, "measurement")
    upm = payload.get("upm")
    if type(upm) is not float or upm < 0.0:
        raise ValueError(f"cached upm is {upm!r}")
    return RunMeasurement(
        workload=_expect(payload, "workload", task.workload.name),
        cluster=_expect(payload, "cluster", task.cluster.name),
        nodes=_expect(payload, "nodes", task.nodes),
        gear=_expect(payload, "gear", gear),
        time=_amount(payload, "time_s"),
        energy=_amount(payload, "energy_j"),
        active_time=_amount(payload, "active_time_s"),
        idle_time=_amount(payload, "idle_time_s"),
        reducible_time=_amount(payload, "reducible_time_s"),
        upm=upm,
    )


def _describe_cluster(cluster: ClusterSpec) -> Any:
    """Canonical state of a cluster spec (nested frozen dataclasses)."""
    return jsonable(cluster)


def _scenario_key(base: tuple, scenario: str | None) -> tuple:
    """Qualify a task key with its scenario name, when one is set.

    Scenario sweeps may legitimately contain the *same named point*
    (say CG on 4 nodes at gear 2) from several scenarios whose workload
    parameters differ — the bare key tuple does not see constructor
    parameters, so without qualification such sweeps would trip the
    duplicate-key guard.  Tasks without a scenario keep their original
    keys, so nothing changes for hand-built sweeps.
    """
    if scenario is None:
        return base
    return base + (scenario,)


class SimTask(ABC):
    """One independent simulation point.

    Concrete tasks may carry a ``scenario`` attribute — the name of the
    :class:`repro.scenarios.ScenarioSpec` that produced them.  It is
    pure provenance: excluded from equality, from ``describe()`` and
    hence from cache keys, but reported by sweep failures and stored in
    cache-entry metadata so points stay attributable at scale.
    """

    #: Name of the scenario spec this point came from (provenance only).
    scenario: str | None = None

    @property
    @abstractmethod
    def key(self) -> tuple:
        """Orderable identity, unique within one sweep."""

    @abstractmethod
    def describe(self) -> Any:
        """Canonical structure the cache key is fingerprinted from."""

    @abstractmethod
    def run(self, observer: "RunObserver | None" = None) -> Any:
        """Execute the simulation; runs in a worker process.

        Args:
            observer: optional :class:`repro.obs.observer.RunObserver`
                that rides along every underlying simulated run (inline
                sweeps only — observers do not cross process
                boundaries).
        """

    @abstractmethod
    def encode(self, result: Any) -> Any:
        """Flatten a result to the JSON payload the cache stores."""

    @abstractmethod
    def decode(self, payload: Any) -> Any:
        """Rebuild a result from a cached payload, validating it first.

        Raises:
            ValueError: a field is missing, mistyped, non-finite, out of
                range or not this task's; the cache then treats the
                entry as a miss.
        """


@dataclass(frozen=True)
class GearSweepTask(SimTask):
    """Run one workload at one node count across gears (one curve)."""

    cluster: ClusterSpec
    workload: Workload
    nodes: int
    gears: tuple[int, ...] | None = None
    fast_forward: "FastForwardConfig | None" = None
    scenario: str | None = field(default=None, compare=False)

    @property
    def key(self) -> tuple:
        return _scenario_key(
            (
                "gear_sweep",
                self.cluster.name,
                self.cluster.max_nodes,
                self.workload.name,
                self.nodes,
                self.gears,
                _ff_key(self.fast_forward),
            ),
            self.scenario,
        )

    def describe(self) -> Any:
        return _with_ff(
            {
                "kind": "gear_sweep",
                "cluster": _describe_cluster(self.cluster),
                "workload": _describe_workload(self.workload),
                "nodes": self.nodes,
                "gears": self.gears,
            },
            self.fast_forward,
        )

    def run(self, observer: "RunObserver | None" = None) -> EnergyTimeCurve:
        """Simulate the sweep (optionally observed)."""
        return gear_sweep(
            self.cluster,
            self.workload,
            nodes=self.nodes,
            gears=self.gears,
            observer=observer,
            fast_forward=self.fast_forward,
        )

    def encode(self, result: EnergyTimeCurve) -> Any:
        return curve_to_dict(result)

    def decode(self, payload: Any) -> EnergyTimeCurve:
        payload = _mapping(payload, "curve")
        gears = self.gears if self.gears is not None else self.cluster.gears.indices
        _expect(payload, "workload", self.workload.name)
        _expect(payload, "nodes", self.nodes)
        points = payload.get("points")
        if type(points) is not list or len(points) != len(gears):
            raise ValueError(f"cached curve has points {points!r}")
        for point, gear in zip(points, gears):
            point = _mapping(point, "curve point")
            _expect(point, "gear", gear)
            _amount(point, "time_s")
            _amount(point, "energy_j")
        return curve_from_dict(payload)


@dataclass(frozen=True)
class MeasurementTask(SimTask):
    """Run one (workload, nodes, gear) configuration and measure it."""

    cluster: ClusterSpec
    workload: Workload
    nodes: int
    gear: int = 1
    fast_forward: "FastForwardConfig | None" = None
    scenario: str | None = field(default=None, compare=False)

    @property
    def key(self) -> tuple:
        return _scenario_key(
            (
                "measurement",
                self.cluster.name,
                self.cluster.max_nodes,
                self.workload.name,
                self.nodes,
                self.gear,
                _ff_key(self.fast_forward),
            ),
            self.scenario,
        )

    def describe(self) -> Any:
        return _with_ff(
            {
                "kind": "measurement",
                "cluster": _describe_cluster(self.cluster),
                "workload": _describe_workload(self.workload),
                "nodes": self.nodes,
                "gear": self.gear,
            },
            self.fast_forward,
        )

    def run(self, observer: "RunObserver | None" = None) -> RunMeasurement:
        """Simulate the measurement (optionally observed)."""
        return run_workload(
            self.cluster,
            self.workload,
            nodes=self.nodes,
            gear=self.gear,
            observer=observer,
            fast_forward=self.fast_forward,
        )

    def encode(self, result: RunMeasurement) -> Any:
        return {
            "workload": result.workload,
            "cluster": result.cluster,
            "nodes": result.nodes,
            "gear": result.gear,
            "time_s": result.time,
            "energy_j": result.energy,
            "active_time_s": result.active_time,
            "idle_time_s": result.idle_time,
            "reducible_time_s": result.reducible_time,
            "upm": result.upm,
        }

    def decode(self, payload: Any) -> RunMeasurement:
        return _decode_measurement(payload, self, self.gear)


@dataclass(frozen=True)
class PolicyMeasurementTask(SimTask):
    """Run one (workload, nodes) configuration under a gear policy.

    The policy field holds the *template* — :meth:`run` attaches it via
    :meth:`repro.policy.base.GearPolicy.prepare`, which clones fresh
    per-rank instances (or builds the shared arbiter for coordinated
    families), so one task object can be run repeatedly and its template
    never accumulates state.  The policy's canonical knobs
    (:meth:`~repro.policy.base.GearPolicy.describe`) are folded into
    both ``key`` and ``describe()``: two tasks share a cache entry iff
    every policy knob matches.
    """

    cluster: ClusterSpec
    workload: Workload
    nodes: int
    policy: "GearPolicy"
    fast_forward: "FastForwardConfig | None" = None
    scenario: str | None = field(default=None, compare=False)

    @property
    def key(self) -> tuple:
        return _scenario_key(
            (
                "policy_measurement",
                self.cluster.name,
                self.cluster.max_nodes,
                self.workload.name,
                self.nodes,
                tuple(sorted(self.policy.describe().items())),
                _ff_key(self.fast_forward),
            ),
            self.scenario,
        )

    def describe(self) -> Any:
        return _with_ff(
            {
                "kind": "policy_measurement",
                "cluster": _describe_cluster(self.cluster),
                "workload": _describe_workload(self.workload),
                "nodes": self.nodes,
                "policy": self.policy.describe(),
            },
            self.fast_forward,
        )

    def run(self, observer: "RunObserver | None" = None) -> RunMeasurement:
        """Simulate the policy-managed run (optionally observed)."""
        from repro.policy.comm import run_with_policy

        return run_with_policy(
            self.cluster,
            self.workload,
            nodes=self.nodes,
            policy=self.policy,
            observer=observer,
            fast_forward=self.fast_forward,
        )

    def encode(self, result: RunMeasurement) -> Any:
        return {
            "workload": result.workload,
            "cluster": result.cluster,
            "nodes": result.nodes,
            "gear": result.gear,  # always 0: policy-managed
            "policy": self.policy.describe(),
            "time_s": result.time,
            "energy_j": result.energy,
            "active_time_s": result.active_time,
            "idle_time_s": result.idle_time,
            "reducible_time_s": result.reducible_time,
            "upm": result.upm,
        }

    def decode(self, payload: Any) -> RunMeasurement:
        return _decode_measurement(payload, self, 0)


@dataclass(frozen=True)
class CalibrationTask(SimTask):
    """Single-node per-gear calibration runs (model step 4)."""

    cluster: ClusterSpec
    workload: Workload
    fast_forward: "FastForwardConfig | None" = None
    scenario: str | None = field(default=None, compare=False)

    @property
    def key(self) -> tuple:
        return _scenario_key(
            (
                "calibration",
                self.cluster.name,
                self.cluster.max_nodes,
                self.workload.name,
                _ff_key(self.fast_forward),
            ),
            self.scenario,
        )

    def describe(self) -> Any:
        return _with_ff(
            {
                "kind": "calibration",
                "cluster": _describe_cluster(self.cluster),
                "workload": _describe_workload(self.workload),
            },
            self.fast_forward,
        )

    def run(self, observer: "RunObserver | None" = None) -> GearCalibration:
        """Run the calibration sweeps (optionally observed)."""
        return calibrate_gears(
            self.cluster,
            self.workload,
            observer=observer,
            fast_forward=self.fast_forward,
        )

    def encode(self, result: GearCalibration) -> Any:
        # JSON object keys are strings; gear indices are rebuilt in decode.
        return {
            "workload": result.workload,
            "slowdown": {str(g): v for g, v in result.slowdown.items()},
            "active_power": {str(g): v for g, v in result.active_power.items()},
            "idle_power": {str(g): v for g, v in result.idle_power.items()},
            "single_node_time": {
                str(g): v for g, v in result.single_node_time.items()
            },
        }

    def decode(self, payload: Any) -> GearCalibration:
        payload = _mapping(payload, "calibration")
        gears = [str(g) for g in self.cluster.gears.indices]

        def by_gear(name: str) -> dict[int, float]:
            mapping = _mapping(payload.get(name), name)
            if sorted(mapping) != sorted(gears):
                raise ValueError(f"cached {name} covers gears {list(mapping)}")
            return {int(g): _amount(mapping, g) for g in mapping}

        return GearCalibration(
            workload=_expect(payload, "workload", self.workload.name),
            slowdown=by_gear("slowdown"),
            active_power=by_gear("active_power"),
            idle_power=by_gear("idle_power"),
            single_node_time=by_gear("single_node_time"),
        )
