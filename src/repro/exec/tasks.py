"""Sweep points and the simulated runs they are assembled from.

A *run* — one :func:`repro.core.run.run_workload` configuration, a
"plug in the multimeters and run it" experiment — is the only unit the
executor looks up, simulates and caches.  A :class:`RunTask` describes
one.  Two kinds of run cover every paper artifact:

- :class:`MeasurementTask` — one (workload, nodes, gear) run: a
  fastest-gear trace (model step 1), Table 1's UPM column, or one point
  of a curve;
- :class:`PolicyMeasurementTask` — one run under a gear policy from the
  zoo (the policy's knobs are part of the cache key).

A sweep accepts any :class:`SimTask`: a point that lists its
``runs()`` and ``assemble``-s its result from their measurements.  A run
is its own one-run point.  Two composites assemble the rest:

- :class:`GearSweepTask` — one energy-time curve (one line in a
  figure), from one run per gear;
- :class:`CalibrationTask` — the single-node per-gear S_g/P_g/I_g table
  (model step 4), from one one-node run per gear.

A composite has no cache entry of its own, so a Figure 5 or Table 1
point that repeats a Figure 1–2 run is a cache hit on that run.  Its
assembly is the same function its library twin
(:func:`~repro.core.run.gear_sweep`,
:func:`~repro.core.calibration.calibrate_gears`) uses.

Each run is a frozen, picklable dataclass that knows how to

- ``run()`` itself (in a worker process),
- ``describe()`` itself as the structure its cache key is fingerprinted
  from: its kind and knobs (node count, gear or policy, fast-forward
  config), with its cluster and its workload named by content digest,
  the :func:`~repro.exec.fingerprint.fingerprint` of the full spec
  object, and
- ``encode``/``decode`` its measurement to/from the JSON payload the
  cache stores.

The runs of one gear sweep or calibration share their cluster and
workload objects and differ only in gear, so a sweep names them through
one :class:`Digests` memo for its whole key pass: each distinct spec
object is walked once, not once per run.

Every point can ``encode`` its result: the validation sweep and the
scenario CLI compare and print those payloads.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.cluster.cluster import ClusterSpec
from repro.core.calibration import GearCalibration, calibration_from_runs
from repro.core.curves import EnergyTimeCurve
from repro.core.run import RunMeasurement, curve_from_runs, run_workload
from repro.exec.fingerprint import fingerprint
from repro.reporting import curve_to_dict
from repro.util.units import is_amount
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.mpi.fastforward import FastForwardConfig
    from repro.obs.observer import RunObserver
    from repro.policy.base import GearPolicy


#: Names a spec object by content: :func:`fingerprint`, or a
#: :class:`Digests` memo of it.
Digest = Callable[[Any], str]


class Digests:
    """The :func:`fingerprint` of each spec object, computed once.

    A sweep keeps one for its key pass, so the runs of a gear sweep,
    which share their cluster and workload objects, walk each of them
    once instead of once per key.  Entries are keyed by object
    identity, never by equality: a cluster whose link latency is ``0``
    equals, and hashes like, one whose latency is ``0.0`` (so do ``1``,
    ``1.0`` and ``True``, and ``0.0`` and ``-0.0``), but their digests
    differ, and so must their runs' keys.  Each entry holds its object,
    so no id is reused while the memo lives; and it lives for one pass
    only, so a spec object changed between sweeps is digested afresh.
    """

    def __init__(self) -> None:
        self._memo: dict[int, tuple[Any, str]] = {}

    def __call__(self, obj: Any) -> str:
        entry = self._memo.get(id(obj))
        if entry is None:
            entry = self._memo[id(obj)] = (obj, fingerprint(obj))
        return entry[1]


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
    identical to earlier releases.
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
    if not isinstance(payload, dict):
        raise ValueError("cached measurement is not a mapping")
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
    """One point of a sweep: the runs it needs and how they combine.

    Concrete tasks may carry a ``scenario`` attribute — the name of the
    :class:`repro.scenarios.ScenarioSpec` that produced them.  It is
    pure provenance: excluded from equality, from ``describe()`` and
    hence from cache keys, but reported by sweep failures and stored in
    cache-entry metadata so points stay attributable at scale.  A
    composite hands it on to its runs.
    """

    #: Name of the scenario spec this point came from (provenance only).
    scenario: str | None = None

    @property
    @abstractmethod
    def key(self) -> tuple:
        """Orderable identity, unique within one sweep."""

    @abstractmethod
    def runs(self) -> list["RunTask"]:
        """The runs this point is assembled from, in a fixed order."""

    @abstractmethod
    def assemble(self, results: list[Any]) -> Any:
        """This point's result from its runs' results, in ``runs()`` order."""

    @abstractmethod
    def encode(self, result: Any) -> Any:
        """Flatten a result to plain JSON data (a run's is its cache payload)."""


class RunTask(SimTask):
    """One simulated run: what the executor looks up, runs and caches."""

    def runs(self) -> list["RunTask"]:
        """A run is its own only run."""
        return [self]

    def assemble(self, results: list[Any]) -> Any:
        """A run's result is its measurement."""
        (result,) = results
        return result

    @abstractmethod
    def describe(self, digest: Digest | None = None) -> Any:
        """Canonical structure the cache key is fingerprinted from.

        Args:
            digest: names the run's cluster and workload by content;
                :func:`fingerprint` when None.  A sweep passes its
                :class:`Digests`.
        """

    @abstractmethod
    def run(self, observer: "RunObserver | None" = None) -> Any:
        """Execute the simulation; runs in a worker process.

        Args:
            observer: optional :class:`repro.obs.observer.RunObserver`
                that rides along the simulated run (inline sweeps only —
                observers do not cross process boundaries).
        """

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

    def runs(self) -> list["MeasurementTask"]:
        """One run per gear of the grid, in grid order."""
        gears = self.gears if self.gears is not None else self.cluster.gears.indices
        return _measurements(self, self.nodes, gears)

    def assemble(self, results: list[RunMeasurement]) -> EnergyTimeCurve:
        return curve_from_runs(self.workload.name, self.nodes, results)

    def encode(self, result: EnergyTimeCurve) -> Any:
        return curve_to_dict(result)


@dataclass(frozen=True)
class MeasurementTask(RunTask):
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

    def describe(self, digest: Digest | None = None) -> Any:
        digest = digest or fingerprint
        return _with_ff(
            {
                "kind": "measurement",
                "cluster": digest(self.cluster),
                "workload": digest(self.workload),
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
class PolicyMeasurementTask(RunTask):
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

    def describe(self, digest: Digest | None = None) -> Any:
        digest = digest or fingerprint
        return _with_ff(
            {
                "kind": "policy_measurement",
                "cluster": digest(self.cluster),
                "workload": digest(self.workload),
                "nodes": self.nodes,
                "policy": self.policy.describe(),
            },
            self.fast_forward,
        )

    def run(self, observer: "RunObserver | None" = None) -> RunMeasurement:
        """Simulate the policy-managed run (optionally observed)."""
        return run_workload(
            self.cluster,
            self.workload,
            nodes=self.nodes,
            observer=observer,
            fast_forward=self.fast_forward,
            policy=self.policy,
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

    def runs(self) -> list["MeasurementTask"]:
        """One one-node run per cluster gear, fastest first."""
        return _measurements(self, 1, self.cluster.gears.indices)

    def assemble(self, results: list[RunMeasurement]) -> GearCalibration:
        return calibration_from_runs(self.cluster, self.workload.name, results)

    def encode(self, result: GearCalibration) -> Any:
        # JSON object keys are strings.
        return {
            "workload": result.workload,
            "slowdown": {str(g): v for g, v in result.slowdown.items()},
            "active_power": {str(g): v for g, v in result.active_power.items()},
            "idle_power": {str(g): v for g, v in result.idle_power.items()},
            "single_node_time": {
                str(g): v for g, v in result.single_node_time.items()
            },
        }


def _measurements(
    point: "GearSweepTask | CalibrationTask", nodes: int, gears: Sequence[int]
) -> list[MeasurementTask]:
    """A composite's runs: its configuration on ``nodes`` at each gear."""
    return [
        MeasurementTask(
            point.cluster,
            point.workload,
            nodes=nodes,
            gear=gear,
            fast_forward=point.fast_forward,
            scenario=point.scenario,
        )
        for gear in gears
    ]
