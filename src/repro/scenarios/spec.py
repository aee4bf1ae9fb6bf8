"""Declarative scenario specs: serializable experiment descriptions.

A :class:`ScenarioSpec` names everything one experiment needs — which
cluster, which workload at which size, which node and gear grids, what
kind of runs (gear sweeps, single measurements, calibrations), and the
fast-forward settings — as plain data.  From a spec the harness can

- **expand** the concrete :class:`~repro.exec.tasks.SimTask` points
  (:meth:`ScenarioSpec.tasks`),
- **serialize** to/from JSON (:meth:`ScenarioSpec.to_dict` /
  :meth:`ScenarioSpec.from_dict` — a round-trip is exact), and
- **fingerprint** its identity (:meth:`ScenarioSpec.fingerprint`) with
  the same canonical encoding (:mod:`repro.exec.fingerprint`) the
  result cache keys use: two specs share a fingerprint exactly when
  they expand to simulation points with identical cache keys.

Metadata (``name``, ``tags``, ``description``) is deliberately excluded
from the fingerprint — renaming a scenario must not re-simulate it —
but the name rides along on every expanded task so executor failures
and cache entries are attributable to the scenario that produced them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.cluster.cluster import ClusterSpec
from repro.cluster.machines import athlon_cluster, reference_cluster
from repro.exec.fingerprint import fingerprint, jsonable
from repro.exec.tasks import (
    CalibrationTask,
    GearSweepTask,
    MeasurementTask,
    PolicyMeasurementTask,
    SimTask,
)
from repro.policy.base import GearPolicy
from repro.policy.registry import POLICIES, build_policy
from repro.util.errors import ConfigurationError
from repro.workloads.base import Workload
from repro.workloads.checkpointed import CheckpointedStencil
from repro.workloads.jacobi import Jacobi
from repro.workloads.nas import BT, CG, EP, FT, IS, LU, MG, SP
from repro.workloads.synthetic import SyntheticMemoryPressure

#: Serialization format version (bumped only on incompatible changes).
SPEC_VERSION = 1

#: Run kinds a scenario can request.
KIND_GEAR_SWEEP = "gear_sweep"
KIND_MEASUREMENT = "measurement"
KIND_CALIBRATION = "calibration"
KINDS = (KIND_GEAR_SWEEP, KIND_MEASUREMENT, KIND_CALIBRATION)

#: Declarative machine names -> cluster factories.
MACHINES = ("athlon", "reference")

#: Declarative workload names -> constructors.  Every constructor takes
#: keyword parameters only (``scale`` plus workload-specific knobs).
WORKLOADS: dict[str, type[Workload]] = {
    "EP": EP,
    "BT": BT,
    "LU": LU,
    "MG": MG,
    "SP": SP,
    "CG": CG,
    "FT": FT,
    "IS": IS,
    "Jacobi": Jacobi,
    "Synthetic": SyntheticMemoryPressure,
    "CheckpointedStencil": CheckpointedStencil,
}

#: Scalar JSON types allowed as workload / fast-forward parameters.
_SCALARS = (str, bool, int, float)


def _pairs(params: Mapping[str, Any] | None) -> tuple[tuple[str, Any], ...]:
    """Normalise a parameter mapping to a key-sorted tuple of pairs."""
    if not params:
        return ()
    for key, value in params.items():
        if not isinstance(key, str):
            raise ConfigurationError(f"parameter names must be strings, got {key!r}")
        if value is not None and not isinstance(value, _SCALARS):
            raise ConfigurationError(
                f"parameter {key}={value!r} is not a JSON scalar"
            )
    return tuple(sorted(params.items()))


@dataclass(frozen=True)
class ClusterRef:
    """A declarative cluster: stock machine name plus knobs.

    Attributes:
        machine: ``"athlon"`` (the paper's power-scalable cluster) or
            ``"reference"`` (the fixed-frequency Sun cluster).
        max_nodes: installed node count.
        gear_switch_latency: DVFS transition stall, seconds (athlon only).
        disk: ``None`` (disk power folded into base power, the paper's
            setup) or ``"drpm"`` (the five-speed DRPM disk, athlon only).
    """

    machine: str = "athlon"
    max_nodes: int = 10
    gear_switch_latency: float = 0.0
    disk: str | None = None

    def __post_init__(self) -> None:
        if self.machine not in MACHINES:
            raise ConfigurationError(
                f"unknown machine {self.machine!r}; expected one of {MACHINES}"
            )
        if self.max_nodes < 1:
            raise ConfigurationError(f"max_nodes must be >= 1, got {self.max_nodes}")
        if self.disk not in (None, "drpm"):
            raise ConfigurationError(f"unknown disk {self.disk!r}")
        if self.machine == "reference" and (self.gear_switch_latency or self.disk):
            raise ConfigurationError(
                "the reference cluster has no DVFS gears or DRPM disk"
            )

    def build(self) -> ClusterSpec:
        """Materialise the concrete :class:`ClusterSpec`."""
        if self.machine == "reference":
            return reference_cluster(self.max_nodes)
        disk = None
        if self.disk == "drpm":
            from repro.cluster.disk import drpm_disk

            disk = drpm_disk()
        return athlon_cluster(
            self.max_nodes,
            gear_switch_latency=self.gear_switch_latency,
            disk=disk,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready mapping."""
        return {
            "machine": self.machine,
            "max_nodes": self.max_nodes,
            "gear_switch_latency": self.gear_switch_latency,
            "disk": self.disk,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ClusterRef":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            machine=data["machine"],
            max_nodes=data["max_nodes"],
            gear_switch_latency=data.get("gear_switch_latency", 0.0),
            disk=data.get("disk"),
        )


@dataclass(frozen=True)
class WorkloadRef:
    """A declarative workload: registered name plus constructor params.

    Attributes:
        kind: a key of :data:`WORKLOADS` (``"EP"`` .. ``"Jacobi"``).
        params: constructor keyword arguments as a key-sorted tuple of
            ``(name, value)`` pairs (scalar JSON values only), so two
            refs built from differently-ordered mappings compare equal.
    """

    kind: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in WORKLOADS:
            raise ConfigurationError(
                f"unknown workload {self.kind!r}; expected one of "
                f"{sorted(WORKLOADS)}"
            )
        object.__setattr__(self, "params", _pairs(dict(self.params)))

    def build(self) -> Workload:
        """Instantiate the workload (raises on bad parameters)."""
        try:
            return WORKLOADS[self.kind](**dict(self.params))
        except TypeError as exc:
            raise ConfigurationError(
                f"workload {self.kind} rejected parameters "
                f"{dict(self.params)!r}: {exc}"
            ) from exc

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready mapping."""
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadRef":
        """Rebuild from :meth:`to_dict` output."""
        return cls(kind=data["kind"], params=_pairs(data.get("params")))


@dataclass(frozen=True)
class PolicyRef:
    """A declarative gear policy: registered name plus constructor params.

    Attributes:
        kind: a key of :data:`repro.policy.registry.POLICIES`
            (``"static"``, ``"idle-low"``, ``"trial-slack"``,
            ``"slack-threshold"``, ``"power-budget"``).
        params: constructor keyword arguments as a key-sorted tuple of
            ``(name, value)`` pairs (scalar JSON values only).
    """

    kind: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in POLICIES:
            raise ConfigurationError(
                f"unknown policy {self.kind!r}; expected one of "
                f"{sorted(POLICIES)}"
            )
        object.__setattr__(self, "params", _pairs(dict(self.params)))

    def build(self) -> GearPolicy:
        """Instantiate the policy (raises on bad parameters)."""
        return build_policy(self.kind, **dict(self.params))

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready mapping."""
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PolicyRef":
        """Rebuild from :meth:`to_dict` output."""
        return cls(kind=data["kind"], params=_pairs(data.get("params")))


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative experiment: cluster x workload x grids x kind.

    Attributes:
        name: unique scenario name (metadata — see note below).
        kind: :data:`KIND_GEAR_SWEEP` (one energy-time curve per node
            count), :data:`KIND_MEASUREMENT` (one run per node x gear
            grid point), or :data:`KIND_CALIBRATION` (the single-node
            per-gear calibration table).
        cluster: declarative cluster.
        workload: declarative workload.
        nodes: node-count grid, in expansion order.
        gears: gear grid; ``None`` means every cluster gear for sweeps
            and gear 1 for measurements.  Canonicalised at construction
            (measurements store ``(1,)`` for ``None``; calibrations
            ignore both grids and store ``nodes=()``, ``gears=None``),
            so fields that cannot affect the expanded tasks cannot
            affect the fingerprint either.
        fast_forward: steady-state fast-forward knobs as a key-sorted
            pair tuple (:class:`repro.mpi.fastforward.FastForwardConfig`
            keywords), or ``None`` for exact event-by-event simulation.
        policy: optional declarative gear policy.  Only measurement
            scenarios accept one; each node-grid point then expands to a
            :class:`~repro.exec.tasks.PolicyMeasurementTask` (the policy
            manages gears, so the gear grid must be left unset and is
            canonicalised to ``None``).
        backend: simulation backend the scenario asks for — ``"event"``
            (the default, point-by-point event simulation) or
            ``"batch"`` (the record/replay backend of
            :mod:`repro.sim.batch`, which records once per
            workload x node count and replays the whole gear grid).
            Validated at construction; unknown names raise
            :class:`ConfigurationError`.  Identity: batch results cache
            under distinct keys, so the fingerprint moves with it (but
            ``"event"`` specs fingerprint exactly as before the field
            existed).
        tags: free-form labels for registry filtering (metadata).
        description: one-line summary (metadata).

    ``name``, ``tags`` and ``description`` are *metadata*: they are
    excluded from :meth:`identity` and :meth:`fingerprint`, so renaming
    or retagging a scenario never invalidates cached results.  All other
    fields are identity: changing any of them moves the fingerprint and
    the expanded tasks' cache keys.
    """

    name: str
    kind: str
    cluster: ClusterRef = field(default_factory=ClusterRef)
    workload: WorkloadRef = field(default_factory=lambda: WorkloadRef("EP"))
    nodes: tuple[int, ...] = (1,)
    gears: tuple[int, ...] | None = None
    fast_forward: tuple[tuple[str, Any], ...] | None = None
    policy: PolicyRef | None = None
    backend: str = "event"
    tags: tuple[str, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario name must be non-empty")
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown scenario kind {self.kind!r}; expected one of {KINDS}"
            )
        from repro.exec.sweep import check_backend

        check_backend(self.backend)
        object.__setattr__(self, "nodes", tuple(int(n) for n in self.nodes))
        if not self.nodes and self.kind != KIND_CALIBRATION:
            raise ConfigurationError(f"{self.kind} scenarios need a node grid")
        if any(n < 1 for n in self.nodes):
            raise ConfigurationError(f"node counts must be >= 1, got {self.nodes}")
        if self.gears is not None:
            object.__setattr__(self, "gears", tuple(int(g) for g in self.gears))
            if not self.gears or any(g < 1 for g in self.gears):
                raise ConfigurationError(
                    f"gear grid must be non-empty positive, got {self.gears}"
                )
        # Canonicalise fields the kind ignores or defaults, so that the
        # fingerprint <=> cache-key equivalence stays sharp in both
        # directions: a field that cannot change the expanded tasks must
        # not be able to change the fingerprint either.  Calibrations
        # ignore grids entirely; measurements default a missing gear
        # grid to gear 1.
        if self.policy is not None:
            if self.kind != KIND_MEASUREMENT:
                raise ConfigurationError(
                    f"only {KIND_MEASUREMENT} scenarios accept a policy, "
                    f"got kind {self.kind!r}"
                )
            if self.gears is not None:
                raise ConfigurationError(
                    "policy-managed measurements have no gear grid; "
                    "leave gears unset"
                )
            self.policy.build()  # validate the knobs eagerly
        if self.kind == KIND_CALIBRATION:
            object.__setattr__(self, "nodes", ())
            object.__setattr__(self, "gears", None)
        elif self.kind == KIND_MEASUREMENT and self.gears is None:
            # Policy-managed measurements keep gears=None: the policy,
            # not a grid, decides the gears.
            if self.policy is None:
                object.__setattr__(self, "gears", (1,))
        if self.fast_forward is not None:
            object.__setattr__(
                self, "fast_forward", _pairs(dict(self.fast_forward))
            )
            self.fast_forward_config()  # validate the knobs eagerly
        object.__setattr__(self, "tags", tuple(str(t) for t in self.tags))

    # ------------------------------------------------------------------
    # Expansion

    def fast_forward_config(self):
        """The spec's :class:`FastForwardConfig`, or ``None``."""
        if self.fast_forward is None:
            return None
        from repro.mpi.fastforward import FastForwardConfig

        try:
            return FastForwardConfig(**dict(self.fast_forward))
        except TypeError as exc:
            raise ConfigurationError(
                f"bad fast-forward parameters {dict(self.fast_forward)!r}: {exc}"
            ) from exc

    def tasks(self, cluster: ClusterSpec | None = None) -> list[SimTask]:
        """Expand into concrete simulation points, in grid order.

        Args:
            cluster: optional concrete cluster overriding the spec's
                declarative one (the experiment modules' ``cluster=``
                escape hatch for machines with no declarative name).
        """
        built = cluster if cluster is not None else self.cluster.build()
        workload = self.workload.build()
        ff = self.fast_forward_config()
        if self.kind == KIND_CALIBRATION:
            return [
                CalibrationTask(built, workload, fast_forward=ff, scenario=self.name)
            ]
        if self.kind == KIND_GEAR_SWEEP:
            return [
                GearSweepTask(
                    built,
                    workload,
                    nodes=n,
                    gears=self.gears,
                    fast_forward=ff,
                    scenario=self.name,
                )
                for n in self.nodes
            ]
        if self.policy is not None:
            policy = self.policy.build()
            return [
                PolicyMeasurementTask(
                    built,
                    workload,
                    nodes=n,
                    policy=policy,
                    fast_forward=ff,
                    scenario=self.name,
                )
                for n in self.nodes
            ]
        gears = self.gears or (1,)
        return [
            MeasurementTask(
                built,
                workload,
                nodes=n,
                gear=g,
                fast_forward=ff,
                scenario=self.name,
            )
            for n in self.nodes
            for g in gears
        ]

    @property
    def points(self) -> int:
        """How many simulation points the spec expands to (cheap)."""
        if self.kind == KIND_CALIBRATION:
            return 1
        if self.kind == KIND_GEAR_SWEEP or self.policy is not None:
            return len(self.nodes)
        return len(self.nodes) * len(self.gears or (1,))

    # ------------------------------------------------------------------
    # Identity and serialization

    def identity(self) -> dict[str, Any]:
        """The fingerprinted content (everything but the metadata).

        Built from the *constructed* cluster, workload, and fast-forward
        config — the same canonical state the executor hashes into cache
        keys — not the raw reference parameters.  Workload constructors
        quantize continuous knobs (iteration counts floor at 3, for
        example), so two references with different ``scale`` values can
        build the same workload; hashing the built form keeps the
        fingerprint ⇔ cache-key equivalence exact in both directions.
        """
        ff = self.fast_forward_config()
        identity = {
            "spec_version": SPEC_VERSION,
            "kind": self.kind,
            "cluster": jsonable(self.cluster.build()),
            "workload": jsonable(self.workload.build()),
            "nodes": self.nodes,
            "gears": self.gears,
            "fast_forward": None if ff is None else ff.describe(),
        }
        # Hashed from the *built* policy's canonical knobs — the same
        # structure PolicyMeasurementTask.describe() folds into its
        # cache key — and omitted entirely when unset, so fingerprints
        # of policy-free specs are unchanged from earlier releases.
        if self.policy is not None:
            identity["policy"] = self.policy.build().describe()
        # Same omitted-when-default treatment: batch-backed points cache
        # under keys carrying the "backend": "batch" token (see
        # repro.exec.batch_sweep.batch_cache_key), so the fingerprint
        # must move with the backend — while event specs keep the exact
        # fingerprints they had before the field existed.
        if self.backend != "event":
            identity["backend"] = self.backend
        return identity

    def fingerprint(self) -> str:
        """Content fingerprint of the identity (cache-key compatible).

        Uses the same canonical encoding as
        :func:`repro.exec.fingerprint.fingerprint`, so the guarantee is
        sharp: two specs have equal fingerprints exactly when the task
        lists they expand to have pairwise-equal executor cache keys.
        """
        return fingerprint(self.identity())

    def same_points(self, other: "ScenarioSpec") -> bool:
        """True when both specs expand to identically-keyed points."""
        return self.identity() == other.identity()

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready mapping (round-trips through :meth:`from_dict`)."""
        return {
            "spec_version": SPEC_VERSION,
            "name": self.name,
            "kind": self.kind,
            "cluster": self.cluster.to_dict(),
            "workload": self.workload.to_dict(),
            "nodes": list(self.nodes),
            "gears": None if self.gears is None else list(self.gears),
            "fast_forward": (
                None if self.fast_forward is None else dict(self.fast_forward)
            ),
            "policy": None if self.policy is None else self.policy.to_dict(),
            "backend": self.backend,
            "tags": list(self.tags),
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        version = data.get("spec_version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ConfigurationError(
                f"unsupported scenario spec version {version!r} "
                f"(this code reads version {SPEC_VERSION})"
            )
        gears = data.get("gears")
        ff = data.get("fast_forward")
        policy = data.get("policy")
        return cls(
            name=data["name"],
            kind=data["kind"],
            cluster=ClusterRef.from_dict(data["cluster"]),
            workload=WorkloadRef.from_dict(data["workload"]),
            nodes=tuple(data["nodes"]),
            gears=None if gears is None else tuple(gears),
            fast_forward=None if ff is None else _pairs(ff),
            policy=None if policy is None else PolicyRef.from_dict(policy),
            backend=data.get("backend", "event"),
            tags=tuple(data.get("tags", ())),
            description=data.get("description", ""),
        )

    def to_json(self) -> str:
        """Canonical JSON text (sorted keys, compact)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_json` text."""
        return cls.from_dict(json.loads(text))

    def renamed(self, name: str) -> "ScenarioSpec":
        """The same scenario under a different (metadata) name."""
        return replace(self, name=name)


def dump_specs(specs: list[ScenarioSpec]) -> str:
    """A scenario pack as a JSON document (list of spec mappings)."""
    return json.dumps(
        {"spec_version": SPEC_VERSION, "scenarios": [s.to_dict() for s in specs]},
        indent=2,
        sort_keys=True,
    )


def load_specs(text: str) -> list[ScenarioSpec]:
    """Rebuild a scenario pack written by :func:`dump_specs`."""
    data = json.loads(text)
    if isinstance(data, list):  # bare list form is accepted too
        return [ScenarioSpec.from_dict(item) for item in data]
    return [ScenarioSpec.from_dict(item) for item in data["scenarios"]]


def expand(
    specs: list[ScenarioSpec], cluster: ClusterSpec | None = None
) -> list[SimTask]:
    """Expand several specs into one flat task list, spec-major order."""
    tasks: list[SimTask] = []
    for spec in specs:
        tasks.extend(spec.tasks(cluster=cluster))
    return tasks
