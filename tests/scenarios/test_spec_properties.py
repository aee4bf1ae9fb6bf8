"""Property suite for scenario specs (hypothesis).

Three load-bearing properties:

1. **Round-trip stability** — serialize -> deserialize reproduces the
   spec exactly, fingerprint included, for any constructible spec.
2. **Fingerprint sensitivity** — perturbing *any* identity field moves
   the fingerprint; touching any metadata field never does.
3. **Cache-key equivalence** — two specs share a fingerprint exactly
   when their expanded points list the same kinds of point over runs
   with the same executor cache keys (computed by
   :func:`repro.exec.sweep.cache_key`, i.e. the same
   :mod:`repro.exec.fingerprint` canonical encoding the result cache
   uses).  This is the contract that lets the registry deduplicate by
   spec fingerprint without ever expanding a task.  The point kind
   counts because a gear sweep and a measurement spec over the same
   grid list the very same runs, and so share their cache entries.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.fingerprint import jsonable
from repro.exec.sweep import cache_key
from repro.scenarios.spec import (
    KIND_CALIBRATION,
    KIND_GEAR_SWEEP,
    KIND_MEASUREMENT,
    KINDS,
    ClusterRef,
    PolicyRef,
    ScenarioSpec,
    WorkloadRef,
)

# ---------------------------------------------------------------------------
# Spec strategies.  Parameters are drawn from small curated pools: the
# property layer exercises the identity/serialization machinery, not the
# simulator, so specs only ever get *constructed* (cheap), never run.

nas_kinds = st.sampled_from(("EP", "BT", "LU", "MG", "SP", "CG", "FT", "IS"))
scales = st.sampled_from((0.03, 0.05, 0.08, 0.1, 0.25))


@st.composite
def workload_refs(draw) -> WorkloadRef:
    choice = draw(st.integers(0, 3))
    if choice == 0:
        return WorkloadRef(
            draw(nas_kinds),
            (
                ("problem_class", draw(st.sampled_from("SWABC"))),
                ("scale", draw(scales)),
            ),
        )
    if choice == 1:
        return WorkloadRef(
            "Jacobi",
            (
                ("scale", draw(scales)),
                ("work_multiplier", draw(st.sampled_from((0.5, 1.0, 2.0)))),
            ),
        )
    if choice == 2:
        return WorkloadRef(
            "Synthetic",
            (
                ("halo_bytes", draw(st.sampled_from((8192, 1 << 20)))),
                ("scale", draw(scales)),
            ),
        )
    return WorkloadRef(
        "CheckpointedStencil",
        (("checkpoint_every", draw(st.sampled_from((2, 5)))), ("scale", 0.2)),
    )


@st.composite
def cluster_refs(draw) -> ClusterRef:
    if draw(st.booleans()):
        return ClusterRef(
            machine="athlon",
            max_nodes=draw(st.integers(1, 32)),
            gear_switch_latency=draw(st.sampled_from((0.0, 1e-4))),
            disk=draw(st.sampled_from((None, "drpm"))),
        )
    return ClusterRef(machine="reference", max_nodes=draw(st.integers(1, 32)))


@st.composite
def scenario_specs(draw) -> ScenarioSpec:
    kind = draw(st.sampled_from(KINDS))
    nodes = (
        ()
        if kind == KIND_CALIBRATION
        else tuple(
            draw(
                st.lists(
                    st.integers(1, 10), min_size=1, max_size=4, unique=True
                )
            )
        )
    )
    gears = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.integers(1, 6), min_size=1, max_size=6, unique=True
            ).map(tuple),
        )
    )
    fast_forward = draw(
        st.one_of(
            st.none(),
            st.fixed_dictionaries(
                {},
                optional={"max_period": st.sampled_from((2, 4, 16))},
            ).map(lambda d: tuple(sorted(d.items()))),
        )
    )
    return ScenarioSpec(
        name=draw(st.text(min_size=1, max_size=12)),
        kind=kind,
        cluster=draw(cluster_refs()),
        workload=draw(workload_refs()),
        nodes=nodes,
        gears=gears,
        fast_forward=fast_forward,
        tags=tuple(draw(st.lists(st.text(max_size=6), max_size=3))),
        description=draw(st.text(max_size=20)),
    )


# ---------------------------------------------------------------------------
# 1. Round-trip stability


@given(scenario_specs())
@settings(max_examples=120)
def test_serialize_deserialize_is_exact(spec):
    rebuilt = ScenarioSpec.from_json(spec.to_json())
    assert rebuilt == spec
    assert rebuilt.fingerprint() == spec.fingerprint()


@given(scenario_specs())
@settings(max_examples=60)
def test_fingerprint_is_stable_across_round_trips(spec):
    """Repeated round-trips and repeated hashing never drift."""
    once = ScenarioSpec.from_json(spec.to_json())
    twice = ScenarioSpec.from_json(once.to_json())
    assert spec.fingerprint() == once.fingerprint() == twice.fingerprint()
    assert spec.fingerprint() == spec.fingerprint()


# ---------------------------------------------------------------------------
# 2. Fingerprint sensitivity: every identity field separates, no
# metadata field does.  Each perturbation keeps the spec constructible.


def _bump_cluster(spec):
    return replace(
        spec, cluster=replace(spec.cluster, max_nodes=spec.cluster.max_nodes + 1)
    )


def _switch_machine(spec):
    if spec.cluster.machine == "reference":
        cluster = ClusterRef(machine="athlon", max_nodes=spec.cluster.max_nodes)
    else:
        cluster = ClusterRef(
            machine="reference", max_nodes=spec.cluster.max_nodes
        )
    return replace(spec, cluster=cluster)


def _switch_latency(spec):
    cluster = ClusterRef(
        machine="athlon",
        max_nodes=spec.cluster.max_nodes,
        gear_switch_latency=spec.cluster.gear_switch_latency + 5e-4,
        disk=spec.cluster.disk if spec.cluster.machine == "athlon" else None,
    )
    return replace(spec, cluster=cluster)


def _switch_disk(spec):
    cluster = ClusterRef(
        machine="athlon",
        max_nodes=spec.cluster.max_nodes,
        disk=None if spec.cluster.disk else "drpm",
    )
    return replace(spec, cluster=cluster)


def _switch_workload(spec):
    kind = "Jacobi" if spec.workload.kind != "Jacobi" else "EP"
    return replace(spec, workload=WorkloadRef(kind, (("scale", 0.05),)))


def _bump_workload_param(spec):
    # Workload constructors quantize continuous knobs (iteration counts
    # floor at 3), so a small scale bump can build the *same* workload.
    # Grow the scale until the built workload actually changes.
    base = jsonable(spec.workload.build())
    params = dict(spec.workload.params)
    scale = params.get("scale", 1.0)
    while True:
        scale *= 4
        params["scale"] = scale
        ref = WorkloadRef(spec.workload.kind, tuple(params.items()))
        if jsonable(ref.build()) != base:
            return replace(spec, workload=ref)


def _switch_kind(spec):
    if spec.kind == KIND_CALIBRATION:
        return replace(spec, kind=KIND_GEAR_SWEEP, nodes=(1,))
    other = (
        KIND_MEASUREMENT if spec.kind == KIND_GEAR_SWEEP else KIND_GEAR_SWEEP
    )
    return replace(spec, kind=other)


def _grow_nodes(spec):
    if spec.kind == KIND_CALIBRATION:
        return replace(spec, kind=KIND_GEAR_SWEEP, nodes=(1,))
    return replace(spec, nodes=spec.nodes + (max(spec.nodes) + 1,))


def _switch_gears(spec):
    if spec.kind == KIND_CALIBRATION:
        # Calibrations canonicalise gears away; move to a kind that
        # keeps them before perturbing.
        spec = replace(spec, kind=KIND_MEASUREMENT, nodes=(1,))
    return replace(spec, gears=(1, 2) if spec.gears != (1, 2) else (1, 3))


def _switch_fast_forward(spec):
    if spec.fast_forward is None:
        return replace(spec, fast_forward=(("max_period", 2),))
    return replace(spec, fast_forward=None)


IDENTITY_PERTURBATIONS = (
    _bump_cluster,
    _switch_machine,
    _switch_latency,
    _switch_disk,
    _switch_workload,
    _bump_workload_param,
    _switch_kind,
    _grow_nodes,
    _switch_gears,
    _switch_fast_forward,
)


@given(scenario_specs(), st.sampled_from(IDENTITY_PERTURBATIONS))
@settings(max_examples=200)
def test_every_identity_field_moves_the_fingerprint(spec, perturb):
    mutated = perturb(spec)
    assert mutated.identity() != spec.identity()
    assert mutated.fingerprint() != spec.fingerprint()


@given(scenario_specs(), st.text(min_size=1, max_size=12))
@settings(max_examples=60)
def test_no_metadata_field_moves_the_fingerprint(spec, name):
    mutated = replace(
        spec, name=name, tags=spec.tags + ("extra",), description="changed"
    )
    assert mutated.fingerprint() == spec.fingerprint()


# ---------------------------------------------------------------------------
# 3. Spec-fingerprint equality <=> executor cache-key equality


def _keys(spec):
    """Each point's kind and the cache keys of the runs it lists."""
    return [
        (type(task).__name__, [cache_key(run) for run in task.runs()])
        for task in spec.tasks()
    ]


@given(scenario_specs(), st.text(min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_equal_fingerprints_give_equal_cache_keys(spec, name):
    """Metadata-only twins expand to identically-keyed tasks."""
    twin = replace(spec, name=name, tags=("t",), description="d")
    assert twin.fingerprint() == spec.fingerprint()
    assert _keys(twin) == _keys(spec)


@given(scenario_specs())
@settings(max_examples=40, deadline=None)
def test_sweep_and_measurement_specs_over_one_grid_share_runs(spec):
    """Switching a gear sweep to a measurement over the same grid moves
    the fingerprint but keeps every run key: the cache serves one
    spec's runs to the other."""
    sweep = replace(spec, kind=KIND_GEAR_SWEEP, nodes=spec.nodes or (1,))
    measurement = replace(sweep, kind=KIND_MEASUREMENT, gears=sweep.gears or (1,))
    sweep = replace(sweep, gears=measurement.gears)
    assert sweep.fingerprint() != measurement.fingerprint()
    runs = [key for _, keys in _keys(sweep) for key in keys]
    assert runs == [key for _, keys in _keys(measurement) for key in keys]


@given(scenario_specs(), st.sampled_from(IDENTITY_PERTURBATIONS))
@settings(max_examples=40, deadline=None)
def test_distinct_fingerprints_give_distinct_cache_keys(spec, perturb):
    """Any identity perturbation separates at least one task cache key.

    (The lists can differ in length too — e.g. a grown node grid; the
    point is they are never element-for-element equal.)
    """
    mutated = perturb(spec)
    assert mutated.fingerprint() != spec.fingerprint()
    assert _keys(mutated) != _keys(spec)


# ---------------------------------------------------------------------------
# 4. Policy blocks: the same three properties hold for policy-managed
# measurements, and the fingerprint moves exactly when a policy knob does.


@st.composite
def policy_refs(draw) -> PolicyRef:
    choice = draw(st.integers(0, 4))
    if choice == 0:
        return PolicyRef("static", (("gear", draw(st.integers(1, 6))),))
    if choice == 1:
        return PolicyRef("idle-low", ())
    if choice == 2:
        return PolicyRef("trial-slack", ())
    if choice == 3:
        return PolicyRef(
            "slack-threshold",
            (
                ("ewma", draw(st.sampled_from((0.25, 0.5)))),
                ("hysteresis", draw(st.sampled_from((0, 3)))),
                ("threshold_s", draw(st.sampled_from((1e-4, 1e-3)))),
            ),
        )
    return PolicyRef(
        "power-budget",
        (
            ("cap_w", draw(st.sampled_from((450.0, 620.0)))),
            ("claw_threshold", draw(st.sampled_from((0.5, 0.7)))),
        ),
    )


@st.composite
def policy_scenario_specs(draw) -> ScenarioSpec:
    base = draw(scenario_specs())
    return replace(
        base,
        kind=KIND_MEASUREMENT,
        nodes=base.nodes or (1,),
        gears=None,
        policy=draw(policy_refs()),
    )


def _bump_policy_knob(spec):
    """Perturb exactly one knob of the attached policy."""
    params = dict(spec.policy.params)
    bumps = {
        "static": lambda p: {"gear": p.get("gear", 1) % 6 + 1},
        "idle-low": lambda p: {"idle_gear": 5},
        "trial-slack": lambda p: {"window": 7},
        "slack-threshold": lambda p: {
            **p, "threshold_s": p["threshold_s"] * 2
        },
        "power-budget": lambda p: {**p, "cap_w": p["cap_w"] + 10.0},
    }
    mutated = bumps[spec.policy.kind](params)
    return replace(
        spec,
        policy=PolicyRef(spec.policy.kind, tuple(sorted(mutated.items()))),
    )


def _switch_policy_family(spec):
    kind = "idle-low" if spec.policy.kind != "idle-low" else "trial-slack"
    return replace(spec, policy=PolicyRef(kind, ()))


def _detach_policy(spec):
    return replace(spec, policy=None, gears=(1,))


POLICY_PERTURBATIONS = (
    _bump_policy_knob,
    _switch_policy_family,
    _detach_policy,
)


@given(policy_scenario_specs())
@settings(max_examples=80)
def test_policy_spec_round_trips_exactly(spec):
    rebuilt = ScenarioSpec.from_json(spec.to_json())
    assert rebuilt == spec
    assert rebuilt.fingerprint() == spec.fingerprint()


@given(policy_scenario_specs(), st.sampled_from(POLICY_PERTURBATIONS))
@settings(max_examples=80, deadline=None)
def test_policy_knob_moves_fingerprint_and_cache_keys(spec, perturb):
    """Fingerprints (and executor cache keys) change iff a policy knob,
    the policy family, or the policy's presence changes."""
    mutated = perturb(spec)
    assert mutated.fingerprint() != spec.fingerprint()
    assert _keys(mutated) != _keys(spec)


@given(policy_scenario_specs(), st.text(min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_policy_spec_metadata_never_moves_fingerprint(spec, name):
    twin = replace(spec, name=name, tags=("t",), description="d")
    assert twin.fingerprint() == spec.fingerprint()
    assert _keys(twin) == _keys(spec)


@given(policy_scenario_specs())
@settings(max_examples=40)
def test_policy_spec_has_no_gear_grid(spec):
    """Policy-managed measurements expand one task per node count, all
    policy-managed (gear 0), never a gear grid."""
    tasks = list(spec.tasks())
    assert len(tasks) == len(spec.nodes) == spec.points
    assert spec.gears is None
    for task in tasks:
        assert task.describe()["policy"] == spec.policy.build().describe()
