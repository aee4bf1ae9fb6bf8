"""Generated scenario packs: machine-made experiment grids.

Where :mod:`repro.scenarios.paper` transcribes the paper's six
artifacts, this module *generates* families the paper never ran —
weak/strong scaling grids, heterogeneous gear menus, checkpoint-heavy
I/O mixes, communication-pathological kernels — in the spirit of large
comparative DVFS studies (COUNTDOWN sweeps policy x workload x node
grids rather than single figures).

Every generator is deterministic: the same parameters produce the same
specs in the same order, so a pack is as cacheable and fingerprintable
as a hand-written experiment.  :func:`validation_pack` composes the
generators into the large sweep the validation harness
(:mod:`repro.scenarios.validation`) soaks the executor stack with.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.scenarios.registry import REGISTRY
from repro.scenarios.spec import (
    KIND_GEAR_SWEEP,
    KIND_MEASUREMENT,
    WORKLOADS,
    ClusterRef,
    PolicyRef,
    ScenarioSpec,
    WorkloadRef,
)

#: The six gears of the paper's Athlon cluster.
ALL_GEARS = (1, 2, 3, 4, 5, 6)

#: NAS codes used by the generated grids (the full eight).
NAS_NAMES = ("EP", "BT", "LU", "MG", "SP", "CG", "FT", "IS")

#: Steady-state fast-forward knobs the equivalence twins run under.
#: ``max_period=2`` keeps the detection window short enough that the
#: ~20-iteration pack workloads actually engage (jumps need about
#: ``2 * max_period + 3`` iterations of history).
FF_KNOBS: Mapping[str, int] = {"max_period": 2}

#: Tag marking plain specs the validation harness builds fast-forward
#: equivalence twins for.
FF_ELIGIBLE_TAG = "ff-eligible"

#: Tag marking plain specs the validation harness re-runs through the
#: record/replay batch backend (:mod:`repro.sim.batch`) and checks for
#: 1e-9 time/energy agreement with exact event simulation.
BATCH_ELIGIBLE_TAG = "batch-eligible"


def scale_for_iterations(kind: str, iterations: int) -> float:
    """The ``scale`` putting a workload at an exact iteration count.

    Workload constructors round ``BASE_ITERATIONS * scale`` (with a
    floor of 3), so two nearby scales can collapse onto the same
    iteration count — and hence the same content fingerprint.  Grids
    parameterized by *iterations* sidestep that: every grid point is a
    genuinely distinct simulation.
    """
    base = WORKLOADS[kind].BASE_ITERATIONS
    return iterations / base


def unique_specs(specs: Iterable[ScenarioSpec]) -> list[ScenarioSpec]:
    """Drop specs whose identity fingerprint was already seen (keep first)."""
    seen: set[str] = set()
    out: list[ScenarioSpec] = []
    for spec in specs:
        print_ = spec.fingerprint()
        if print_ in seen:
            continue
        seen.add(print_)
        out.append(spec)
    return out


def total_points(specs: Iterable[ScenarioSpec]) -> int:
    """Simulation points the specs expand to, without expanding."""
    return sum(spec.points for spec in specs)


def _valid_nodes(ref: WorkloadRef, counts: Sequence[int], max_nodes: int) -> tuple[int, ...]:
    allowed = set(ref.build().valid_node_counts(max_nodes))
    return tuple(n for n in counts if n in allowed)


@REGISTRY.register("strong-scaling", tags=("pack",))
def strong_scaling_pack(
    *,
    iterations: Sequence[int] = (3, 5),
    classes: Sequence[str] = ("B",),
    node_counts: Sequence[int] = (1, 2, 4, 8, 9),
    gears: Sequence[int] = ALL_GEARS,
) -> list[ScenarioSpec]:
    """Fixed problem, growing node counts: the classic scaling grid.

    One measurement scenario per (workload, class, iteration count),
    expanding to a point per valid node count per gear.
    """
    specs = []
    for name in NAS_NAMES:
        for cls_ in classes:
            for iters in iterations:
                scale = scale_for_iterations(name, iters)
                ref = WorkloadRef(
                    name, (("problem_class", cls_), ("scale", scale))
                )
                nodes = _valid_nodes(ref, node_counts, 10)
                specs.append(
                    ScenarioSpec(
                        name=f"strong/{name}-{cls_}-i{iters}",
                        kind=KIND_MEASUREMENT,
                        cluster=ClusterRef(),
                        workload=ref,
                        nodes=nodes,
                        gears=tuple(gears),
                        tags=("pack", "strong-scaling"),
                        description=(
                            f"{name} class {cls_}, {iters} iterations, "
                            f"nodes {nodes}"
                        ),
                    )
                )
    for name in ("Jacobi", "Synthetic"):
        for iters in iterations:
            scale = scale_for_iterations(name, iters)
            specs.append(
                ScenarioSpec(
                    name=f"strong/{name}-i{iters}",
                    kind=KIND_MEASUREMENT,
                    cluster=ClusterRef(),
                    workload=WorkloadRef(name, (("scale", scale),)),
                    nodes=tuple(n for n in node_counts if n <= 10),
                    gears=tuple(gears),
                    tags=("pack", "strong-scaling"),
                    description=f"{name}, {iters} iterations",
                )
            )
    return specs


@REGISTRY.register("weak-scaling", tags=("pack",))
def weak_scaling_pack(
    *,
    iterations: Sequence[int] = (4,),
    node_counts: Sequence[int] = (1, 2, 4, 6, 8, 10),
    base_nodes: int = 2,
    gears: Sequence[int] = ALL_GEARS,
) -> list[ScenarioSpec]:
    """Per-node work held constant as nodes grow (Gustafson's regime).

    Jacobi's ``work_multiplier`` grows the per-iteration grid with the
    node count, so every point does the same per-rank work; the
    energy-time question becomes "what does a bigger *machine* cost",
    not "what does a smaller *share* cost".
    """
    specs = []
    for iters in iterations:
        scale = scale_for_iterations("Jacobi", iters)
        for n in node_counts:
            multiplier = n / base_nodes
            specs.append(
                ScenarioSpec(
                    name=f"weak/Jacobi-n{n}-i{iters}",
                    kind=KIND_MEASUREMENT,
                    cluster=ClusterRef(),
                    workload=WorkloadRef(
                        "Jacobi",
                        (("scale", scale), ("work_multiplier", multiplier)),
                    ),
                    nodes=(n,),
                    gears=tuple(gears),
                    tags=("pack", "weak-scaling"),
                    description=(
                        f"Jacobi on {n} nodes, work x{multiplier:g} "
                        f"({iters} iterations)"
                    ),
                )
            )
    return specs


@REGISTRY.register("heterogeneous-gear", tags=("pack",))
def heterogeneous_gear_pack(
    *,
    iterations: Sequence[int] = (3,),
    gear_menus: Sequence[Sequence[int]] = ((1, 3, 5), (2, 4, 6), (1, 6), (4, 5, 6)),
    switch_latencies: Sequence[float] = (0.0, 100e-6),
    node_counts: Sequence[int] = (2, 4, 8),
) -> list[ScenarioSpec]:
    """Restricted gear menus and non-zero DVFS switch costs.

    Models clusters whose nodes expose only a subset of the gear table
    (deep gears fused off, or a conservative site policy) and
    PowerNow!-class transition stalls — curve shapes under a sparse
    menu are exactly what a gear-advisor must interpolate across.
    """
    specs = []
    for name in ("EP", "CG", "Jacobi", "Synthetic"):
        for iters in iterations:
            scale = scale_for_iterations(name, iters)
            ref = WorkloadRef(name, (("scale", scale),))
            nodes = _valid_nodes(ref, node_counts, 10)
            for menu in gear_menus:
                for latency in switch_latencies:
                    menu_tag = "".join(str(g) for g in menu)
                    specs.append(
                        ScenarioSpec(
                            name=(
                                f"hetgear/{name}-g{menu_tag}"
                                f"-l{round(latency * 1e6)}-i{iters}"
                            ),
                            kind=KIND_GEAR_SWEEP,
                            cluster=ClusterRef(gear_switch_latency=latency),
                            workload=ref,
                            nodes=nodes,
                            gears=tuple(menu),
                            tags=("pack", "heterogeneous-gear"),
                            description=(
                                f"{name} on gear menu {tuple(menu)}, "
                                f"switch {latency * 1e6:g} us"
                            ),
                        )
                    )
    return specs


@REGISTRY.register("checkpoint-heavy", tags=("pack",))
def checkpoint_heavy_pack(
    *,
    iterations: Sequence[int] = (6,),
    checkpoint_periods: Sequence[int] = (2, 3),
    checkpoint_volumes: Sequence[int] = (16_000_000, 64_000_000),
    disk_speeds: Sequence[int] = (1, 3, 5),
    node_counts: Sequence[int] = (2, 4),
    gears: Sequence[int] = (1, 3, 6),
) -> list[ScenarioSpec]:
    """I/O-burst workloads on the multi-speed DRPM disk.

    The paper's "scaling down other components, such as the disk"
    future-work axis: stencil compute punctuated by blocking checkpoint
    writes, across checkpoint period/volume and spindle speed.
    """
    specs = []
    for iters in iterations:
        scale = scale_for_iterations("CheckpointedStencil", iters)
        for every in checkpoint_periods:
            for volume in checkpoint_volumes:
                for speed in disk_speeds:
                    specs.append(
                        ScenarioSpec(
                            name=(
                                f"ckpt/every{every}-v{volume // 1_000_000}M"
                                f"-d{speed}-i{iters}"
                            ),
                            kind=KIND_MEASUREMENT,
                            cluster=ClusterRef(disk="drpm"),
                            workload=WorkloadRef(
                                "CheckpointedStencil",
                                (
                                    ("checkpoint_bytes", volume),
                                    ("checkpoint_every", every),
                                    ("disk_speed", speed),
                                    ("scale", scale),
                                ),
                            ),
                            nodes=tuple(node_counts),
                            gears=tuple(gears),
                            tags=("pack", "checkpoint-heavy"),
                            description=(
                                f"checkpoint every {every} iterations, "
                                f"{volume // 1_000_000} MB, disk speed {speed}"
                            ),
                        )
                    )
    return specs


@REGISTRY.register("communication-pathological", tags=("pack",))
def communication_pathological_pack(
    *,
    iterations: Sequence[int] = (3,),
    halo_bytes: Sequence[int] = (262_144, 1_048_576, 4_194_304),
    node_counts: Sequence[int] = (2, 4, 8),
    gears: Sequence[int] = ALL_GEARS,
) -> list[ScenarioSpec]:
    """Communication-dominated kernels: the anti-case-3 stress set.

    Synthetic with the ring halo cranked to megabytes, and Jacobi with
    the per-iteration grid shrunk under it (``work_multiplier < 1``),
    drown computation in wire time — the regime where lower gears are
    nearly free and the network, not the CPU, sets the energy floor.
    """
    specs = []
    for iters in iterations:
        scale = scale_for_iterations("Synthetic", iters)
        for halo in halo_bytes:
            specs.append(
                ScenarioSpec(
                    name=f"commpath/Synthetic-h{halo // 1024}K-i{iters}",
                    kind=KIND_MEASUREMENT,
                    cluster=ClusterRef(),
                    workload=WorkloadRef(
                        "Synthetic",
                        (("halo_bytes", halo), ("scale", scale)),
                    ),
                    nodes=tuple(node_counts),
                    gears=tuple(gears),
                    tags=("pack", "communication-pathological"),
                    description=f"Synthetic, {halo // 1024} KiB ring halo",
                )
            )
        jacobi_scale = scale_for_iterations("Jacobi", iters)
        for multiplier in (0.125, 0.25):
            specs.append(
                ScenarioSpec(
                    name=f"commpath/Jacobi-w{multiplier:g}-i{iters}",
                    kind=KIND_MEASUREMENT,
                    cluster=ClusterRef(),
                    workload=WorkloadRef(
                        "Jacobi",
                        (
                            ("scale", jacobi_scale),
                            ("work_multiplier", multiplier),
                        ),
                    ),
                    nodes=tuple(node_counts),
                    gears=tuple(gears),
                    tags=("pack", "communication-pathological"),
                    description=(
                        f"Jacobi with per-iteration work x{multiplier:g} "
                        "(halo volume unchanged)"
                    ),
                )
            )
    return specs


@REGISTRY.register("fast-forward-eligible", tags=("pack",))
def fastforward_pack(
    *,
    iterations: Sequence[int] = (20,),
    gears: Sequence[int] = (1, 4),
) -> list[ScenarioSpec]:
    """Long steady-state runs the fast-forward layer can macro-step.

    These specs run *exact* (no fast-forward); the validation harness
    derives a ``+ff`` twin from each (:data:`FF_KNOBS`) and asserts the
    twins agree to 1e-9 relative.  Periods: Jacobi/Synthetic/EP settle
    into period-1 limit cycles; CG on ``n`` nodes needs period
    ``n - 1``, so it runs on 2 nodes to stay inside ``max_period=2``.

    The same specs double as the batch backend's equivalence set
    (:data:`BATCH_ELIGIBLE_TAG`): their multi-gear measurement grids are
    exactly what :mod:`repro.exec.batch_sweep` folds into shared-tape
    groups, so validation sweeps exercise recording, grouping and replay
    against the exact baseline too.
    """
    grids = {
        "Jacobi": (1, 2, 4),
        "Synthetic": (2, 4),
        "EP": (2, 4),
        "CG": (2,),
    }
    specs = []
    for iters in iterations:
        for name, nodes in grids.items():
            scale = scale_for_iterations(name, iters)
            specs.append(
                ScenarioSpec(
                    name=f"ff/{name}-i{iters}",
                    kind=KIND_MEASUREMENT,
                    cluster=ClusterRef(),
                    workload=WorkloadRef(name, (("scale", scale),)),
                    nodes=nodes,
                    gears=tuple(gears),
                    tags=("pack", FF_ELIGIBLE_TAG, BATCH_ELIGIBLE_TAG),
                    description=f"{name}, {iters} steady iterations",
                )
            )
    return specs


@REGISTRY.register("policy-zoo", tags=("pack", "policy"))
def policy_zoo_pack(
    *,
    iterations: Sequence[int] = (5,),
    node_counts: Sequence[int] = (2, 4),
) -> list[ScenarioSpec]:
    """Policy-managed measurement scenarios: one per zoo family.

    Covers every registered policy family at least once — the static
    family through :class:`~repro.policy.base.StaticPolicy` at gear 2 (a
    distinct cache key from a plain gear-2 measurement: the run starts
    at gear 1 and the runtime's gear governor shifts it), the
    idle-harvesting pair, the trial-slack adaptive policy, a hysteretic
    slack-threshold variant, and two power-budget caps (one generous,
    one that forces the arbiter to ration upgrades on the larger node
    count).
    """
    policies: list[tuple[str, PolicyRef, tuple[int, ...]]] = [
        ("static-g2", PolicyRef("static", (("gear", 2),)), tuple(node_counts)),
        ("idle-low", PolicyRef("idle-low"), tuple(node_counts)),
        ("trial-slack", PolicyRef("trial-slack"), tuple(node_counts)),
        (
            "slack-threshold",
            PolicyRef("slack-threshold", (("threshold_s", 1e-4),)),
            tuple(node_counts),
        ),
        (
            "slack-threshold-hyst",
            PolicyRef(
                "slack-threshold",
                (("hysteresis", 3), ("threshold_s", 1e-4)),
            ),
            tuple(node_counts),
        ),
        (
            "power-budget-wide",
            PolicyRef("power-budget", (("cap_w", 620.0),)),
            tuple(node_counts),
        ),
        (
            "power-budget-tight",
            PolicyRef("power-budget", (("cap_w", 450.0),)),
            tuple(n for n in node_counts if n >= 4) or (max(node_counts),),
        ),
    ]
    specs = []
    for name in ("Jacobi", "CG"):
        for iters in iterations:
            scale = scale_for_iterations(name, iters)
            ref = WorkloadRef(name, (("scale", scale),))
            for label, policy, nodes in policies:
                nodes = _valid_nodes(ref, nodes, 10)
                if not nodes:
                    continue
                specs.append(
                    ScenarioSpec(
                        name=f"zoo/{name}-{label}-i{iters}",
                        kind=KIND_MEASUREMENT,
                        cluster=ClusterRef(),
                        workload=ref,
                        nodes=nodes,
                        policy=policy,
                        tags=("pack", "policy"),
                        description=(
                            f"{name} under {policy.kind} "
                            f"{dict(policy.params)}, {iters} iterations"
                        ),
                    )
                )
    return specs


@REGISTRY.register("validation", tags=("pack", "validation"))
def validation_pack(
    *, min_points: int = 10_000, max_level: int = 10
) -> list[ScenarioSpec]:
    """The composed validation sweep: every pack, grown to a point target.

    Grids grow level by level (more iteration counts, more NAS classes)
    until the deduplicated spec set expands to at least ``min_points``
    simulation points, then the spec list is trimmed to the first
    prefix reaching the target — so requesting 200 points yields a
    smoke-sized subset of exactly the same family the 10k sweep runs,
    and the construction is deterministic end to end.

    The fast-forward-eligible specs always lead the list: the
    equivalence phase needs them present at any size.
    """
    classes_by_level = ("B", "A", "C", "W", "S")
    specs: list[ScenarioSpec] = []
    for level in range(1, max_level + 1):
        iteration_grid = tuple(range(3, 3 + 2 * level))
        classes = classes_by_level[: min(1 + level // 2, len(classes_by_level))]
        specs = unique_specs(
            fastforward_pack()
            + policy_zoo_pack(iterations=iteration_grid[:1])
            + strong_scaling_pack(iterations=iteration_grid, classes=classes)
            + weak_scaling_pack(iterations=iteration_grid[:2])
            + heterogeneous_gear_pack(iterations=iteration_grid[:3])
            + checkpoint_heavy_pack(iterations=iteration_grid[:2])
            + communication_pathological_pack(iterations=iteration_grid[:2])
        )
        if total_points(specs) >= min_points:
            break
    trimmed: list[ScenarioSpec] = []
    count = 0
    for spec in specs:
        trimmed.append(spec)
        count += spec.points
        if count >= min_points:
            break
    return trimmed
