"""The policy-zoo grid: every gear-policy family, compared on one table.

Runs a policy x workload x node-count grid through the executor and
reports each cell's time, energy, and energy-delay product relative to
the static gear-1 baseline at the same node count.  Every policy cell is
one :class:`~repro.exec.tasks.PolicyMeasurementTask`, cacheable and
fan-out-able like any other point.  The baseline cells are plain gear-1
:class:`~repro.exec.tasks.MeasurementTask` runs: a static gear-1 policy
on a World that starts at gear 1 never shifts, so its run is bit for bit
the plain one, and the suite's gear-1 runs of Figures 2–4 serve it from
the result cache.

The zoo (see ``docs/POLICIES.md``):

- ``static-g1`` — the conventional fastest configuration (baseline);
- ``idle-low`` — slowest gear while blocked in MPI;
- ``trial-slack`` — the node-bottleneck policy with trial-and-revert;
- ``slack-threshold`` — COUNTDOWN-style: downshift only inside waits
  predicted longer than a threshold;
- ``slack-threshold-hyst`` — the timer-based hysteresis variant;
- ``power-budget-wide`` / ``power-budget-tight`` — a cluster cap
  redistributed toward the critical path, at a generous and at a
  rationing cap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.cluster import ClusterSpec
from repro.core.metrics import energy_delay_product
from repro.exec import Executor
from repro.scenarios.spec import (
    KIND_MEASUREMENT,
    ClusterRef,
    PolicyRef,
    ScenarioSpec,
    WorkloadRef,
    expand,
)
from repro.util.errors import ConfigurationError
from repro.util.tables import TextTable

#: Label of the baseline every cell is relative to.
BASELINE = "static-g1"

#: The zoo's policy menu: label -> declarative policy.
POLICY_MENU: tuple[tuple[str, PolicyRef], ...] = (
    (BASELINE, PolicyRef("static", (("gear", 1),))),
    ("idle-low", PolicyRef("idle-low")),
    ("trial-slack", PolicyRef("trial-slack")),
    (
        "slack-threshold",
        PolicyRef("slack-threshold", (("threshold_s", 1e-4),)),
    ),
    (
        "slack-threshold-hyst",
        PolicyRef(
            "slack-threshold", (("hysteresis", 3), ("threshold_s", 1e-4))
        ),
    ),
    ("power-budget-wide", PolicyRef("power-budget", (("cap_w", 620.0),))),
    ("power-budget-tight", PolicyRef("power-budget", (("cap_w", 450.0),))),
)

#: Workloads x node counts the grid runs on.
GRID_WORKLOADS: tuple[str, ...] = ("Jacobi", "CG", "Synthetic")
GRID_NODES: tuple[int, ...] = (2, 4)

#: The tight cap rations 4 nodes but is generous for 2, so it only
#: differentiates on the larger count; smaller counts are skipped.
TIGHT_CAP_MIN_NODES = 4


@dataclass(frozen=True)
class PolicyCell:
    """One (workload, policy, node count) grid cell."""

    workload: str
    policy: str
    nodes: int
    time: float
    energy: float

    @property
    def edp(self) -> float:
        """Energy-delay product, J*s."""
        return energy_delay_product(self.energy, self.time)


@dataclass(frozen=True)
class PolicyZooResult:
    """The full grid, cells in deterministic grid order."""

    grid: tuple[PolicyCell, ...]

    def cell(self, workload: str, policy: str, nodes: int) -> PolicyCell:
        """One cell by coordinates."""
        for c in self.grid:
            if (c.workload, c.policy, c.nodes) == (workload, policy, nodes):
                return c
        raise KeyError(f"{workload}/{policy}/n{nodes}")

    def baseline(self, workload: str, nodes: int) -> PolicyCell:
        """The static gear-1 cell of one (workload, nodes) column."""
        return self.cell(workload, BASELINE, nodes)

    def render(self) -> str:
        """Relative time/energy/EDP table, grouped by workload."""
        table = TextTable(
            ["code", "nodes", "policy", "time vs g1", "energy vs g1", "EDP vs g1"],
            title="Policy zoo (policy x workload x nodes)",
        )
        for cell in self.grid:
            base = self.baseline(cell.workload, cell.nodes)
            table.add_row(
                [
                    cell.workload,
                    str(cell.nodes),
                    cell.policy,
                    f"{cell.time / base.time - 1:+.1%}",
                    f"{cell.energy / base.energy - 1:+.1%}",
                    f"{cell.edp / base.edp - 1:+.1%}",
                ]
            )
        return table.render()


def policies_scenarios(
    *,
    scale: float = 1.0,
    workloads: tuple[str, ...] = GRID_WORKLOADS,
    node_counts: tuple[int, ...] = GRID_NODES,
    menu: tuple[tuple[str, PolicyRef], ...] = POLICY_MENU,
) -> list[tuple[str, ScenarioSpec]]:
    """The grid as (policy label, scenario spec) pairs, grid order.

    The baseline's spec is the plain gear-1 measurement (no policy),
    which the static gear-1 policy reproduces bit for bit.
    """
    pairs: list[tuple[str, ScenarioSpec]] = []
    for name in workloads:
        ref = WorkloadRef(name, (("scale", scale),))
        allowed = set(ref.build().valid_node_counts(10))
        for label, policy in menu:
            nodes = tuple(n for n in node_counts if n in allowed)
            if label == "power-budget-tight":
                nodes = tuple(n for n in nodes if n >= TIGHT_CAP_MIN_NODES)
            if not nodes:
                continue
            pairs.append(
                (
                    label,
                    ScenarioSpec(
                        name=f"policies/{name}-{label}",
                        kind=KIND_MEASUREMENT,
                        cluster=ClusterRef(),
                        workload=ref,
                        nodes=nodes,
                        policy=None if label == BASELINE else policy,
                        tags=("experiment", "policy"),
                        description=f"{name} under {label}",
                    ),
                )
            )
    return pairs


def policies(
    *,
    scale: float = 1.0,
    cluster: ClusterSpec | None = None,
    executor: Executor | None = None,
    only: tuple[str, ...] | None = None,
) -> PolicyZooResult:
    """Run the policy-zoo grid.

    Args:
        only: restrict the menu to these policy *kinds* (registry names,
            the runner's ``--policy`` flag) or exact menu labels; the
            ``static-g1`` baseline always runs, every other cell is
            relative to it.
    """
    executor = executor or Executor()
    menu = POLICY_MENU
    if only is not None:
        known = {label for label, _ in POLICY_MENU}
        known |= {policy.kind for _, policy in POLICY_MENU}
        unknown = sorted(set(only) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown policy filter {', '.join(unknown)}; "
                f"choose from {', '.join(sorted(known))}"
            )
        keep = set(only) | {BASELINE, "static"}
        menu = tuple(
            (label, policy)
            for label, policy in POLICY_MENU
            if label in keep or policy.kind in keep
        )
    pairs = policies_scenarios(scale=scale, menu=menu)
    labels = []
    tasks = []
    for label, spec in pairs:
        for task in spec.tasks(cluster=cluster):
            labels.append(label)
            tasks.append(task)
    results = executor.run(tasks)
    cells = tuple(
        PolicyCell(
            workload=task.workload.name,
            policy=label,
            nodes=task.nodes,
            time=measurement.time,
            energy=measurement.energy,
        )
        for label, task, measurement in zip(labels, tasks, results)
    )
    return PolicyZooResult(grid=cells)
