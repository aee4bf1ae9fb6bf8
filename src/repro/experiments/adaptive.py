"""Adaptive-gear experiment: the paper's future work, evaluated.

Compares four ways of running each benchmark on multiple nodes:

- **static gear 1** — the conventional fastest configuration;
- **static best-EDP gear** — the oracle single gear minimising the
  energy-delay product (what an offline profile would choose);
- **idle-low** — drop to the slowest gear while blocked in MPI;
- **trial-slack** — the node-bottleneck policy with trial-and-revert
  confirmation.

Reported per benchmark: time, energy, and energy-delay product relative
to static gear 1.  The honest summary (visible in the table this
experiment prints): idle-low is free energy on every code; the slack
policy matches or beats it on codes with real compute slack (LU, CG,
Jacobi) and must rely on its revert logic on tightly-coupled
face-exchange codes (BT, MG) — the reason "automatically reduce the
energy gear appropriately" was a research agenda, not a flag.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.cluster import ClusterSpec
from repro.cluster.machines import athlon_cluster
from repro.core.metrics import energy_delay_product
from repro.core.run import RunMeasurement, gear_sweep, run_workload
from repro.policy import IdleLowPolicy, SlackPolicy
from repro.util.tables import TextTable
from repro.workloads.base import Workload
from repro.workloads.jacobi import Jacobi
from repro.workloads.nas import nas_suite

#: Node count per benchmark (squares for BT/SP).
DEFAULT_NODES = {"EP": 8, "BT": 9, "LU": 8, "MG": 8, "SP": 9, "CG": 8, "Jacobi": 8}


@dataclass(frozen=True)
class PolicyOutcome:
    """One (benchmark, strategy) cell."""

    strategy: str
    time: float
    energy: float

    @property
    def edp(self) -> float:
        """Energy-delay product, J*s."""
        return energy_delay_product(self.energy, self.time)


@dataclass(frozen=True)
class AdaptiveResult:
    """All strategies for all benchmarks."""

    outcomes: dict[str, list[PolicyOutcome]]

    def outcome(self, workload: str, strategy: str) -> PolicyOutcome:
        """One cell by name."""
        for o in self.outcomes[workload]:
            if o.strategy == strategy:
                return o
        raise KeyError(f"{workload}/{strategy}")

    def render(self) -> str:
        """Relative time/energy/EDP table."""
        table = TextTable(
            ["code", "strategy", "time vs g1", "energy vs g1", "EDP vs g1"],
            title="Adaptive gear policies (paper Section 5 future work)",
        )
        for name, outcomes in self.outcomes.items():
            base = outcomes[0]
            for o in outcomes:
                table.add_row(
                    [
                        name,
                        o.strategy,
                        f"{o.time / base.time - 1:+.1%}",
                        f"{o.energy / base.energy - 1:+.1%}",
                        f"{o.edp / base.edp - 1:+.1%}",
                    ]
                )
        return table.render()


def _measure(m: RunMeasurement, strategy: str) -> PolicyOutcome:
    return PolicyOutcome(strategy=strategy, time=m.time, energy=m.energy)


def adaptive_policies(
    *,
    scale: float = 1.0,
    cluster: ClusterSpec | None = None,
    include_jacobi: bool = True,
) -> AdaptiveResult:
    """Run the four strategies on every benchmark."""
    cluster = cluster or athlon_cluster()
    workloads: list[Workload] = list(nas_suite(scale))
    if include_jacobi:
        workloads.append(Jacobi(scale))
    outcomes: dict[str, list[PolicyOutcome]] = {}
    for workload in workloads:
        nodes = DEFAULT_NODES[workload.name]
        rows = [
            _measure(
                run_workload(cluster, workload, nodes=nodes, gear=1), "static g1"
            )
        ]
        curve = gear_sweep(cluster, workload, nodes=nodes)
        best = min(
            curve.points, key=lambda p: energy_delay_product(p.energy, p.time)
        )
        rows.append(
            PolicyOutcome(
                strategy=f"static g{best.gear} (EDP oracle)",
                time=best.time,
                energy=best.energy,
            )
        )
        rows.append(
            _measure(
                run_workload(
                    cluster, workload, nodes=nodes, policy=IdleLowPolicy()
                ),
                "idle-low",
            )
        )
        rows.append(
            _measure(
                run_workload(
                    cluster, workload, nodes=nodes, policy=SlackPolicy()
                ),
                "trial-slack",
            )
        )
        outcomes[workload.name] = rows
    return AdaptiveResult(outcomes=outcomes)
