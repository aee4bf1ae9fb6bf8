"""Per-rank gear tuning for an imbalanced application.

The paper's node-bottleneck observation, used offline: when one rank
carries more work, the others can run slower gears at (almost) no wall
time cost.  This example builds a deliberately imbalanced stencil,
searches per-rank gear vectors with the greedy optimiser, and shows the
resulting timeline.

Run:
    python examples/gear_vector_tuning.py
"""

from repro import World, athlon_cluster
from repro.core.search import Objective, search_gear_vector
from repro.obs import RunObserver
from repro.viz.timeline import render_timeline
from repro.workloads.base import CommScheme, Workload, WorkloadSpec


class ImbalancedStencil(Workload):
    """Rank 0 computes twice the others' share; everyone barriers."""

    def __init__(self):
        self.spec = WorkloadSpec(
            name="imbalanced-stencil",
            iterations=20,
            total_uops=6e10,
            upm=70.0,
            miss_latency=25e-9,
            serial_fraction=0.0,
            paper_comm_class=CommScheme.LOGARITHMIC,
            description="2x-loaded rank 0, barrier-synchronized",
        )

    def program(self, comm):
        heavy = 2.0 if comm.rank == 0 else 1.0
        per_iter = self.spec.total_uops / self.spec.iterations / comm.size
        for _ in range(self.spec.iterations):
            yield from comm.compute(
                uops=heavy * per_iter,
                l2_misses=heavy * per_iter / self.spec.upm,
            )
            yield from comm.barrier()


def main() -> None:
    cluster = athlon_cluster()
    workload = ImbalancedStencil()

    result = search_gear_vector(
        cluster,
        workload,
        nodes=6,
        objective=Objective.ENERGY,
        max_time_penalty=0.02,
    )
    print(f"baseline (all gear 1): {result.baseline_time:6.2f} s, "
          f"{result.baseline_energy:7.0f} J")
    print(f"best gear vector:      {list(result.gears)}")
    print(f"tuned:                 {result.time:6.2f} s "
          f"({result.time_penalty:+.1%}), {result.energy:7.0f} J "
          f"({-result.energy_saving:+.1%})")
    print(f"search cost: {result.evaluations} simulated runs")
    print()

    # An attached observer keeps the trace rows the timeline is drawn from.
    world = World(
        cluster,
        workload.program,
        nodes=6,
        gear=list(result.gears),
        observer=RunObserver(),
    )
    print(render_timeline(world.run(), width=64))


if __name__ == "__main__":
    main()
