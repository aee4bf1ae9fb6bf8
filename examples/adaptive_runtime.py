"""The paper's future work: an MPI layer that shifts gears by itself.

Section 5 of the paper: "we will develop a new MPI implementation that
will automatically monitor executing programs and automatically reduce
the energy gear appropriately."  This example runs LU three ways —
conventional fastest gear, idle-low (downshift while blocked in MPI),
and the trial-slack node-bottleneck policy — with zero changes to the
application, and prints each rank's gear trajectory.

Run:
    python examples/adaptive_runtime.py
"""

from repro import athlon_cluster
from repro.core.run import run_workload
from repro.policy import IdleLowPolicy, SlackPolicy
from repro.mpi.world import World
from repro.workloads import LU


def main() -> None:
    cluster = athlon_cluster()
    workload = LU(scale=0.5)

    base = run_workload(cluster, workload, nodes=8, gear=1)
    print(f"static gear 1 : {base.time:7.2f} s  {base.energy:8.0f} J")

    idle = run_workload(cluster, workload, nodes=8, policy=IdleLowPolicy())
    print(
        f"idle-low      : {idle.time:7.2f} s  {idle.energy:8.0f} J "
        f"({idle.energy / base.energy - 1:+.1%} energy, "
        f"{idle.time / base.time - 1:+.1%} time)"
    )

    # Attach the slack policy to the World ourselves, one instance per
    # rank, so we can print the gear trajectories afterwards.  The
    # runtime's gear governor consults them; the program is unchanged.
    policies = SlackPolicy().prepare(cluster, 8)
    result = World(
        cluster, workload.program, nodes=8, gear=1, policies=policies
    ).run()
    print(
        f"trial-slack   : {result.elapsed:7.2f} s  {result.total_energy:8.0f} J "
        f"({result.total_energy / base.energy - 1:+.1%} energy, "
        f"{result.elapsed / base.time - 1:+.1%} time)"
    )
    print()
    print("per-rank compute-gear trajectories (observation index -> gear):")
    for rank, policy in enumerate(policies):
        trail = ", ".join(f"@{i}->g{g}" for i, g in policy.shifts[:6])
        print(f"  rank {rank}: {trail or 'stayed at gear 1'}"
              f" (final: g{policy.compute_gear()})")


if __name__ == "__main__":
    main()
