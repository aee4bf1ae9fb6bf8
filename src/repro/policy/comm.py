"""Run a workload under a gear policy.

The paper's future work is "a new MPI implementation that will
automatically monitor executing programs and automatically reduce the
energy gear appropriately".  Here that implementation is the runtime
itself: :func:`run_with_policy` hands :class:`~repro.mpi.world.World`
one policy instance per rank, and the World's gear governor shifts
gears around the program's operations, as COUNTDOWN does in the
prologue and epilogue of each intercepted MPI call:

- before every compute block, to the policy's compute gear;
- around every blocking span — a top-level ``wait``, ``send`` or
  ``recv``, a whole ``waitall``, each of a ``sendrecv``'s two waits, and
  every collective — to the policy's blocked gear on entry and back to
  the compute gear on exit, reporting the span to ``observe_wait``.

The application program and its request stream are unchanged: it
yields no gear or clock request for the policy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.cluster import ClusterSpec
from repro.core.run import RunMeasurement
from repro.mpi.world import World
from repro.policy.base import GearPolicy
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.mpi.fastforward import FastForwardConfig
    from repro.obs.observer import RunObserver


def run_with_policy(
    cluster: ClusterSpec,
    workload: Workload,
    *,
    nodes: int,
    policy: GearPolicy,
    observer: "RunObserver | None" = None,
    fast_forward: "FastForwardConfig | None" = None,
) -> RunMeasurement:
    """Run a workload under a gear policy and measure it.

    The run attaches the policy via :meth:`GearPolicy.prepare`, which
    validates the configured gears against the cluster and hands each
    rank its own instance — independent clones for per-node policies
    (exactly as a per-node runtime daemon would run), or instances woven
    through shared per-run state for coordinated families like
    :class:`repro.policy.budget.PowerBudgetPolicy`.  The World starts
    every node at gear 1 and governs them with those instances.

    Args:
        observer: optional run observer (trace/metrics capture); the run
            is labelled with gear 0, marking "policy-managed".
        fast_forward: optional steady-state fast-forward config.  Only
            sound once the policy's decisions have settled into the
            periodic pattern the detector keys on; the policy-zoo
            conformance tests pin the 1e-9 equivalence.
    """
    workload.validate_nodes(nodes)
    policies = policy.prepare(cluster, nodes)
    if observer is not None:
        from repro.obs.observer import RunLabel

        label = RunLabel(
            workload=workload.name, cluster=cluster.name, nodes=nodes, gear=0
        )
        observer.run_started(label)
    world = World(
        cluster,
        workload.program,
        nodes=nodes,
        gear=1,
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
        gear=0,  # 0 marks "policy-managed" rather than a fixed gear
        time=result.elapsed,
        energy=result.total_energy,
        active_time=result.active_time,
        idle_time=result.idle_time,
        reducible_time=result.reducible_time(),
        upm=result.upm,
        result=result,
    )
