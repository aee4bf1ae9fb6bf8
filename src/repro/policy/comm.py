"""PolicyComm: the gear-managing MPI layer, and a run helper.

:class:`PolicyComm` is a drop-in :class:`repro.mpi.comm.Comm` whose
blocking operations consult a :class:`GearPolicy`:

- before blocking (a wait, or any collective) the node shifts to the
  policy's blocked gear;
- on resumption it shifts to the policy's compute gear;
- the measured blocking time is fed back via ``observe_wait`` so
  adaptive policies can learn.

A ``sendrecv`` is not a collective here: each of its two waits is
bracketed on its own, as :meth:`PolicyComm.wait` brackets any wait.
:meth:`Comm.sendrecv` hands the runtime one
:class:`~repro.mpi.requests.Exchange`, which waits inside the runtime
where no gear can shift, so :meth:`PolicyComm.sendrecv` composes the
exchange from its own ``irecv``, ``isend`` and ``wait`` instead.

The application program is unchanged — this is exactly the paper's
"new MPI implementation that will automatically monitor executing
programs and automatically reduce the energy gear appropriately".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.cluster.cluster import ClusterSpec
from repro.core.run import RunMeasurement
from repro.mpi.comm import Comm, Op
from repro.mpi.requests import Handle, Now, SetGear, TraceMark, Wait
from repro.mpi.world import World
from repro.policy.base import GearPolicy
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.mpi.fastforward import FastForwardConfig
    from repro.obs.observer import RunObserver


class PolicyComm(Comm):
    """A communicator that delegates gear control to a policy."""

    def __init__(self, rank: int, size: int, policy: GearPolicy):
        super().__init__(rank, size)
        self.policy = policy
        self._last_observation = 0.0

    # ------------------------------------------------------------------
    # Gear management around compute and blocking

    def _sync_compute_gear(self) -> Op:
        yield SetGear(self.policy.compute_gear())

    def compute(self, uops, l2_misses=0.0, *, miss_latency=None) -> Op:
        """Compute at the policy's current compute gear."""
        yield from self._sync_compute_gear()
        yield from super().compute(uops, l2_misses, miss_latency=miss_latency)

    def compute_block(self, block) -> Op:
        """Compute a pre-built block at the policy's compute gear."""
        yield from self._sync_compute_gear()
        yield from super().compute_block(block)

    def _blocking(self, body: Op) -> Op:
        """Run a blocking operation at the blocked gear and observe it."""
        start = yield Now()
        yield SetGear(self.policy.blocked_gear())
        result = yield from body
        yield SetGear(self.policy.compute_gear())
        end = yield Now()
        self.policy.observe_wait(end - start, end - self._last_observation)
        self._last_observation = end
        return result

    def wait(self, handle: Handle) -> Op:
        """Wait at the blocked gear; feeds the policy."""
        return (yield from self._blocking(super().wait(handle)))

    def waitall(self, handles: Sequence[Handle]) -> Op:
        """Wait for all handles at the blocked gear (one observation)."""

        def body() -> Op:
            results = []
            for handle in handles:
                results.append((yield Wait(handle)))
            return results

        return (yield from self._blocking(body()))

    def sendrecv(
        self,
        dest: int,
        source: int,
        *,
        send_bytes: int,
        tag: int = 0,
        payload: Any = None,
    ) -> Op:
        """Send and receive, each of the two waits at the blocked gear."""
        yield TraceMark("sendrecv", "begin", send_bytes)
        recv_handle = yield from self.irecv(source, tag=tag)
        send_handle = yield from self.isend(
            dest, nbytes=send_bytes, tag=tag, payload=payload
        )
        value = yield from self.wait(recv_handle)
        yield from self.wait(send_handle)
        yield TraceMark("sendrecv", "end")
        return value

    def _bracketed(self, op: str, nbytes: int, body: Op) -> Op:
        """Collectives run wholly at the blocked gear (no compute inside)."""

        def managed() -> Op:
            return (yield from super(PolicyComm, self)._bracketed(op, nbytes, body))

        return (yield from self._blocking(managed()))


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
    :class:`repro.policy.budget.PowerBudgetPolicy`.

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

    def program(comm: Comm):
        managed = PolicyComm(comm.rank, comm.size, policies[comm.rank])
        return workload.program(managed)

    if observer is not None:
        from repro.obs.observer import RunLabel

        label = RunLabel(
            workload=workload.name, cluster=cluster.name, nodes=nodes, gear=0
        )
        observer.run_started(label)
    world = World(
        cluster,
        program,
        nodes=nodes,
        gear=1,
        observer=observer,
        fast_forward=fast_forward,
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
