"""Gear policies must be semantically invisible.

Whatever the policy does to gears, the program's *results* — payloads,
reductions, return values — must be identical to an unmanaged run, and
all physical invariants must keep holding.
"""

import pytest

from repro.cluster.machines import athlon_cluster
from repro.core.run import run_workload
from repro.mpi.world import World
from repro.policy import IdleLowPolicy, SlackPolicy
from repro.workloads.jacobi import Jacobi
from repro.workloads.nas import CG, LU, MG


def managed_world(program, nodes, policy):
    policies = [policy.clone() for _ in range(nodes)]
    return World(athlon_cluster(), program, nodes=nodes, gear=1, policies=policies)


POLICIES = [IdleLowPolicy(), SlackPolicy(window=3)]


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: type(p).__name__)
class TestSemanticParity:
    def test_collective_results_identical(self, policy):
        def program(comm):
            total = yield from comm.allreduce(comm.rank + 1, nbytes=8)
            gathered = yield from comm.allgather(comm.rank * 2, nbytes=8)
            yield from comm.barrier()
            return (total, tuple(gathered))

        plain = World(athlon_cluster(), program, nodes=5, gear=1).run()
        managed = managed_world(program, 5, policy).run()
        assert plain.return_values() == managed.return_values()

    def test_point_to_point_payloads_identical(self, policy):
        def program(comm):
            peer = (comm.rank + 1) % comm.size
            source = (comm.rank - 1) % comm.size
            got = yield from comm.sendrecv(
                peer, source, send_bytes=256, tag=3, payload=("msg", comm.rank)
            )
            return got

        plain = World(athlon_cluster(), program, nodes=4, gear=1).run()
        managed = managed_world(program, 4, policy).run()
        assert plain.return_values() == managed.return_values()

    def test_jacobi_residual_identical(self, policy):
        workload = Jacobi(scale=0.1)
        plain = World(athlon_cluster(), workload.program, nodes=4, gear=1).run()
        managed = run_workload(
            athlon_cluster(), workload, nodes=4, policy=policy
        )
        assert plain.return_values() == managed.result.return_values()


@pytest.mark.parametrize("workload_cls", [CG, LU, MG], ids=lambda c: c.__name__)
@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: type(p).__name__)
def test_invariants_hold_under_policies(workload_cls, policy):
    managed = run_workload(
        athlon_cluster(), workload_cls(scale=0.1), nodes=4, policy=policy
    )
    result = managed.result
    assert result.active_time + result.idle_time == pytest.approx(result.elapsed)
    for rank_result in result.ranks:
        assert rank_result.meter.duration == pytest.approx(result.end_time)
        assert rank_result.meter.energy() > 0
