"""The communicator-level gear policy layer, kept as a test oracle.

Before the runtime governed gears itself (``World(policies=...)``),
policies ran through this ``Comm`` subclass: it yielded ``Now`` and
``SetGear`` requests around every compute and blocking operation of the
program.  The governor must act at exactly these instants, so the
differential tests run generated programs through both and compare the
results bit for bit.

- before every compute: the policy's compute gear;
- around every ``wait`` (so ``send`` and ``recv``), one whole
  ``waitall``, each of a ``sendrecv``'s two waits, and every collective:
  the blocked gear on entry, the compute gear on exit, then one
  ``observe_wait``.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.mpi.comm import Comm, Op
from repro.mpi.requests import Handle, Now, SetGear, TraceMark, Wait
from repro.mpi.world import World
from repro.policy.base import GearPolicy


class PolicyComm(Comm):
    """A communicator that delegates gear control to a policy."""

    def __init__(self, rank: int, size: int, policy: GearPolicy):
        super().__init__(rank, size)
        self.policy = policy
        self._last_observation = 0.0

    def _sync_compute_gear(self) -> Op:
        yield SetGear(self.policy.compute_gear())

    def compute(self, uops, l2_misses=0.0, *, miss_latency=None) -> Op:
        yield from self._sync_compute_gear()
        yield from super().compute(uops, l2_misses, miss_latency=miss_latency)

    def compute_block(self, block) -> Op:
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
        return (yield from self._blocking(super().wait(handle)))

    def waitall(self, handles: Sequence[Handle]) -> Op:
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
        def managed() -> Op:
            return (yield from super(PolicyComm, self)._bracketed(op, nbytes, body))

        return (yield from self._blocking(managed()))


def oracle_world(cluster, program, *, nodes, policies, **kwargs) -> World:
    """A World that runs ``program`` through :class:`PolicyComm`, one
    policy instance per rank, starting every node at gear 1."""

    def factory(comm):
        return program(PolicyComm(comm.rank, comm.size, policies[comm.rank]))

    return World(cluster, factory, nodes=nodes, gear=1, **kwargs)
