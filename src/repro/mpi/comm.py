"""The per-rank communicator facade workload code programs against.

Every operation is a generator; rank programs drive them with
``yield from``::

    def program(comm):
        yield from comm.compute(uops=1e6, l2_misses=1e3)
        if comm.rank == 0:
            yield from comm.send(1, nbytes=8192)
        elif comm.rank == 1:
            payload = yield from comm.recv(0)
        total = yield from comm.allreduce(comm.rank, nbytes=8)

Method names and call shapes follow mpi4py's lower-case object API.
Collectives delegate to :mod:`repro.mpi.collectives` and are bracketed in
the trace as single logical calls.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Sequence

from repro.cluster.memory import ComputeBlock
from repro.mpi import collectives as coll
from repro.mpi.requests import (
    ANY_SOURCE,
    ANY_TAG,
    Compute,
    DiskIO,
    Elapse,
    Exchange,
    Handle,
    Irecv,
    Isend,
    IterationMark,
    Now,
    SetDiskSpeed,
    SetGear,
    TraceMark,
    Wait,
    Waitall,
)
from repro.util.errors import ConfigurationError

#: User tags must stay below this; collectives use the space above it.
COLLECTIVE_TAG_BASE = 1 << 20

#: Generator type of every Comm operation.
Op = Generator[Any, Any, Any]


def _add(a: Any, b: Any) -> Any:
    return a + b


class Comm:
    """One rank's view of the communicator.

    Attributes:
        rank: this process's rank, 0-based.
        size: number of ranks.
        algorithms: the collective algorithm selection (swappable for the
            collective-algorithm ablation).
    """

    def __init__(
        self,
        rank: int,
        size: int,
        algorithms: "coll.CollectiveAlgorithms | None" = None,
    ):
        if size < 1 or not 0 <= rank < size:
            raise ConfigurationError(f"bad rank/size: {rank}/{size}")
        self.rank = rank
        self.size = size
        self.algorithms = algorithms or coll.CollectiveAlgorithms()
        self._coll_seq = 0

    # ------------------------------------------------------------------
    # Local operations

    def compute(
        self,
        uops: float,
        l2_misses: float = 0.0,
        *,
        miss_latency: float | None = None,
    ) -> Op:
        """Execute application work at the node's current gear."""
        yield Compute(ComputeBlock(uops, l2_misses, miss_latency))

    def compute_block(self, block: ComputeBlock) -> Op:
        """Execute a pre-built compute block."""
        yield Compute(block)

    def elapse(self, seconds: float) -> Op:
        """Idle at the current gear for a fixed, gear-independent time."""
        yield Elapse(seconds)

    def set_gear(self, gear_index: int) -> Op:
        """Shift this node to another energy gear."""
        yield SetGear(gear_index)

    def now(self) -> Op:
        """Return the current simulated time."""
        return (yield Now())

    def iteration_mark(self, index: int, total: int) -> Op:
        """Declare an iteration boundary; returns iterations skipped.

        Call at the top of the main loop.  Returns 0 normally; when the
        steady-state fast-forward layer macro-steps, it returns the
        number of iterations analytically skipped and the program must
        advance its loop counter (and any per-iteration payload
        recurrence) by that count::

            while iteration < total:
                skipped = yield from comm.iteration_mark(iteration, total)
                if skipped:
                    iteration += skipped
                    continue
                ... one iteration ...
                iteration += 1

        Only mark loops whose remaining iterations are structurally
        uniform; wrap periodic sub-structure (checkpoints every C
        iterations, a collective every P iterations) in macro-unit
        marks instead.
        """
        return (yield IterationMark(index, total))

    def disk_write(self, nbytes: int) -> Op:
        """Blocking local disk write (checkpoint-style burst)."""
        yield DiskIO(nbytes)

    def disk_read(self, nbytes: int) -> Op:
        """Blocking local disk read."""
        yield DiskIO(nbytes)

    def set_disk_speed(self, speed_index: int) -> Op:
        """Shift this node's disk spindle speed (DRPM-style)."""
        yield SetDiskSpeed(speed_index)

    # ------------------------------------------------------------------
    # Point-to-point

    def isend(
        self, dest: int, *, nbytes: int, tag: int = 0, payload: Any = None
    ) -> Op:
        """Post an asynchronous send; returns a :class:`Handle`."""
        self._check_user_tag(tag)
        return (yield Isend(dest, tag, nbytes, payload))

    def irecv(self, source: int = ANY_SOURCE, *, tag: int = ANY_TAG) -> Op:
        """Post a receive; returns a :class:`Handle`."""
        return (yield Irecv(source, tag))

    def wait(self, handle: Handle) -> Op:
        """Block until ``handle`` completes; returns the recv payload."""
        return (yield Wait(handle))

    def waitall(self, handles: Sequence[Handle]) -> Op:
        """Block until every handle completes; returns payloads in order.

        One :class:`~repro.mpi.requests.Waitall` request, which the
        runtime runs as a wait on each handle in turn.  A gear governor
        (``run_workload(..., policy=...)``) brackets the whole call as
        one blocking span.
        """
        return (yield Waitall(tuple(handles)))

    def send(
        self, dest: int, *, nbytes: int, tag: int = 0, payload: Any = None
    ) -> Op:
        """Blocking (buffered-eager) send."""
        handle = yield from self.isend(dest, nbytes=nbytes, tag=tag, payload=payload)
        yield from self.wait(handle)

    def recv(self, source: int = ANY_SOURCE, *, tag: int = ANY_TAG) -> Op:
        """Blocking receive; returns the message payload."""
        handle = yield from self.irecv(source, tag=tag)
        return (yield from self.wait(handle))

    def sendrecv(
        self,
        dest: int,
        source: int,
        *,
        send_bytes: int,
        tag: int = 0,
        payload: Any = None,
    ) -> Op:
        """Simultaneous send and receive (no deadlock); returns recv payload.

        One :class:`~repro.mpi.requests.Exchange` request: the runtime
        posts the receive from ``source``, injects the send to ``dest``,
        then waits on the receive and the send, all inside one traced
        ``"sendrecv"`` call.  ``source`` may be ``ANY_SOURCE``.
        """
        self._check_user_tag(tag)
        request = Exchange(dest, source, tag, send_bytes, payload, True)
        return (yield request)

    # ------------------------------------------------------------------
    # Collectives (each traced as one logical call)

    def _collective_tag(self) -> int:
        self._coll_seq += 1
        return COLLECTIVE_TAG_BASE + self._coll_seq

    def _bracketed(self, op: str, nbytes: int, body: Op) -> Op:
        yield TraceMark(op, "begin", nbytes)
        result = yield from body
        yield TraceMark(op, "end")
        return result

    def barrier(self) -> Op:
        """Block until all ranks arrive."""
        return (
            yield from self._bracketed(
                "barrier", 0, coll.barrier(self, self._collective_tag())
            )
        )

    def bcast(self, value: Any = None, *, nbytes: int, root: int = 0) -> Op:
        """Broadcast from ``root``; every rank returns the root's value."""
        self._check_root(root)
        return (
            yield from self._bracketed(
                "bcast",
                nbytes,
                self.algorithms.bcast(self, value, nbytes, root, self._collective_tag()),
            )
        )

    def reduce(
        self,
        value: Any,
        *,
        nbytes: int,
        root: int = 0,
        op: Callable[[Any, Any], Any] = _add,
    ) -> Op:
        """Reduce to ``root``; root returns the combined value, others None."""
        self._check_root(root)
        return (
            yield from self._bracketed(
                "reduce",
                nbytes,
                coll.reduce(self, value, nbytes, root, op, self._collective_tag()),
            )
        )

    def allreduce(
        self,
        value: Any,
        *,
        nbytes: int,
        op: Callable[[Any, Any], Any] = _add,
    ) -> Op:
        """Reduce-to-all; every rank returns the combined value."""
        return (
            yield from self._bracketed(
                "allreduce",
                nbytes,
                self.algorithms.allreduce(
                    self, value, nbytes, op, self._collective_tag()
                ),
            )
        )

    def gather(self, value: Any, *, nbytes: int, root: int = 0) -> Op:
        """Gather to ``root``; root returns the list by rank, others None."""
        self._check_root(root)
        return (
            yield from self._bracketed(
                "gather",
                nbytes,
                coll.gather(self, value, nbytes, root, self._collective_tag()),
            )
        )

    def scatter(
        self, values: Sequence[Any] | None, *, nbytes: int, root: int = 0
    ) -> Op:
        """Scatter from ``root``; each rank returns its slot."""
        self._check_root(root)
        return (
            yield from self._bracketed(
                "scatter",
                nbytes,
                coll.scatter(self, values, nbytes, root, self._collective_tag()),
            )
        )

    def allgather(self, value: Any, *, nbytes: int) -> Op:
        """All-gather; every rank returns the list of all contributions."""
        return (
            yield from self._bracketed(
                "allgather",
                nbytes,
                self.algorithms.allgather(self, value, nbytes, self._collective_tag()),
            )
        )

    def alltoall(self, values: Sequence[Any] | None, *, nbytes: int) -> Op:
        """All-to-all personalized exchange of ``nbytes`` per peer."""
        return (
            yield from self._bracketed(
                "alltoall",
                nbytes,
                coll.alltoall(self, values, nbytes, self._collective_tag()),
            )
        )

    # ------------------------------------------------------------------

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self.size:
            raise ConfigurationError(f"root {root} out of range 0..{self.size - 1}")

    @staticmethod
    def _check_user_tag(tag: int) -> None:
        if not 0 <= tag < COLLECTIVE_TAG_BASE:
            raise ConfigurationError(
                f"user tags must be in [0, {COLLECTIVE_TAG_BASE}), got {tag}"
            )
