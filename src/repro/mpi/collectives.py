"""Collective algorithms, built from point-to-point messages.

Each algorithm is a generator over the request vocabulary so the cost of
a collective emerges from the same message timing as everything else.
A round that both sends and receives (barrier, recursive-doubling
allreduce, both allgathers, alltoall) is one
:class:`~repro.mpi.requests.Exchange`; the tree and linear algorithms
move data one way per round, with ``Isend``/``Irecv`` and ``Wait``.
Defaults follow the classic MPICH choices of the paper's era:

- broadcast / reduce: binomial tree — ``ceil(log2 P)`` rounds;
- allreduce: reduce + broadcast (any P) or recursive doubling (P a power
  of two);
- barrier: dissemination — ``ceil(log2 P)`` rounds;
- gather / scatter: linear at the root;
- allgather: recursive doubling for powers of two, ring otherwise;
- alltoall: pairwise exchange, ``P-1`` rounds.

The tree algorithms are why well-written codes show *logarithmic*
communication scaling (the paper's step-2 classification for BT, EP, MG,
SP); alltoall-style volume is where quadratic scaling (CG) comes from.

:class:`CollectiveAlgorithms` lets the ablation benchmarks swap tree
algorithms for naive linear ones to show the effect of collective choice
on the fitted communication shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator, Sequence

from repro.mpi.requests import Exchange, Irecv, Isend, Wait
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.mpi.comm import Comm

Op = Generator[Any, Any, Any]

#: A tiny payload (barrier tokens) still occupies one header on the wire.
HEADER_BYTES = 8


def _send(dest: int, tag: int, nbytes: int, payload: Any = None) -> Op:
    handle = yield Isend(dest, tag, nbytes, payload)
    yield Wait(handle)


def _recv(source: int, tag: int) -> Op:
    handle = yield Irecv(source, tag)
    return (yield Wait(handle))


def barrier(comm: "Comm", tag: int) -> Op:
    """Dissemination barrier: ``ceil(log2 P)`` rounds of token exchange."""
    size, rank = comm.size, comm.rank
    if size == 1:
        return
    step = 1
    while step < size:
        dest = (rank + step) % size
        source = (rank - step) % size
        yield Exchange(dest, source, tag, HEADER_BYTES)
        step <<= 1


def bcast_binomial(comm: "Comm", value: Any, nbytes: int, root: int, tag: int) -> Op:
    """Binomial-tree broadcast (MPICH classic)."""
    size, rank = comm.size, comm.rank
    if size == 1:
        return value
    vrank = (rank - root) % size
    mask = 1
    while mask < size:
        if vrank & mask:
            source = (vrank - mask + root) % size
            value = yield from _recv(source, tag)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vrank + mask < size:
            dest = (vrank + mask + root) % size
            yield from _send(dest, tag, nbytes, value)
        mask >>= 1
    return value


def bcast_linear(comm: "Comm", value: Any, nbytes: int, root: int, tag: int) -> Op:
    """Naive broadcast: root sends to every rank in turn (ablation baseline)."""
    size, rank = comm.size, comm.rank
    if size == 1:
        return value
    if rank == root:
        for dest in range(size):
            if dest != root:
                yield from _send(dest, tag, nbytes, value)
        return value
    return (yield from _recv(root, tag))


def reduce(
    comm: "Comm",
    value: Any,
    nbytes: int,
    root: int,
    op: Callable[[Any, Any], Any],
    tag: int,
) -> Op:
    """Binomial-tree reduction; root returns the combined value.

    Combination order is deterministic (children combined in mask order),
    so non-commutative test operators behave reproducibly.
    """
    size, rank = comm.size, comm.rank
    if size == 1:
        return value
    vrank = (rank - root) % size
    accumulated = value
    mask = 1
    while mask < size:
        if vrank & mask:
            dest = (vrank - mask + root) % size
            yield from _send(dest, tag, nbytes, accumulated)
            break
        peer_v = vrank | mask
        if peer_v < size:
            source = (peer_v + root) % size
            child = yield from _recv(source, tag)
            accumulated = op(accumulated, child)
        mask <<= 1
    return accumulated if rank == root else None


def allreduce_reduce_bcast(
    comm: "Comm",
    value: Any,
    nbytes: int,
    op: Callable[[Any, Any], Any],
    tag: int,
) -> Op:
    """Allreduce as reduce-to-0 followed by broadcast (any rank count)."""
    combined = yield from reduce(comm, value, nbytes, 0, op, tag)
    return (yield from bcast_binomial(comm, combined, nbytes, 0, tag + 1))


def allreduce_recursive_doubling(
    comm: "Comm",
    value: Any,
    nbytes: int,
    op: Callable[[Any, Any], Any],
    tag: int,
) -> Op:
    """Recursive-doubling allreduce; falls back to reduce+bcast off pow2."""
    size, rank = comm.size, comm.rank
    if size & (size - 1):
        return (yield from allreduce_reduce_bcast(comm, value, nbytes, op, tag))
    accumulated = value
    mask = 1
    while mask < size:
        peer = rank ^ mask
        other = yield Exchange(peer, peer, tag, nbytes, accumulated)
        # Combine in rank order so non-commutative ops are deterministic.
        if peer < rank:
            accumulated = op(other, accumulated)
        else:
            accumulated = op(accumulated, other)
        mask <<= 1
    return accumulated


def gather(comm: "Comm", value: Any, nbytes: int, root: int, tag: int) -> Op:
    """Linear gather: every rank sends to root."""
    size, rank = comm.size, comm.rank
    if rank != root:
        yield from _send(root, tag, nbytes, value)
        return None
    values: list[Any] = [None] * size
    values[root] = value
    for source in range(size):
        if source != root:
            values[source] = yield from _recv(source, tag)
    return values


def scatter(
    comm: "Comm", values: Sequence[Any] | None, nbytes: int, root: int, tag: int
) -> Op:
    """Linear scatter: root sends each rank its slot."""
    size, rank = comm.size, comm.rank
    if rank == root:
        if values is None or len(values) != size:
            raise ConfigurationError(
                f"scatter root needs a sequence of {size} values"
            )
        for dest in range(size):
            if dest != root:
                yield from _send(dest, tag, nbytes, values[dest])
        return values[root]
    return (yield from _recv(root, tag))


def allgather_ring(comm: "Comm", value: Any, nbytes: int, tag: int) -> Op:
    """Ring allgather: ``P-1`` steps, each forwarding one contribution."""
    size, rank = comm.size, comm.rank
    values: list[Any] = [None] * size
    values[rank] = value
    if size == 1:
        return values
    right = (rank + 1) % size
    left = (rank - 1) % size
    carried_index = rank
    for _ in range(size - 1):
        carried_index, carried_value = yield Exchange(
            right, left, tag, nbytes, (carried_index, values[carried_index])
        )
        values[carried_index] = carried_value
    return values


def allgather_recursive_doubling(comm: "Comm", value: Any, nbytes: int, tag: int) -> Op:
    """Recursive-doubling allgather; falls back to ring off powers of two."""
    size, rank = comm.size, comm.rank
    if size & (size - 1):
        return (yield from allgather_ring(comm, value, nbytes, tag))
    values: dict[int, Any] = {rank: value}
    mask = 1
    while mask < size:
        peer = rank ^ mask
        values.update(
            (yield Exchange(peer, peer, tag, nbytes * len(values), dict(values)))
        )
        mask <<= 1
    return [values[i] for i in range(size)]


def alltoall(
    comm: "Comm", values: Sequence[Any] | None, nbytes: int, tag: int
) -> Op:
    """Pairwise-exchange all-to-all: ``P-1`` rounds of sendrecv."""
    size, rank = comm.size, comm.rank
    if values is None:
        values = [None] * size
    if len(values) != size:
        raise ConfigurationError(f"alltoall needs {size} values, got {len(values)}")
    received: list[Any] = [None] * size
    received[rank] = values[rank]
    for round_index in range(1, size):
        peer = rank ^ round_index if (size & (size - 1)) == 0 else (
            (rank + round_index) % size
        )
        source = peer if (size & (size - 1)) == 0 else ((rank - round_index) % size)
        received[source] = yield Exchange(
            peer, source, tag + round_index, nbytes, values[peer]
        )
    return received


@dataclass
class CollectiveAlgorithms:
    """Selected collective implementations (swap members for ablations)."""

    bcast: Callable[..., Op] = field(default=bcast_binomial)
    allreduce: Callable[..., Op] = field(default=allreduce_recursive_doubling)
    allgather: Callable[..., Op] = field(default=allgather_recursive_doubling)

    @staticmethod
    def naive() -> "CollectiveAlgorithms":
        """All-linear baselines for the collective-choice ablation."""
        return CollectiveAlgorithms(
            bcast=bcast_linear,
            allreduce=allreduce_reduce_bcast,
            allgather=allgather_ring,
        )
