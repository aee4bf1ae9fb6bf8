"""The Exchange and Waitall requests against the raw requests they
stand for.

``Comm.sendrecv`` and every round of barrier, recursive-doubling
allreduce, both allgathers and alltoall yield one
:class:`~repro.mpi.requests.Exchange`, and ``Comm.waitall`` one
:class:`~repro.mpi.requests.Waitall`.  :class:`_RawComm` below is the
oracle: it yields the ``TraceMark``/``Irecv``/``Isend``/``Wait``
sequence each of them is equivalent to, one request at a time.
Generated programs run through both must agree bit for bit: times,
energies, trace aggregates, counters and return values; every trace row
and meter interval of an observed run; every fast-forward counter; and
the recorded tape's payload.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.machines import athlon_cluster
from repro.mpi import collectives as coll
from repro.mpi.comm import Comm
from repro.mpi.fastforward import FastForwardConfig
from repro.mpi.requests import ANY_SOURCE, Irecv, Isend, TraceMark, Wait
from repro.mpi.world import World
from repro.obs import RunObserver
from repro.sim.batch import BatchUnsupported, record_tape, tape_to_payload
from repro.workloads.base import CommScheme, Workload, WorkloadSpec

# ----------------------------------------------------------------------
# The oracle: each exchange as the raw requests it stands for.


def _raw_round(dest, source, tag, nbytes, payload=None):
    """A collective round: waits on the send, then the receive."""
    recv_handle = yield Irecv(source, tag)
    send_handle = yield Isend(dest, tag, nbytes, payload)
    yield Wait(send_handle)
    return (yield Wait(recv_handle))


def _raw_barrier(comm, tag):
    size, rank = comm.size, comm.rank
    if size == 1:
        return
    step = 1
    while step < size:
        yield from _raw_round(
            (rank + step) % size, (rank - step) % size, tag, coll.HEADER_BYTES
        )
        step <<= 1


def _raw_allreduce(comm, value, nbytes, op, tag):
    size, rank = comm.size, comm.rank
    if size & (size - 1):
        return (yield from coll.allreduce_reduce_bcast(comm, value, nbytes, op, tag))
    accumulated = value
    mask = 1
    while mask < size:
        peer = rank ^ mask
        other = yield from _raw_round(peer, peer, tag, nbytes, accumulated)
        if peer < rank:
            accumulated = op(other, accumulated)
        else:
            accumulated = op(accumulated, other)
        mask <<= 1
    return accumulated


def _raw_allgather_ring(comm, value, nbytes, tag):
    size, rank = comm.size, comm.rank
    values = [None] * size
    values[rank] = value
    if size == 1:
        return values
    right = (rank + 1) % size
    left = (rank - 1) % size
    carried_index = rank
    for _ in range(size - 1):
        carried_index, carried_value = yield from _raw_round(
            right, left, tag, nbytes, (carried_index, values[carried_index])
        )
        values[carried_index] = carried_value
    return values


def _raw_allgather(comm, value, nbytes, tag):
    size, rank = comm.size, comm.rank
    if size & (size - 1):
        return (yield from _raw_allgather_ring(comm, value, nbytes, tag))
    values = {rank: value}
    mask = 1
    while mask < size:
        peer = rank ^ mask
        values.update(
            (yield from _raw_round(peer, peer, tag, nbytes * len(values), dict(values)))
        )
        mask <<= 1
    return [values[i] for i in range(size)]


def _raw_alltoall(comm, values, nbytes, tag):
    size, rank = comm.size, comm.rank
    if values is None:
        values = [None] * size
    received = [None] * size
    received[rank] = values[rank]
    pow2 = (size & (size - 1)) == 0
    for round_index in range(1, size):
        peer = rank ^ round_index if pow2 else (rank + round_index) % size
        source = peer if pow2 else (rank - round_index) % size
        received[source] = yield from _raw_round(
            peer, source, tag + round_index, nbytes, values[peer]
        )
    return received


class _RawComm(Comm):
    """A communicator that hands the runtime no Exchange request."""

    def __init__(self, rank, size):
        super().__init__(
            rank,
            size,
            coll.CollectiveAlgorithms(
                allreduce=_raw_allreduce, allgather=_raw_allgather
            ),
        )

    def waitall(self, handles):
        """One Wait per handle, in order."""
        results = []
        for handle in handles:
            results.append((yield from self.wait(handle)))
        return results

    def sendrecv(self, dest, source, *, send_bytes, tag=0, payload=None):
        """A traced call: waits on the receive, then the send."""
        yield TraceMark("sendrecv", "begin", send_bytes)
        recv_handle = yield from self.irecv(source, tag=tag)
        send_handle = yield from self.isend(
            dest, nbytes=send_bytes, tag=tag, payload=payload
        )
        value = yield from self.wait(recv_handle)
        yield from self.wait(send_handle)
        yield TraceMark("sendrecv", "end")
        return value

    def barrier(self):
        return (
            yield from self._bracketed(
                "barrier", 0, _raw_barrier(self, self._collective_tag())
            )
        )

    def alltoall(self, values, *, nbytes):
        return (
            yield from self._bracketed(
                "alltoall",
                nbytes,
                _raw_alltoall(self, values, nbytes, self._collective_tag()),
            )
        )


# ----------------------------------------------------------------------
# Generated programs


def _body(comm, phases, iterations):
    """Run ``phases`` ``iterations`` times (under marks when > 1).

    A ``"send"`` phase posts a send, whose receive and wait close the
    iteration, then computes: candidate reducible work that the next
    blocking call banks.  The other point-to-point phases move one
    message along each edge of a permutation: ``"pair"`` posts both
    ends and waits on each, ``"waitall"`` waits on both at once, and
    ``"blocking"`` sends, then receives (eager sends never block).
    """
    rank, size = comm.rank, comm.size
    got = []
    iteration = 0
    while iteration < iterations:
        if iterations > 1:
            skipped = yield from comm.iteration_mark(iteration, iterations)
            if skipped:
                iteration += skipped
                continue
        got = []
        sends = []
        for index, phase in enumerate(phases):
            kind = phase[0]
            if kind == "compute":
                uops, misses = phase[1][rank]
                yield from comm.compute(uops, misses)
            elif kind == "send":
                _, perm, nbytes, work = phase
                handle = yield from comm.isend(
                    perm[rank], nbytes=nbytes, tag=index, payload=(rank, index)
                )
                sends.append((perm.index(rank), index, handle))
                yield from comm.compute(*work[rank])
            elif kind in ("pair", "waitall", "blocking"):
                _, perm, nbytes = phase
                dest, source = perm[rank], perm.index(rank)
                if kind == "blocking":
                    yield from comm.send(
                        dest, nbytes=nbytes, tag=index, payload=(rank, index)
                    )
                    got.append((yield from comm.recv(source, tag=index)))
                    continue
                recv = yield from comm.irecv(source, tag=index)
                send = yield from comm.isend(
                    dest, nbytes=nbytes, tag=index, payload=(rank, index)
                )
                if kind == "waitall":
                    got.append((yield from comm.waitall([recv, send])))
                else:
                    got.append((yield from comm.wait(recv)))
                    yield from comm.wait(send)
            elif kind == "sendrecv":
                _, perm, nbytes, wildcard = phase
                source = ANY_SOURCE if wildcard[rank] else perm.index(rank)
                got.append(
                    (
                        yield from comm.sendrecv(
                            perm[rank],
                            source,
                            send_bytes=nbytes,
                            tag=index,
                            payload=(rank, index),
                        )
                    )
                )
            elif kind == "barrier":
                yield from comm.barrier()
            elif kind == "allreduce":
                got.append((yield from comm.allreduce(rank + 1, nbytes=phase[1])))
            elif kind == "allgather":
                got.append((yield from comm.allgather(rank, nbytes=phase[1])))
            else:
                values = [rank * size + peer for peer in range(size)]
                got.append((yield from comm.alltoall(values, nbytes=phase[1])))
        for source, tag, handle in sends:
            got.append((yield from comm.recv(source, tag=tag)))
            yield from comm.wait(handle)
        iteration += 1
    return got


class _Generated(Workload):
    """A generated program, run through ``Comm`` or the raw oracle."""

    def __init__(self, phases, iterations, *, raw):
        self.phases = phases
        self.iterations = iterations
        self.raw = raw
        self.spec = WorkloadSpec(
            name="Generated",
            iterations=iterations,
            total_uops=1.0e9,
            upm=80.0,
            miss_latency=25e-9,
            serial_fraction=0.0,
            paper_comm_class=CommScheme.CONSTANT,
            description="generated compute, sendrecv and collective phases",
        )

    def program(self, comm):
        if self.raw:
            comm = _RawComm(comm.rank, comm.size)
        return _body(comm, self.phases, self.iterations)


def _link(software_overhead, concurrency):
    """The paper cluster with another link overhead and backplane."""
    base = athlon_cluster()
    link = dataclasses.replace(
        base.link, software_overhead=software_overhead, concurrency=concurrency
    )
    return dataclasses.replace(base, link=link)


@st.composite
def _cases(draw, min_nodes=1, max_nodes=8):
    """(cluster, nodes, gear, phases, iterations) of a generated run."""
    nodes = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    # Few distinct sizes, so exact time ties are common.
    work = st.tuples(
        st.sampled_from((1.0e6, 2.5e7, 4.0e7)), st.sampled_from((0.0, 2.0e5))
    )
    nbytes = st.sampled_from((0, 64, 4096, 150_000))
    phase = st.one_of(
        st.tuples(
            st.just("compute"), st.lists(work, min_size=nodes, max_size=nodes)
        ),
        st.tuples(
            st.just("sendrecv"),
            st.permutations(range(nodes)),
            nbytes,
            # A wildcard anywhere keeps the run off tape, so half the
            # phases have none.
            st.one_of(
                st.just([False] * nodes),
                st.lists(st.booleans(), min_size=nodes, max_size=nodes),
            ),
        ),
        st.tuples(
            st.just("send"),
            st.permutations(range(nodes)),
            nbytes,
            st.lists(work, min_size=nodes, max_size=nodes),
        ),
        st.tuples(
            st.sampled_from(("pair", "waitall", "blocking")),
            st.permutations(range(nodes)),
            nbytes,
        ),
        st.tuples(st.just("barrier")),
        st.tuples(st.just("allreduce"), nbytes),
        st.tuples(st.just("allgather"), nbytes),
        st.tuples(st.just("alltoall"), nbytes),
    )
    phases = draw(st.lists(phase, min_size=1, max_size=6))
    cluster = _link(
        draw(st.sampled_from((0.0, athlon_cluster().link.software_overhead))),
        draw(st.integers(min_value=1, max_value=3)),
    )
    gear = draw(st.sampled_from((1, 4)))
    iterations = draw(st.sampled_from((1, 14)))
    return cluster, nodes, gear, phases, iterations


def _run(cluster, nodes, gear, workload, **kwargs):
    return World(cluster, workload.program, nodes=nodes, gear=gear, **kwargs).run()


def _measured(result):
    """Everything a run measures, as plain values compared exactly."""
    return (
        result.end_time,
        [
            (
                r.finish_time,
                r.energy,
                r.trace.active_time,
                r.trace.reducible_time(),
                len(r.trace),
                dataclasses.astuple(r.counters),
                r.return_value,
                r.final_gear,
            )
            for r in result.ranks
        ],
    )


def _observed(result):
    return [(r.trace.records, r.meter.intervals) for r in result.ranks]


def _tape(cluster, nodes, gear, workload, fast_forward):
    try:
        tape = record_tape(
            cluster, workload, nodes=nodes, gear=gear, fast_forward=fast_forward
        )
    except BatchUnsupported as exc:
        return f"unsupported: {exc}"
    return tape_to_payload(tape)


#: Rank 5 receives from ANY_SOURCE.  Whether rank 4's message has matched
#: by the time rank 5 waits depends on how their tied events order, and
#: changes between iterations; the raw Wait signs that peer, so one
#: fast-forward deviation is counted, and the Exchange must count it too.
_WILDCARD_PEER_CASE = (
    _link(0.0, 1),
    6,
    1,
    [
        ("compute", [(1.0e6, 0.0)] * 6),
        ("sendrecv", [0, 1, 2, 3, 5, 4], 64, [False] * 5 + [True]),
    ],
    14,
)


#: A send and compute, then a sendrecv, whose bracket banks the compute
#: as reducible work: on the tape as in the trace.
_BANKED_CASE = (
    _link(athlon_cluster().link.software_overhead, 2),
    2,
    1,
    [
        ("send", [1, 0], 64, [(2.5e7, 0.0)] * 2),
        ("sendrecv", [1, 0], 64, [False, False]),
    ],
    1,
)


@given(case=_cases())
@example(case=_WILDCARD_PEER_CASE)
@example(case=_BANKED_CASE)
@settings(max_examples=60, deadline=None)
def test_exchange_matches_raw_requests(case):
    cluster, nodes, gear, phases, iterations = case
    ours = _Generated(phases, iterations, raw=False)
    oracle = _Generated(phases, iterations, raw=True)

    plain = _run(cluster, nodes, gear, ours)
    assert _measured(plain) == _measured(_run(cluster, nodes, gear, oracle))

    watched = _run(cluster, nodes, gear, ours, observer=RunObserver())
    reference = _run(cluster, nodes, gear, oracle, observer=RunObserver())
    assert _measured(watched) == _measured(plain)
    assert _observed(watched) == _observed(reference)

    config = FastForwardConfig(max_period=2)
    fast = _run(cluster, nodes, gear, ours, fast_forward=config)
    ref_config = FastForwardConfig(max_period=2)
    ref_fast = _run(cluster, nodes, gear, oracle, fast_forward=ref_config)
    assert fast.fast_forward == ref_fast.fast_forward
    assert _measured(fast) == _measured(ref_fast)

    for fast_forward in (None, FastForwardConfig(max_period=2)):
        assert _tape(cluster, nodes, gear, ours, fast_forward) == _tape(
            cluster, nodes, gear, oracle, fast_forward
        )


def test_generated_programs_reach_fast_forward_jumps():
    # The property above compares fast-forward counters; make sure its
    # program family does jump, so that comparison is not vacuous.
    phases = [
        ("compute", [(2.5e7, 2.0e5)] * 4),
        ("sendrecv", [1, 2, 3, 0], 4096, [False, True, False, False]),
        ("allreduce", 64),
        ("alltoall", 64),
    ]
    cluster = athlon_cluster()
    stats = []
    for raw in (False, True):
        result = _run(
            cluster,
            4,
            1,
            _Generated(phases, 14, raw=raw),
            fast_forward=FastForwardConfig(max_period=2),
        )
        stats.append(result.fast_forward)
    assert stats[0] == stats[1]
    assert stats[0].jumps > 0


@pytest.mark.parametrize("nodes", [1, 2, 3, 5, 8])
def test_each_collective_matches_raw_requests(nodes):
    phases = [
        ("compute", [(1.0e6 * (r + 1), 0.0) for r in range(nodes)]),
        ("barrier",),
        ("allreduce", 64),
        ("allgather", 512),
        ("alltoall", 4096),
        ("sendrecv", list(range(1, nodes)) + [0], 0, [True] * nodes),
    ]
    cluster = athlon_cluster()
    runs = [
        _run(cluster, nodes, 1, _Generated(phases, 1, raw=raw), observer=RunObserver())
        for raw in (False, True)
    ]
    assert _measured(runs[0]) == _measured(runs[1])
    assert _observed(runs[0]) == _observed(runs[1])
    for rank, result in enumerate(runs[0].ranks):
        allreduced, gathered, exchanged, received = result.return_value
        assert allreduced == sum(range(1, nodes + 1))
        assert gathered == list(range(nodes))
        assert exchanged == [peer * nodes + rank for peer in range(nodes)]
        assert received == ((rank - 1) % nodes, 5)
