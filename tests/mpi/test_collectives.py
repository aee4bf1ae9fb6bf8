"""Collective algorithms: correctness on every size, algorithm variants."""

import pytest

from repro.cluster.machines import athlon_cluster
from repro.mpi.collectives import CollectiveAlgorithms
from repro.mpi.comm import Comm
from repro.mpi.world import World
from repro.obs import RunObserver

SIZES = (1, 2, 3, 4, 5, 6, 7, 8, 10)


def run(program, nodes, algorithms=None, observer=None):
    cluster = athlon_cluster(max(nodes, 10))

    def factory(comm):
        if algorithms is not None:
            comm.algorithms = algorithms
        return program(comm)

    return World(
        cluster, factory, nodes=nodes, gear=1, observer=observer
    ).run()


class TestBcast:
    @pytest.mark.parametrize("nodes", SIZES)
    def test_all_ranks_get_root_value(self, nodes):
        def program(comm):
            value = "payload" if comm.rank == 0 else None
            return (yield from comm.bcast(value, nbytes=64, root=0))

        res = run(program, nodes)
        assert res.return_values() == ["payload"] * nodes

    @pytest.mark.parametrize("root", [0, 1, 2])
    def test_nonzero_root(self, root):
        def program(comm):
            value = comm.rank if comm.rank == root else None
            return (yield from comm.bcast(value, nbytes=8, root=root))

        res = run(program, 4)
        assert res.return_values() == [root] * 4

    def test_linear_variant_same_result(self):
        def program(comm):
            value = 42 if comm.rank == 0 else None
            return (yield from comm.bcast(value, nbytes=500_000, root=0))

        tree = run(program, 8)
        naive = run(program, 8, algorithms=CollectiveAlgorithms.naive())
        assert tree.return_values() == naive.return_values()

    def test_recursive_doubling_allreduce_beats_reduce_bcast(self):
        # Recursive doubling completes in log2(n) paired rounds; the
        # naive reduce+bcast needs two tree traversals (~2x the rounds).
        def program(comm):
            return (yield from comm.allreduce(comm.rank, nbytes=10_000))

        rd = run(program, 8)
        naive = run(program, 8, algorithms=CollectiveAlgorithms.naive())
        assert rd.return_values() == naive.return_values()
        assert rd.end_time < naive.end_time


class TestReduceAllreduce:
    @pytest.mark.parametrize("nodes", SIZES)
    def test_reduce_sum(self, nodes):
        def program(comm):
            return (yield from comm.reduce(comm.rank + 1, nbytes=8, root=0))

        res = run(program, nodes)
        values = res.return_values()
        assert values[0] == nodes * (nodes + 1) // 2
        assert all(v is None for v in values[1:])

    @pytest.mark.parametrize("nodes", SIZES)
    def test_allreduce_sum(self, nodes):
        def program(comm):
            return (yield from comm.allreduce(comm.rank + 1, nbytes=8))

        res = run(program, nodes)
        assert res.return_values() == [nodes * (nodes + 1) // 2] * nodes

    @pytest.mark.parametrize("nodes", (2, 4, 8))
    def test_allreduce_max_operator(self, nodes):
        def program(comm):
            return (yield from comm.allreduce(float(comm.rank), nbytes=8, op=max))

        res = run(program, nodes)
        assert res.return_values() == [float(nodes - 1)] * nodes

    def test_recursive_doubling_matches_reduce_bcast(self):
        def program(comm):
            return (yield from comm.allreduce(comm.rank * 2, nbytes=8))

        rd = run(program, 8)
        rb = run(program, 8, algorithms=CollectiveAlgorithms.naive())
        assert rd.return_values() == rb.return_values()


class TestGatherScatter:
    @pytest.mark.parametrize("nodes", SIZES)
    def test_gather(self, nodes):
        def program(comm):
            return (yield from comm.gather(comm.rank * 3, nbytes=8, root=0))

        res = run(program, nodes)
        assert res.return_values()[0] == [r * 3 for r in range(nodes)]

    @pytest.mark.parametrize("nodes", SIZES)
    def test_scatter(self, nodes):
        def program(comm):
            values = [i * i for i in range(comm.size)] if comm.rank == 0 else None
            return (yield from comm.scatter(values, nbytes=8, root=0))

        res = run(program, nodes)
        assert res.return_values() == [r * r for r in range(nodes)]

    def test_scatter_requires_full_sequence(self):
        def program(comm):
            return (yield from comm.scatter([1], nbytes=8, root=0))

        from repro.util.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run(program, 2)


class TestAllgatherAlltoall:
    @pytest.mark.parametrize("nodes", SIZES)
    def test_allgather(self, nodes):
        def program(comm):
            return (yield from comm.allgather(f"r{comm.rank}", nbytes=16))

        res = run(program, nodes)
        expected = [f"r{r}" for r in range(nodes)]
        assert res.return_values() == [expected] * nodes

    def test_ring_matches_recursive_doubling(self):
        def program(comm):
            return (yield from comm.allgather(comm.rank, nbytes=8))

        rd = run(program, 8)
        ring = run(program, 8, algorithms=CollectiveAlgorithms.naive())
        assert rd.return_values() == ring.return_values()

    @pytest.mark.parametrize("nodes", SIZES)
    def test_alltoall(self, nodes):
        def program(comm):
            outbox = [f"{comm.rank}->{j}" for j in range(comm.size)]
            return (yield from comm.alltoall(outbox, nbytes=8))

        res = run(program, nodes)
        for rank, inbox in enumerate(res.return_values()):
            assert inbox == [f"{j}->{rank}" for j in range(nodes)]


class TestBarrier:
    @pytest.mark.parametrize("nodes", SIZES)
    def test_barrier_synchronizes(self, nodes):
        # Rank 0 computes 1 s before the barrier; everyone must leave the
        # barrier no earlier than rank 0 reached it.
        def program(comm):
            if comm.rank == 0:
                yield from comm.compute(uops=2.6e9)
            yield from comm.barrier()
            return (yield from comm.now())

        res = run(program, nodes)
        exits = res.return_values()
        if nodes > 1:
            assert min(exits) >= 1.0

    def test_barrier_scales_logarithmically(self):
        def program(comm):
            yield from comm.barrier()

        t4 = run(program, 4).end_time
        t8 = run(program, 8).end_time
        # Dissemination: ceil(log2 n) rounds -> 8 nodes ~1.5x of 4, not 2x.
        assert t8 / t4 < 1.9


class TestTracing:
    def test_collective_traced_as_single_call(self):
        def program(comm):
            yield from comm.allreduce(1.0, nbytes=8)

        res = run(program, 4, observer=RunObserver())
        top = [r.op for r in res.ranks[0].trace.top_level()]
        assert top.count("allreduce") == 1
        assert "isend" not in top  # nested under the collective

    def test_nested_records_marked(self):
        def program(comm):
            yield from comm.allreduce(1.0, nbytes=8)

        res = run(program, 4, observer=RunObserver())
        nested_ops = {r.op for r in res.ranks[0].trace.records if r.nested}
        assert "isend" in nested_ops
