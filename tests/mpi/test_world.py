"""The World interpreter: message semantics, accounting, deadlocks."""

import gc
import weakref

import pytest

from repro.cluster.machines import athlon_cluster
from repro.mpi.comm import COLLECTIVE_TAG_BASE
from repro.mpi.requests import ANY_SOURCE, ANY_TAG
from repro.mpi.fastforward import FastForwardConfig
from repro.mpi.world import World
from repro.policy import IdleLowPolicy
from repro.util.errors import ConfigurationError, DeadlockError, SimulationError


def run(program, nodes=2, gear=1, cluster=None):
    return World(cluster or athlon_cluster(), program, nodes=nodes, gear=gear).run()


class TestPointToPoint:
    def test_payload_delivery(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1, nbytes=64, payload={"x": 7})
            else:
                return (yield from comm.recv(0))

        res = run(program)
        assert res.return_values()[1] == {"x": 7}

    def test_message_time_has_latency_and_bandwidth(self):
        cluster = athlon_cluster()

        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1, nbytes=1_000_000)
            else:
                yield from comm.recv(0)

        res = run(program, cluster=cluster)
        link = cluster.link
        wire = link.latency + 1_000_000 / link.bandwidth
        expected = 2 * link.software_overhead + wire
        assert res.end_time == pytest.approx(expected, rel=0.01)

    def test_send_before_recv_buffers(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1, nbytes=8, payload="early")
            else:
                yield from comm.compute(uops=1e9)  # receiver busy first
                return (yield from comm.recv(0))

        res = run(program)
        assert res.return_values()[1] == "early"

    def test_recv_before_send_blocks_until_arrival(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.compute(uops=2.6e9)  # 1 s at gear 1
                yield from comm.send(1, nbytes=8, payload="late")
            else:
                return (yield from comm.recv(0))

        res = run(program)
        assert res.return_values()[1] == "late"
        assert res.end_time > 1.0

    def test_tag_matching(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1, nbytes=8, tag=7, payload="seven")
                yield from comm.send(1, nbytes=8, tag=9, payload="nine")
            else:
                nine = yield from comm.recv(0, tag=9)
                seven = yield from comm.recv(0, tag=7)
                return (nine, seven)

        res = run(program)
        assert res.return_values()[1] == ("nine", "seven")

    def test_fifo_order_same_tag(self):
        def program(comm):
            if comm.rank == 0:
                for i in range(5):
                    yield from comm.send(1, nbytes=8, payload=i)
            else:
                got = []
                for _ in range(5):
                    got.append((yield from comm.recv(0)))
                return got

        res = run(program)
        assert res.return_values()[1] == [0, 1, 2, 3, 4]

    def test_wildcard_source_and_tag(self):
        def program(comm):
            if comm.rank == 2:
                a = yield from comm.recv(ANY_SOURCE, tag=ANY_TAG)
                b = yield from comm.recv(ANY_SOURCE, tag=ANY_TAG)
                return sorted([a, b])
            yield from comm.send(2, nbytes=8, tag=comm.rank, payload=comm.rank)

        res = run(program, nodes=3)
        assert res.return_values()[2] == [0, 1]

    def test_self_send_is_memcpy_fast(self):
        def program(comm):
            handle = yield from comm.isend(comm.rank, nbytes=1_000_000, payload="me")
            got = yield from comm.recv(comm.rank)
            yield from comm.wait(handle)
            return got

        res = run(program, nodes=1)
        assert res.return_values()[0] == "me"
        # Memcpy at GB/s, not 100 Mb/s: far under a millisecond.
        assert res.end_time < 2e-3

    def test_invalid_destination_rejected(self):
        def program(comm):
            yield from comm.send(5, nbytes=8)

        with pytest.raises(SimulationError):
            run(program, nodes=2)

    @pytest.mark.parametrize(
        "dest, source, message",
        [
            (1, 5, "rank 0 receives from invalid rank 5"),
            (5, 1, "rank 0 sends to invalid rank 5"),
            (-1, 1, "rank 0 sends to invalid rank -1"),
            # The receive is checked first.
            (5, 7, "rank 0 receives from invalid rank 7"),
        ],
    )
    def test_sendrecv_invalid_rank_rejected(self, dest, source, message):
        def program(comm):
            yield from comm.sendrecv(dest, source, send_bytes=8)

        with pytest.raises(SimulationError, match=f"^{message}$"):
            run(program, nodes=2)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"send_bytes": -1}, r"nbytes must be >= 0, got -1"),
            (
                {"send_bytes": 8, "tag": COLLECTIVE_TAG_BASE},
                rf"user tags must be in \[0, {COLLECTIVE_TAG_BASE}\), "
                rf"got {COLLECTIVE_TAG_BASE}",
            ),
            (
                {"send_bytes": 8, "tag": -1},
                rf"user tags must be in \[0, {COLLECTIVE_TAG_BASE}\), got -1",
            ),
        ],
    )
    def test_sendrecv_bad_size_or_tag_rejected(self, kwargs, message):
        def program(comm):
            yield from comm.sendrecv(1 - comm.rank, 1 - comm.rank, **kwargs)

        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            run(program, nodes=2)


class TestAccounting:
    def test_energy_positive_and_time_consistent(self):
        def program(comm):
            yield from comm.compute(uops=1e9)

        res = run(program, nodes=2)
        assert res.total_energy > 0
        assert res.active_time <= res.end_time

    def test_early_finisher_billed_idle_until_end(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.compute(uops=5.2e9)  # 2 s
            else:
                yield from comm.compute(uops=2.6e8)  # 0.1 s

        res = run(program, nodes=2)
        meters = {r.rank: r.meter for r in res.ranks}
        # Rank 1's meter must cover the whole run, not just its 0.1 s.
        assert meters[1].duration == pytest.approx(res.end_time)

    def test_counters_track_compute_only(self):
        def program(comm):
            yield from comm.compute(uops=1000.0, l2_misses=10.0)
            yield from comm.elapse(0.5)

        res = run(program, nodes=1)
        bank = res.ranks[0].counters
        assert bank.uops == 1000.0
        assert bank.l2_misses == 10.0

    def test_lower_gear_saves_energy_for_memory_bound(self):
        # Memory-bound work at a slower gear consumes less energy.
        def program(comm):
            yield from comm.compute(uops=1e8, l2_misses=1e7)

        fast = run(program, nodes=1, gear=1)
        slow = run(program, nodes=1, gear=5)
        assert slow.total_energy < fast.total_energy
        assert slow.end_time > fast.end_time

    def test_active_time_is_max_over_ranks(self):
        def program(comm):
            yield from comm.compute(uops=2.6e9 * (comm.rank + 1))

        res = run(program, nodes=2)
        assert res.active_time == pytest.approx(2.0, rel=0.01)


class TestGearControl:
    def test_set_gear_mid_program(self):
        def program(comm):
            yield from comm.compute(uops=2.6e9)
            yield from comm.set_gear(6)
            yield from comm.compute(uops=2.6e9)

        res = run(program, nodes=1)
        assert res.end_time == pytest.approx(1.0 + 2.5, rel=0.01)
        assert res.ranks[0].final_gear == 6

    def test_per_rank_gear_vector(self):
        def program(comm):
            yield from comm.compute(uops=2.6e9)

        res = World(
            athlon_cluster(), program, nodes=2, gear=[1, 6]
        ).run()
        finishes = {r.rank: r.finish_time for r in res.ranks}
        assert finishes[1] == pytest.approx(finishes[0] * 2.5, rel=0.01)

    def test_gear_vector_length_checked(self):
        def program(comm):
            yield from comm.compute(uops=1.0)

        with pytest.raises(ConfigurationError):
            World(athlon_cluster(), program, nodes=3, gear=[1, 2])

    def test_non_power_scalable_cluster_rejects_gear(self):
        from repro.cluster.machines import reference_cluster

        def program(comm):
            yield from comm.compute(uops=1.0)

        with pytest.raises(ConfigurationError):
            World(reference_cluster(), program, nodes=2, gear=2)


class TestDeadlocks:
    def test_recv_without_send_deadlocks(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.recv(1)
            else:
                yield from comm.compute(uops=1e6)

        with pytest.raises(DeadlockError) as err:
            run(program)
        assert str(err.value) == (
            "simulation deadlocked: rank 0 blocked on wait_recv(peer=1, tag=-1)"
        )

    def test_second_resume_for_a_blocked_rank_rejected(self):
        def program(comm):
            yield from comm.elapse(1.0)

        w = World(athlon_cluster(), program, nodes=1, gear=1)
        rt = w._runtimes[0]
        # Mid-elapse the rank is blocked with its wake already armed.
        w.engine.schedule(0.5, lambda: w._resume_later(rt, 0.75))
        with pytest.raises(SimulationError, match="already has a resume pending"):
            w.run()

    def test_finished_world_is_freed_without_gc(self):
        def program(comm):
            yield from comm.sendrecv(
                (comm.rank + 1) % comm.size,
                (comm.rank - 1) % comm.size,
                send_bytes=64,
            )
            yield from comm.compute(uops=1e6)
            yield from comm.barrier()
            yield from comm.allreduce(comm.rank, nbytes=8)
            yield from comm.allgather(comm.rank, nbytes=8)
            yield from comm.alltoall(list(range(comm.size)), nbytes=8)

        gc.disable()
        try:
            for nodes in (2, 3):
                w = World(athlon_cluster(), program, nodes=nodes, gear=1)
                w.run()
                alive = weakref.ref(w)
                del w
                assert alive() is None
        finally:
            gc.enable()

    def test_sendrecv_without_partner_deadlocks(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.sendrecv(1, 1, send_bytes=64, tag=7)
            else:
                yield from comm.compute(uops=1e6)

        with pytest.raises(DeadlockError) as err:
            run(program)
        assert str(err.value) == (
            "simulation deadlocked: rank 0 blocked on wait_recv(peer=1, tag=7)"
        )

    def test_waitall_without_partner_deadlocks(self):
        def program(comm):
            if comm.rank == 0:
                recv = yield from comm.irecv(1, tag=3)
                send = yield from comm.isend(1, nbytes=64, tag=3)
                yield from comm.waitall([send, recv])
            else:
                yield from comm.compute(uops=1e6)

        with pytest.raises(DeadlockError) as err:
            run(program)
        assert str(err.value) == (
            "simulation deadlocked: rank 0 blocked on wait_recv(peer=1, tag=3)"
        )

    @pytest.mark.parametrize("call", ["sendrecv", "waitall"])
    def test_governed_rank_reports_its_handle(self, call):
        """The gear governor's brackets block on the same handle."""

        def program(comm):
            if comm.rank == 1:
                yield from comm.compute(uops=1e6)
            elif call == "sendrecv":
                yield from comm.sendrecv(1, 1, send_bytes=64, tag=7)
            else:
                recv = yield from comm.irecv(1, tag=7)
                yield from comm.waitall([recv])

        cluster = athlon_cluster()
        world = World(
            cluster,
            program,
            nodes=2,
            policies=IdleLowPolicy().prepare(cluster, 2),
        )
        with pytest.raises(DeadlockError) as err:
            world.run()
        assert str(err.value) == (
            "simulation deadlocked: rank 0 blocked on wait_recv(peer=1, tag=7)"
        )

    def test_rank_parked_at_a_jump_vote_reports_fast_forward(self):
        def program(stuck_in):
            def ranks(comm):
                iteration, total = 0, 40
                while iteration < total:
                    skipped = yield from comm.iteration_mark(iteration, total)
                    if skipped:
                        iteration += skipped
                        continue
                    yield from comm.compute(uops=1e6)
                    yield from comm.allreduce(1, nbytes=8)
                    if iteration == stuck_in and comm.rank == 1:
                        yield from comm.recv(0, tag=99)
                    iteration += 1

            return ranks

        cluster = athlon_cluster()
        config = FastForwardConfig(max_period=1)
        steady = World(cluster, program(None), nodes=2, fast_forward=config)
        steady.run()
        # The mark the ranks voted at; rank 1 now blocks for good in the
        # iteration before it, after rank 0 has left for the vote.
        voted_at = steady._ff.jump_log[0][1]
        world = World(
            cluster, program(voted_at - 1), nodes=2, fast_forward=config
        )
        with pytest.raises(DeadlockError) as err:
            world.run()
        assert str(err.value) == (
            "simulation deadlocked: rank 0 blocked on fast-forward; "
            "rank 1 blocked on wait_recv(peer=0, tag=99)"
        )

    def test_allreduce_round_without_partner_deadlocks(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.allreduce(1, nbytes=8)
            else:
                yield from comm.compute(uops=1e6)

        with pytest.raises(DeadlockError) as err:
            run(program)
        assert str(err.value) == (
            "simulation deadlocked: rank 0 blocked on "
            f"wait_recv(peer=1, tag={COLLECTIVE_TAG_BASE + 1})"
        )

    def test_second_resume_inside_an_exchange_rejected(self):
        def program(comm):
            if comm.rank == 1:
                yield from comm.compute(uops=1e8)
            yield from comm.sendrecv(1 - comm.rank, 1 - comm.rank, send_bytes=8)

        w = World(athlon_cluster(), program, nodes=2, gear=1)
        rt = w._runtimes[0]
        # Rank 0 waits on its receive until rank 1 has computed; a wake
        # armed meanwhile collides with the one the message brings.
        w.engine.schedule(1e-3, lambda: w._resume_later(rt, 1.0))
        with pytest.raises(SimulationError, match="already has a resume pending"):
            w.run()

    def test_world_runs_once(self):
        def program(comm):
            yield from comm.compute(uops=1.0)

        w = World(athlon_cluster(), program, nodes=1, gear=1)
        w.run()
        with pytest.raises(SimulationError):
            w.run()

    def test_program_exception_propagates(self):
        def program(comm):
            yield from comm.compute(uops=1.0)
            raise RuntimeError("segfault")

        with pytest.raises(RuntimeError):
            run(program, nodes=1)

    def test_rejects_non_generator_program(self):
        with pytest.raises(
            SimulationError, match="rank 0 program must be a generator, got list"
        ):
            World(athlon_cluster(), lambda comm: [1, 2], nodes=1)


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        from repro.workloads.nas import MG

        w = MG(scale=0.1)
        a = run(w.program, nodes=4)
        b = run(w.program, nodes=4)
        assert a.end_time == b.end_time
        assert a.total_energy == b.total_energy


class TestMatchingIndex:
    """Edge cases of the (source, tag)-indexed message matching.

    Matching is bucketed by (source, tag) with wildcard buckets resolved
    by comparing queue heads; these tests pin the MPI-mandated global
    orders — earliest-posted receive, earliest-sent message, FIFO per
    pair — across bucket boundaries.
    """

    def test_earliest_posted_wildcard_beats_later_specific(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1, nbytes=8, tag=5, payload="first")
                yield from comm.send(1, nbytes=8, tag=5, payload="second")
            else:
                h_any = yield from comm.irecv()  # posted first
                h_exact = yield from comm.irecv(0, tag=5)  # posted second
                got_any = yield from comm.wait(h_any)
                got_exact = yield from comm.wait(h_exact)
                return (got_any, got_exact)

        res = run(program)
        assert res.return_values()[1] == ("first", "second")

    def test_earliest_posted_specific_beats_later_wildcard(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.compute(uops=1e9)  # receives post first
                yield from comm.send(1, nbytes=8, tag=5, payload="first")
                yield from comm.send(1, nbytes=8, tag=5, payload="second")
            else:
                h_exact = yield from comm.irecv(0, tag=5)  # posted first
                h_any = yield from comm.irecv()  # posted second
                got_exact = yield from comm.wait(h_exact)
                got_any = yield from comm.wait(h_any)
                return (got_exact, got_any)

        res = run(program)
        assert res.return_values()[1] == ("first", "second")

    def test_fifo_within_each_source_tag_pair(self):
        def program(comm):
            if comm.rank == 0:
                for tag, payload in ((1, "a1"), (2, "b1"), (1, "a2"), (2, "b2")):
                    yield from comm.send(1, nbytes=8, tag=tag, payload=payload)
            else:
                yield from comm.compute(uops=5e9)  # let everything buffer
                first_b = yield from comm.recv(0, tag=2)
                first_a = yield from comm.recv(0, tag=1)
                second_b = yield from comm.recv(0, tag=2)
                second_a = yield from comm.recv(0, tag=1)
                return (first_a, first_b, second_a, second_b)

        res = run(program)
        assert res.return_values()[1] == ("a1", "b1", "a2", "b2")

    def test_any_source_takes_earliest_sent_across_sources(self):
        def program(comm):
            if comm.rank == 1:
                yield from comm.send(0, nbytes=8, tag=3, payload="from1")
            elif comm.rank == 2:
                yield from comm.compute(uops=1e8)  # sends strictly later
                yield from comm.send(0, nbytes=8, tag=3, payload="from2")
            else:
                yield from comm.compute(uops=5e9)  # both messages buffer
                first = yield from comm.recv(tag=3)
                second = yield from comm.recv(tag=3)
                return (first, second)

        res = run(program, nodes=3)
        assert res.return_values()[0] == ("from1", "from2")

    def test_any_tag_takes_earliest_sent_across_tags(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1, nbytes=8, tag=7, payload="older")
                yield from comm.send(1, nbytes=8, tag=3, payload="newer")
            else:
                yield from comm.compute(uops=5e9)  # both messages buffer
                first = yield from comm.recv(0)
                second = yield from comm.recv(0)
                return (first, second)

        res = run(program)
        assert res.return_values()[1] == ("older", "newer")

    def test_specific_source_skips_other_sources_buffered_messages(self):
        def program(comm):
            if comm.rank == 1:
                yield from comm.send(0, nbytes=8, payload="from1")
            elif comm.rank == 2:
                yield from comm.compute(uops=2e9)
                yield from comm.send(0, nbytes=8, payload="from2")
            else:
                got2 = yield from comm.recv(2)  # must not take rank 1's
                got1 = yield from comm.recv(1)
                return (got1, got2)

        res = run(program, nodes=3)
        assert res.return_values()[0] == ("from1", "from2")

    def test_unmatched_tag_still_deadlocks(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.isend(1, nbytes=8, tag=1)
            else:
                yield from comm.recv(0, tag=2)

        with pytest.raises(DeadlockError) as err:
            run(program)
        assert str(err.value) == (
            "simulation deadlocked: rank 1 blocked on wait_recv(peer=0, tag=2)"
        )
