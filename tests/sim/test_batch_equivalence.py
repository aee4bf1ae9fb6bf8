"""Batch backend equivalence: record/replay vs the event engine.

The contract under test: a gear grid revalued from one recorded tape
(:mod:`repro.sim.batch`) agrees with independent event-engine runs to
1e-9 relative across every workload in the suite, composing with
steady-state fast-forward on the recording; and any certification
failure — a wildcard receive, or a signature deviation during a
recording that fast-forwards — refuses the tape loudly, so the exec
layer's fallback reruns the points on the event engine, bitwise what a
plain sweep produces.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.disk import drpm_disk
from repro.cluster.machines import athlon_cluster
from repro.core.run import gear_sweep, run_workload
from repro.exec import GearSweepTask, sweep
from repro.mpi import FastForwardConfig
from repro.mpi.comm import Comm
from repro.mpi.requests import ANY_SOURCE
from repro.sim.batch import (
    BatchUnsupported,
    ReplayStats,
    _column_measurement,
    _duration_grid,
    _measure_gear,
    _plans_of,
    _rollup_vector,
    _vector_walk,
    batch_gear_grid,
    record_tape,
    replay_grid,
)
from repro.workloads import (
    BT,
    CG,
    EP,
    FT,
    IS,
    LU,
    MG,
    SP,
    CheckpointedStencil,
    Jacobi,
    SyntheticMemoryPressure,
)
from repro.workloads.base import CommScheme, Program, Workload, WorkloadSpec

#: Relative tolerance the equivalence grid asserts (the acceptance bar;
#: observed error stays orders of magnitude below — the replay mirrors
#: the engine's float arithmetic operation for operation).
RTOL = 1e-9

#: The paper cluster's full gear grid (figures 2 and 5 sweep all of it).
ALL_GEARS = (1, 2, 3, 4, 5, 6)


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def _assert_grid_equivalent(
    cluster, workload, *, nodes, gears=ALL_GEARS, fast_forward=None
):
    """Batch grid vs one event run per gear, three quantities each.

    The scalar reference interpreter replays a recording of its own
    (recording is deterministic, so it is the grid's), so this also pins
    the replay's own contract: the vectorized gear-axis walk agrees with
    the scalar reference interpreter at the same tolerance, for every
    workload and gear, and the mode accounting covers the whole grid.
    """
    stats = ReplayStats()
    batch = batch_gear_grid(
        cluster,
        workload,
        nodes=nodes,
        gears=gears,
        fast_forward=fast_forward,
        stats=stats,
    )
    tape = record_tape(
        cluster, workload, nodes=nodes, gear=gears[0], fast_forward=fast_forward
    )
    scalar = replay_grid(tape, list(gears), mode="scalar")
    assert len(batch) == len(gears)
    assert stats.vector_gears + stats.scalar_gears == len(gears)
    for gear, measurement, reference in zip(gears, batch, scalar):
        event = run_workload(
            cluster, workload, nodes=nodes, gear=gear, fast_forward=fast_forward
        )
        assert measurement.gear == gear
        assert _rel(event.time, measurement.time) <= RTOL
        assert _rel(event.energy, measurement.energy) <= RTOL
        assert _rel(event.active_time, measurement.active_time) <= RTOL
        assert reference.gear == gear
        assert _rel(reference.time, measurement.time) <= RTOL
        assert _rel(reference.energy, measurement.energy) <= RTOL
        assert _rel(reference.active_time, measurement.active_time) <= RTOL


class TestEquivalenceGrid:
    """One tape per workload, replayed across the full gear grid."""

    # Scales keep the tier-1 wall clock sane while leaving every
    # workload enough iterations to exercise its communication pattern.
    # CG's ring recurrence rotates its per-iteration signature on more
    # than two ranks, so it runs on 2 (same choice as the ff-eligible
    # validation pack).
    @pytest.mark.parametrize(
        "make,scale,nodes",
        [
            (Jacobi, 0.2, 4),
            (CG, 0.5, 2),
            (EP, 1.0, 4),
            (FT, 2.0, 4),
            (IS, 2.0, 4),
            (LU, 1.0, 4),
            (MG, 1.0, 4),
            (SyntheticMemoryPressure, 0.4, 4),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
    )
    def test_power_of_two_workloads(self, cluster, make, scale, nodes):
        _assert_grid_equivalent(cluster, make(scale), nodes=nodes)

    @pytest.mark.parametrize("make", [BT, SP], ids=lambda w: w.__name__)
    def test_square_grid_workloads(self, cluster, make):
        _assert_grid_equivalent(cluster, make(0.5), nodes=4)

    @pytest.mark.parametrize("disk_speed", [1, 3])
    def test_checkpointed_disk_phases(self, disk_speed):
        # Blocking checkpoint writes and DRPM spindle transitions ride
        # the tape too (disk time is gear-invariant; its excess power is
        # rolled up separately from the CPU terms).  Speed 1 is the
        # initial spindle speed, so only speed 3 records a transition
        # and splits each rank's idle power into phases.
        disk_cluster = athlon_cluster(max_nodes=8, disk=drpm_disk())
        _assert_grid_equivalent(
            disk_cluster,
            CheckpointedStencil(1.0, checkpoint_every=2, disk_speed=disk_speed),
            nodes=4,
        )

    def test_composes_with_fast_forward(self, cluster):
        # The recording itself macro-steps; replicated-window segments
        # are revalued once and weighted by their copy count.
        _assert_grid_equivalent(
            cluster,
            Jacobi(1.0),
            nodes=4,
            fast_forward=FastForwardConfig(max_period=4),
        )

    def test_subset_grids_match_figure5_menus(self, cluster):
        _assert_grid_equivalent(cluster, Jacobi(0.2), nodes=2, gears=(1, 4))

    def test_sweep_curve_matches_event_sweep(self, cluster):
        workload = SyntheticMemoryPressure(0.4)
        event = gear_sweep(cluster, workload, nodes=4)
        (batch,) = sweep(
            [GearSweepTask(cluster, workload, nodes=4)], backend="batch"
        )
        assert batch.workload == event.workload
        assert batch.nodes == event.nodes
        assert [p.gear for p in batch] == [p.gear for p in event]
        for ours, theirs in zip(batch, event):
            assert _rel(ours.time, theirs.time) <= RTOL
            assert _rel(ours.energy, theirs.energy) <= RTOL


class TestVectorizedReplay:
    """Mode accounting and rejection semantics of the gear-axis walk."""

    # Jacobi is the dense steady workload the bench ratchet gates on;
    # the NAS kernels exchange over squares, transposes, key buckets
    # and a multigrid hierarchy, all without queueing on the backplane.
    @pytest.mark.parametrize(
        "make,scale",
        [(Jacobi, 0.2), (BT, 0.5), (SP, 0.5), (FT, 2.0), (IS, 2.0), (MG, 1.0)],
        ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
    )
    def test_grid_is_fully_vectorized(self, cluster, make, scale):
        # Every gear column must come off the vectorized walk: any
        # scalar re-replay or contention verdict here is a regression.
        tape = record_tape(cluster, make(scale), nodes=4, gear=1)
        stats = ReplayStats()
        replay_grid(tape, list(ALL_GEARS), mode="grid", stats=stats)
        assert stats.vector_gears == len(ALL_GEARS)
        assert stats.scalar_gears == 0
        assert stats.fallback_reasons == []

    def test_one_column_grid_skips_the_walk(self, cluster):
        tape = record_tape(cluster, Jacobi(0.2), nodes=4, gear=1)
        stats = ReplayStats()
        replay_grid(tape, [3], stats=stats)
        assert tape._plans is None
        assert stats.scalar_gears == 1
        assert stats.fallback_reasons == ["single_column"]

    @pytest.mark.parametrize(
        "make,scale,nodes",
        [(CG, 0.5, 4), (Jacobi, 0.2, 8)],
        ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
    )
    def test_queued_recording_skips_the_walk(self, cluster, make, scale, nodes):
        # The recording's own column would fail the contention check,
        # which sends the whole grid to the scalar interpreter anyway.
        tape = record_tape(cluster, make(scale), nodes=nodes, gear=1)
        assert tape.recording_queued > 0
        stats = ReplayStats()
        replay_grid(tape, list(ALL_GEARS), stats=stats)
        assert tape._plans is None
        assert stats.scalar_gears == len(ALL_GEARS)
        assert stats.fallback_reasons == [
            f"recording_queued({tape.recording_queued})"
        ]

    def test_unknown_mode_rejected(self, cluster):
        from repro.util.errors import ConfigurationError

        tape = record_tape(cluster, Jacobi(0.2), nodes=2, gear=1)
        with pytest.raises(ConfigurationError, match="replay mode"):
            replay_grid(tape, [1, 2], mode="per-gear")

    @pytest.mark.parametrize("mode", ["grid", "scalar"])
    def test_self_check_miss_rejects_whole_tape(self, cluster, mode):
        # A tape whose recorded totals no longer match its own replay —
        # bitrot, a stale cache entry surviving a model change — must
        # reject in BOTH modes; the vectorized path may never ship
        # numbers the recording gear cannot vouch for.  A grid that omits
        # the recording gear is checked all the same.
        tape = record_tape(cluster, Jacobi(0.2), nodes=4, gear=1)
        tape.recording_energy *= 1.0 + 1e-6
        for gears in (ALL_GEARS, ALL_GEARS[1:]):
            with pytest.raises(BatchUnsupported, match="self-check"):
                replay_grid(tape, list(gears), mode=mode)

    @pytest.mark.parametrize("mode", ["grid", "scalar"])
    def test_absent_recording_gear_is_not_returned_or_counted(self, cluster, mode):
        tape = record_tape(cluster, Jacobi(0.2), nodes=4, gear=1)
        stats = ReplayStats()
        out = replay_grid(tape, list(ALL_GEARS[1:]), mode=mode, stats=stats)
        assert [m.gear for m in out] == list(ALL_GEARS[1:])
        assert stats.vector_gears + stats.scalar_gears == len(ALL_GEARS) - 1


class _MessageRounds(Workload):
    """Rounds of per-rank compute, each followed by a message exchange.

    ``rounds`` holds ``(work, messages)`` pairs: ``work[rank]`` is that
    rank's ``(uops, misses)`` and ``messages`` lists ``(source, dest,
    nbytes)``.  Every rank posts its receives, then its sends, then
    waits on every receive, so any pattern is deadlock-free.  With
    ``wildcard`` every receive takes any source.
    """

    def __init__(self, rounds, *, wildcard: bool = False):
        self.rounds = rounds
        self.wildcard = wildcard
        self.spec = WorkloadSpec(
            name="Exchange",
            iterations=len(rounds),
            total_uops=1.0e9,
            upm=80.0,
            miss_latency=25e-9,
            serial_fraction=0.0,
            paper_comm_class=CommScheme.CONSTANT,
            description="generated compute + point-to-point exchange rounds",
        )

    def program(self, comm: Comm) -> Program:
        rank = comm.rank
        for tag, (work, messages) in enumerate(self.rounds):
            uops, misses = work[rank]
            yield from comm.compute(uops, misses)
            handles = []
            for source, dest, _ in messages:
                if dest == rank:
                    handle = yield from comm.irecv(
                        ANY_SOURCE if self.wildcard else source, tag=tag
                    )
                    handles.append(handle)
            for source, dest, nbytes in messages:
                if source == rank:
                    yield from comm.isend(dest, nbytes=nbytes, tag=tag)
            yield from comm.waitall(handles)
        return None


def _pool_cluster(concurrency: int):
    """The paper cluster with a ``concurrency``-server backplane."""
    base = athlon_cluster()
    return dataclasses.replace(
        base, link=dataclasses.replace(base.link, concurrency=concurrency)
    )


@st.composite
def _exchange_cases(draw):
    nodes = draw(st.integers(min_value=2, max_value=6))
    concurrency = draw(st.integers(min_value=1, max_value=3))
    # Few distinct compute sizes make exact send-time ties common;
    # misses make a rank's compute time scale differently with the
    # gear, so which transfers overlap changes from column to column.
    work = st.tuples(
        st.one_of(
            st.sampled_from((1.0e6, 2.5e7)),
            st.floats(min_value=1.0e6, max_value=3.0e7),
        ),
        st.one_of(
            st.sampled_from((0.0, 2.0e5)),
            st.floats(min_value=0.0, max_value=3.0e5),
        ),
    )
    nbytes = st.one_of(
        st.sampled_from((0, 512, 150_000)),
        st.integers(min_value=0, max_value=200_000),
    )
    rank = st.integers(min_value=0, max_value=nodes - 1)
    rounds = draw(
        st.lists(
            st.tuples(
                st.lists(work, min_size=nodes, max_size=nodes),
                st.lists(st.tuples(rank, rank, nbytes), max_size=8),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return nodes, concurrency, rounds


class TestContentionCheck:
    """The walk's per-column certificate on generated exchange patterns."""

    @given(case=_exchange_cases())
    @settings(max_examples=40, deadline=None)
    def test_certified_columns_match_scalar_and_event(self, case):
        nodes, concurrency, rounds = case
        cluster = _pool_cluster(concurrency)
        workload = _MessageRounds(rounds)
        tape = record_tape(cluster, workload, nodes=nodes, gear=1)
        gears = list(ALL_GEARS)
        # The walk itself, on every tape — queued recordings included,
        # whose walk replay_grid skips.
        dur_grid = _duration_grid(tape, gears)
        finish, phases, contended = _vector_walk(
            tape, _plans_of(tape), dur_grid
        )
        rollup = _rollup_vector(tape, gears, dur_grid, finish, phases)
        events = [
            run_workload(cluster, workload, nodes=nodes, gear=gear)
            for gear in gears
        ]
        for col, gear in enumerate(gears):
            if contended[col]:
                continue
            walked = _column_measurement(tape, gear, rollup, col)
            for reference in (_measure_gear(tape, gear), events[col]):
                assert _rel(walked.time, reference.time) <= RTOL
                assert _rel(walked.energy, reference.energy) <= RTOL
                assert _rel(walked.active_time, reference.active_time) <= RTOL
        # And the public path, whichever way each column went.
        stats = ReplayStats()
        for measurement, event in zip(
            replay_grid(tape, gears, stats=stats), events
        ):
            assert _rel(measurement.time, event.time) <= RTOL
            assert _rel(measurement.energy, event.energy) <= RTOL
        assert stats.vector_gears + stats.scalar_gears == len(gears)

    def test_contended_column_replays_scalar_and_says_so(self):
        # One transfer each way on a one-server backplane.  Rank 0's
        # compute scales with the clock, rank 1's is mostly memory
        # stall, so their sends overlap on the wire only at gear 5.
        rounds = [
            (
                [(2.6e7, 0.0), (2.6e6, 3.0e5)],
                [(0, 1, 23_000), (1, 0, 23_000)],
            )
        ]
        cluster = _pool_cluster(1)
        workload = _MessageRounds(rounds)
        tape = record_tape(cluster, workload, nodes=2, gear=1)
        assert tape.recording_queued == 0
        stats = ReplayStats()
        out = replay_grid(tape, list(ALL_GEARS), stats=stats)
        assert stats.fallback_reasons == ["contention(5)"]
        assert stats.vector_gears == len(ALL_GEARS) - 1
        assert stats.scalar_gears == 1
        for gear, measurement in zip(ALL_GEARS, out):
            event = run_workload(cluster, workload, nodes=2, gear=gear)
            assert _rel(measurement.time, event.time) <= RTOL
            assert _rel(measurement.energy, event.energy) <= RTOL

    def test_wildcard_receive_is_rejected(self):
        rounds = [([(1.0e6, 0.0)] * 3, [(0, 2, 512), (1, 2, 4096)])]
        cluster = _pool_cluster(2)
        workload = _MessageRounds(rounds, wildcard=True)
        with pytest.raises(BatchUnsupported, match="wildcard receive"):
            record_tape(cluster, workload, nodes=3, gear=1)


class _FirstComeServed(Workload):
    """Rank 0 serves whichever of ranks 1 and 2 reports first.

    Rank 1's report follows CPU-bound work, which slows with the gear;
    rank 2's follows memory-bound work, which barely does.  So rank 1
    reports first at the fastest gears and rank 2 at the slower ones,
    and rank 0's own work — long if rank 1 came first, short otherwise
    — depends on the gear through its wildcard receive.
    """

    def __init__(self):
        self.spec = WorkloadSpec(
            name="FirstComeServed",
            iterations=1,
            total_uops=4.5e8,
            upm=80.0,
            miss_latency=25e-9,
            serial_fraction=0.0,
            paper_comm_class=CommScheme.CONSTANT,
            description="first-come-served wildcard receives",
        )

    def program(self, comm: Comm) -> Program:
        if comm.rank == 0:
            first = yield from comm.recv(ANY_SOURCE, tag=0)
            yield from comm.recv(ANY_SOURCE, tag=0)
            yield from comm.compute(4.0e8 if first == 1 else 1.0e6)
        elif comm.rank == 1:
            yield from comm.compute(5.0e7)
            yield from comm.send(0, nbytes=8, tag=0, payload=1)
        else:
            yield from comm.compute(1.0e5, 4.0e5)
            yield from comm.send(0, nbytes=8, tag=0, payload=2)
        return None


class TestWildcardReceivesFallBack:
    """A wildcard receive's match depends on arrival order, which the
    gear changes, so its tape must fall back to the event engine."""

    def test_recording_is_rejected(self):
        with pytest.raises(BatchUnsupported, match="wildcard receive"):
            record_tape(athlon_cluster(), _FirstComeServed(), nodes=3, gear=1)

    def test_exec_fallback_is_bitwise_event(self):
        """The batch sweep's fallback results ARE event results.

        Not 1e-9-close: the fallback literally reruns ``task.run()``, so
        every float must compare equal.  A replay of the gear-1 tape
        would serve rank 1 first at every gear, and so come back several
        times too slow at gears 3-6.
        """
        from repro.exec import RunRecord, sweep
        from repro.exec.tasks import MeasurementTask

        cluster = athlon_cluster()
        tasks = [
            MeasurementTask(cluster, _FirstComeServed(), nodes=3, gear=g)
            for g in ALL_GEARS
        ]
        record = RunRecord()
        batch_results = sweep(tasks, backend="batch", record=record)
        event_results = [task.run() for task in tasks]
        assert record.fallback_points == len(tasks)
        assert "wildcard receive" in record.groups[0].fallback
        for ours, theirs in zip(batch_results, event_results):
            assert ours == theirs


class _DeviatingRing(Workload):
    """A ring workload whose iteration ``deviate_at`` does extra work.

    Every other iteration repeats the same compute + ring-exchange
    signature, so a recording that watches signatures establishes a
    reference pattern, which the perturbed iteration then breaks.  The
    request stream itself is gear-invariant all the same.
    """

    BASE_ITERATIONS = 16

    def __init__(self, *, deviate_at: int, extra: float):
        self.deviate_at = deviate_at
        self.extra = extra
        self.spec = WorkloadSpec(
            name="DeviatingRing",
            iterations=self.BASE_ITERATIONS,
            total_uops=2.0e9,
            upm=80.0,
            miss_latency=25e-9,
            serial_fraction=0.0,
            paper_comm_class=CommScheme.CONSTANT,
            description="uniform ring with one perturbed iteration",
        )

    def program(self, comm: Comm) -> Program:
        size, rank = comm.size, comm.rank
        iterations = self.spec.iterations
        iteration = 0
        while iteration < iterations:
            skipped = yield from comm.iteration_mark(iteration, iterations)
            if skipped:
                iteration += skipped
                continue
            share = self.extra if iteration == self.deviate_at else 1.0
            yield from comm.compute_block(
                self.parallel_block(size, share=share)
            )
            if size > 1:
                right = (rank + 1) % size
                left = (rank - 1) % size
                yield from comm.sendrecv(right, left, send_bytes=4096, tag=7)
            iteration += 1
        return None


class TestDeviationForcesExactFallback:
    """A broken steady pattern never ships through a jumping recording,
    and never stops a plain one."""

    @given(
        deviate_at=st.integers(min_value=4, max_value=14),
        extra=st.sampled_from((0.25, 2.0, 3.0)),
    )
    @settings(max_examples=10, deadline=None)
    def test_recording_deviation_rejects_the_tape(self, deviate_at, extra):
        # The 16-iteration ring is too short to arm the default config
        # (2 * max_period deltas of history), so the recording watches
        # signatures but never jumps: the deviation is seen whatever
        # iteration it falls on.
        config = FastForwardConfig()
        workload = _DeviatingRing(deviate_at=deviate_at, extra=extra)
        with pytest.raises(BatchUnsupported, match="deviation"):
            record_tape(
                athlon_cluster(), workload, nodes=2, gear=1, fast_forward=config
            )

    @given(
        deviate_at=st.integers(min_value=4, max_value=14),
        extra=st.sampled_from((0.25, 2.0, 3.0)),
    )
    @settings(max_examples=10, deadline=None)
    def test_plain_recording_replays_every_gear(self, deviate_at, extra):
        # Periodicity is not the certificate: without a fast-forward
        # config the deviating ring records plainly and replays exactly.
        cluster = athlon_cluster()
        workload = _DeviatingRing(deviate_at=deviate_at, extra=extra)
        tape = record_tape(cluster, workload, nodes=2, gear=1)
        grid = replay_grid(tape, list(ALL_GEARS))
        scalar = replay_grid(tape, list(ALL_GEARS), mode="scalar")
        for gear, walked, reference in zip(ALL_GEARS, grid, scalar):
            event = run_workload(cluster, workload, nodes=2, gear=gear)
            for replayed in (walked, reference):
                assert _rel(event.time, replayed.time) <= RTOL
                assert _rel(event.energy, replayed.energy) <= RTOL
                assert _rel(event.active_time, replayed.active_time) <= RTOL
