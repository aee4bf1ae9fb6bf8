"""Batch backend equivalence: record/replay vs the event engine.

The contract under test: a gear grid revalued from one recorded tape
(:mod:`repro.sim.batch`) agrees with independent event-engine runs to
1e-9 relative across every workload in the suite, composing with
steady-state fast-forward on the recording; and any certification
failure — a signature deviation during the recording, for instance —
refuses the tape loudly, so the exec layer's fallback reruns the points
on the event engine, bitwise what a plain sweep produces.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.disk import drpm_disk
from repro.cluster.machines import athlon_cluster
from repro.core.run import gear_sweep, run_workload
from repro.mpi import FastForwardConfig
from repro.mpi.comm import Comm
from repro.sim.batch import (
    BatchUnsupported,
    ReplayStats,
    batch_gear_grid,
    batch_gear_sweep,
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

    One recording backs both replay modes, so this also pins the
    tentpole's own contract: the vectorized gear-axis walk agrees with
    the scalar reference interpreter at the same tolerance, for every
    workload and gear, and the mode accounting covers the whole grid.
    """
    tape = record_tape(
        cluster, workload, nodes=nodes, gear=gears[0], fast_forward=fast_forward
    )
    stats = ReplayStats()
    batch = batch_gear_grid(
        cluster,
        workload,
        nodes=nodes,
        gears=gears,
        replay_mode="grid",
        stats=stats,
        tape=tape,
    )
    scalar = batch_gear_grid(
        cluster, workload, nodes=nodes, gears=gears, replay_mode="scalar", tape=tape
    )
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

    def test_checkpointed_disk_phases(self):
        # Blocking checkpoint writes and DRPM spindle transitions ride
        # the tape too (disk time is gear-invariant; its excess power is
        # rolled up separately from the CPU terms).
        disk_cluster = athlon_cluster(max_nodes=8, disk=drpm_disk())
        _assert_grid_equivalent(
            disk_cluster,
            CheckpointedStencil(1.0, checkpoint_every=2),
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
        batch = batch_gear_sweep(cluster, workload, nodes=4)
        assert batch.workload == event.workload
        assert batch.nodes == event.nodes
        assert [p.gear for p in batch] == [p.gear for p in event]
        for ours, theirs in zip(batch, event):
            assert _rel(ours.time, theirs.time) <= RTOL
            assert _rel(ours.energy, theirs.energy) <= RTOL


class TestVectorizedReplay:
    """Mode accounting and rejection semantics of the gear-axis walk."""

    def test_jacobi_grid_is_fully_vectorized(self, cluster):
        # The dense steady workload the bench ratchet gates on: every
        # gear column must come off the vectorized walk — any scalar
        # re-replay or divergence guard firing here is a regression.
        tape = record_tape(cluster, Jacobi(0.2), nodes=4, gear=1)
        stats = ReplayStats()
        replay_grid(tape, list(ALL_GEARS), mode="grid", stats=stats)
        assert stats.vector_gears == len(ALL_GEARS)
        assert stats.scalar_gears == 0
        assert stats.divergent_gears == 0
        assert stats.fallback_reasons == []

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


class _DeviatingRing(Workload):
    """A ring workload whose iteration ``deviate_at`` does extra work.

    Every other iteration repeats the same compute + ring-exchange
    signature, so the recording's observe-only fast-forward establishes
    a reference pattern — which the perturbed iteration then breaks,
    registering a signature deviation that must reject the tape.
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
    """A broken steady pattern must never ship through the tape."""

    @given(
        deviate_at=st.integers(min_value=4, max_value=14),
        extra=st.sampled_from((0.25, 2.0, 3.0)),
    )
    @settings(max_examples=10, deadline=None)
    def test_recording_deviation_rejects_the_tape(self, deviate_at, extra):
        cluster = athlon_cluster()
        workload = _DeviatingRing(deviate_at=deviate_at, extra=extra)
        with pytest.raises(BatchUnsupported, match="deviation"):
            record_tape(cluster, workload, nodes=2, gear=1)

    @given(
        deviate_at=st.integers(min_value=4, max_value=14),
        extra=st.sampled_from((0.25, 2.0)),
    )
    @settings(max_examples=6, deadline=None)
    def test_exec_fallback_is_bitwise_event(self, deviate_at, extra):
        """The batch sweep's fallback results ARE event results.

        Not 1e-9-close: the fallback literally reruns ``task.run()``, so
        every float must compare equal.
        """
        from repro.exec.batch_sweep import BatchReport, batch_sweep
        from repro.exec.tasks import MeasurementTask

        cluster = athlon_cluster()
        workload = _DeviatingRing(deviate_at=deviate_at, extra=extra)
        tasks = [
            MeasurementTask(cluster, workload, nodes=2, gear=g)
            for g in (1, 3, 6)
        ]
        report = BatchReport()
        batch_results = batch_sweep(tasks, report=report)
        event_results = [task.run() for task in tasks]
        assert report.fallbacks, "the deviating group must be logged"
        assert report.fallback_points == len(tasks)
        assert "deviation" in report.fallbacks[0].reason
        for ours, theirs in zip(batch_results, event_results):
            assert ours.time == theirs.time
            assert ours.energy == theirs.energy
            assert ours.active_time == theirs.active_time
