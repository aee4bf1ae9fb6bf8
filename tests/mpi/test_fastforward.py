"""Steady-state fast-forward: equivalence, safety, and accounting.

The contract under test: with a :class:`FastForwardConfig` attached, a
mark-declaring workload's times and energies agree with the full
event-driven simulation to the configured tolerance, and any observed
deviation from the steady pattern cleanly disables jumping, falling back
to exact event-by-event execution.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.run import run_workload
from repro.mpi import FastForwardConfig, FastForwardStats, World, fastforward
from repro.util.errors import ConfigurationError
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

#: Relative tolerance the equivalence grid asserts (matches the
#: detector's DELTA_RTOL; accumulated float error stays far below this).
RTOL = 1e-9

#: Small limit-cycle bound so jumps engage within full-scale runs
#: (engagement needs about 2 * max_period + 3 iterations of history).
FF = FastForwardConfig(max_period=8)


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def _assert_equivalent(cluster, workload, *, nodes, gear, config=FF, expect_jumps=True):
    full = run_workload(cluster, workload, nodes=nodes, gear=gear)
    fast = run_workload(
        cluster, workload, nodes=nodes, gear=gear, fast_forward=config
    )
    assert _rel(full.time, fast.time) <= RTOL
    assert _rel(full.energy, fast.energy) <= RTOL
    assert _rel(full.active_time, fast.active_time) <= RTOL
    stats = fast.result.fast_forward
    assert stats is not None
    if expect_jumps:
        assert stats.jumps >= 1
        assert stats.skipped_iterations > 0
    return full, fast


class TestConfig:
    # The id is the one this case had when the config carried five
    # knobs (bad0-bad3 validated the fields that are now constants).
    @pytest.mark.parametrize("bad", [pytest.param({"max_period": 0}, id="bad4")])
    def test_invalid_knobs_raise(self, bad):
        with pytest.raises(ConfigurationError):
            FastForwardConfig(**bad)

    def test_describe_lists_knobs_only(self):
        description = FastForwardConfig().describe()
        assert description == {"max_period": 16}

    def test_stats_merge_adds_counters(self):
        total = FastForwardStats()
        total.merge(FastForwardStats(marks=2, jumps=1, skipped_iterations=40))
        total.merge(FastForwardStats(marks=3, deviations=1, vetoed_rounds=1))
        assert total.marks == 5
        assert total.jumps == 1
        assert total.skipped_iterations == 40
        assert total.deviations == 1
        assert total.vetoed_rounds == 1


class TestEquivalenceGrid:
    """Full vs. fast-forwarded runs across the workload suite."""

    # Scales chosen so every workload crosses the ~2 * max_period + 3
    # iteration engagement threshold (FT runs 6 iterations at scale 1,
    # LU marks 5-iteration macro-units, ...).
    @pytest.mark.parametrize(
        "make,scale",
        [
            (Jacobi, 1.0),
            (CG, 1.0),
            (EP, 3.0),
            (FT, 8.0),
            (IS, 5.0),
            (LU, 4.0),
            (MG, 2.5),
            (SyntheticMemoryPressure, 1.0),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
    )
    @pytest.mark.parametrize("gear", [1, 3])
    def test_power_of_two_workloads(self, cluster, make, scale, gear):
        _assert_equivalent(cluster, make(scale), nodes=4, gear=gear)

    @pytest.mark.parametrize("make", [BT, SP], ids=lambda w: w.__name__)
    def test_square_grid_workloads(self, cluster, make):
        _assert_equivalent(cluster, make(), nodes=4, gear=2)

    def test_checkpointed_macro_units(self):
        # Marks sit on checkpoint_every-sized macro-units, so the
        # periodic disk phase is part of the repeating signature.
        from repro.cluster.disk import drpm_disk
        from repro.cluster.machines import athlon_cluster

        disk_cluster = athlon_cluster(disk=drpm_disk())
        # 90 iterations in 2-iteration macro-units = 45 marks, enough
        # history for the detector to engage.
        workload = CheckpointedStencil(1.5, checkpoint_every=2)
        _assert_equivalent(disk_cluster, workload, nodes=4, gear=1)

    def test_cg_limit_cycle_eight_ranks(self, cluster):
        # CG's all-pairs exchange settles into a period-(n-1) limit
        # cycle in mark times; the detector must find it, not bail.
        _assert_equivalent(cluster, CG(), nodes=8, gear=2)

    def test_single_rank_jumps_inline(self, cluster):
        _assert_equivalent(cluster, Jacobi(), nodes=1, gear=2)

    def test_short_run_never_jumps_and_is_bit_exact(self, cluster):
        # Below the 2 * max_period engagement threshold fast-forward
        # stays armed-never-fired: the runs must be identical, not just
        # within tolerance.
        full, fast = _assert_equivalent(
            cluster, Jacobi(scale=0.1), nodes=4, gear=1, expect_jumps=False
        )
        assert fast.result.fast_forward.jumps == 0
        assert fast.time == full.time
        assert fast.energy == full.energy

    def test_aggregate_ledger_accumulates_across_runs(self, cluster):
        # The config keeps no ledger: each run reports its own stats,
        # and an executor's record sums those of every run it returns.
        from repro.exec import Executor, MeasurementTask

        config = FastForwardConfig(max_period=8)
        executor = Executor(fast_forward=config)
        per_run = []
        for gear in (1, 2):
            task = MeasurementTask(cluster, Jacobi(), nodes=2, gear=gear)
            executor.run([task])
            per_run.append(
                run_workload(
                    cluster, Jacobi(), nodes=2, gear=gear, fast_forward=config
                ).result.fast_forward
            )
        assert all(stats.jumps >= 1 for stats in per_run)
        ledger = executor.record.fast_forward()
        assert ledger.jumps == sum(stats.jumps for stats in per_run) >= 2
        assert ledger.skipped_iterations == sum(
            stats.skipped_iterations for stats in per_run
        ) > 0


def _steady_program(iterations, shift_at=None, shift_gear=2):
    """A halo-free iterative kernel, optionally gear-shifting once.

    The one-shot :meth:`set_gear` makes iteration ``shift_at``'s
    signature differ from the reference — the deviation the fast-forward
    layer must notice and permanently disable jumping for.
    """

    def program(comm):
        value = 1.0 + comm.rank
        i = 0
        while i < iterations:
            skipped = yield from comm.iteration_mark(i, iterations)
            if skipped:
                i += skipped
                continue
            if shift_at is not None and i == shift_at:
                yield from comm.set_gear(shift_gear)
            yield from comm.compute(2e6, 1e4)
            if comm.size > 1:
                value = yield from comm.allreduce(value, nbytes=8)
            i += 1
        return value

    return program


def _run_world(cluster, program, *, nodes, config=None):
    world = World(cluster, program, nodes=nodes, gear=1, fast_forward=config)
    return world.run()


class TestDeviationSafety:
    # max_period=2 keeps the arming threshold low (window of 4 deltas),
    # so shifts in [2, 5] are always observed before any jump can arm.
    CONFIG_KNOBS = dict(max_period=2)
    ITERATIONS = 30

    @settings(max_examples=8, deadline=None)
    @given(shift_at=st.integers(min_value=2, max_value=5), shift_gear=st.sampled_from([2, 3]))
    def test_observed_deviation_disables_jumping_exactly(
        self, cluster, shift_at, shift_gear
    ):
        program = _steady_program(
            self.ITERATIONS, shift_at=shift_at, shift_gear=shift_gear
        )
        full = _run_world(cluster, program, nodes=2)
        fast = _run_world(
            cluster,
            program,
            nodes=2,
            config=FastForwardConfig(**self.CONFIG_KNOBS),
        )
        # A deviation before arming means no jump ever fires and the
        # runs are bitwise identical, not merely within tolerance.
        assert fast.fast_forward.deviations >= 1
        assert fast.fast_forward.jumps == 0
        assert fast.elapsed == full.elapsed
        assert fast.total_energy == full.total_energy

    def test_warmup_shift_still_jumps(self, cluster):
        # A shift inside the warmup iteration never enters the reference
        # signature: the post-shift pattern is steady, so jumps engage
        # and both runs follow the same (shifted) trajectory.
        program = _steady_program(self.ITERATIONS, shift_at=0)
        full = _run_world(cluster, program, nodes=2)
        fast = _run_world(
            cluster,
            program,
            nodes=2,
            config=FastForwardConfig(**self.CONFIG_KNOBS),
        )
        assert fast.fast_forward.jumps >= 1
        assert _rel(full.elapsed, fast.elapsed) <= RTOL
        assert _rel(full.total_energy, fast.total_energy) <= RTOL

    def test_steady_run_reports_no_deviations(self, cluster):
        program = _steady_program(self.ITERATIONS)
        fast = _run_world(
            cluster,
            program,
            nodes=2,
            config=FastForwardConfig(**self.CONFIG_KNOBS),
        )
        assert fast.fast_forward.deviations == 0
        assert fast.fast_forward.vetoed_rounds == 0
        assert fast.fast_forward.jumps >= 1


class TestAccounting:
    def test_marks_and_skips_bound_by_totals(self, cluster):
        workload = Jacobi()
        fast = run_workload(
            cluster, workload, nodes=4, gear=1, fast_forward=FF
        )
        stats = fast.result.fast_forward
        iterations = workload.spec.iterations
        # Every index is either marked or skipped; the mark that returns
        # a jump consumes no index, so each jump adds one extra mark.
        assert stats.marks + stats.skipped_iterations <= iterations * 4 + stats.jumps
        assert stats.skipped_iterations > 0
        assert stats.armed_rounds >= 1

    def test_reserve_iterations_simulated_event_by_event(
        self, cluster, monkeypatch
    ):
        # With a huge reserve nothing is left to jump over.
        monkeypatch.setattr(fastforward, "RESERVE", 10_000)
        full = run_workload(cluster, Jacobi(), nodes=2, gear=1)
        fast = run_workload(cluster, Jacobi(), nodes=2, gear=1, fast_forward=FF)
        assert fast.result.fast_forward.jumps == 0
        assert fast.time == full.time
        assert fast.energy == full.energy
