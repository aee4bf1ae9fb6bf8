"""Trace records and the active/idle/reducible decompositions."""

import pytest

from repro.cluster.machines import athlon_cluster
from repro.core.run import run_workload
from repro.mpi import fastforward
from repro.mpi.fastforward import FastForwardConfig
from repro.mpi.tracing import (
    CATEGORY_COMPUTE,
    CATEGORY_P2P,
    CATEGORY_WAIT,
    ROWS_NONE,
    RankTrace,
    TraceRecord,
)
from repro.mpi.world import World
from repro.obs import RunObserver
from repro.util.errors import SimulationError
from repro.workloads import CG, Jacobi


def rec(op, cat, t0, t1, **kw):
    return TraceRecord(rank=0, op=op, category=cat, t_enter=t0, t_exit=t1, **kw)


class TestTraceRecord:
    def test_duration(self):
        assert rec("compute", CATEGORY_COMPUTE, 1.0, 3.5).duration == 2.5

    def test_rejects_negative_duration(self):
        with pytest.raises(SimulationError):
            rec("compute", CATEGORY_COMPUTE, 2.0, 1.0)


class TestRankTrace:
    def test_active_time_sums_compute(self):
        t = RankTrace(0)
        t.add(rec("compute", CATEGORY_COMPUTE, 0.0, 1.0))
        t.add(rec("isend", CATEGORY_P2P, 1.0, 1.1))
        t.add(rec("compute", CATEGORY_COMPUTE, 1.1, 2.1))
        assert t.active_time == pytest.approx(2.0)

    def test_idle_time_is_complement(self):
        t = RankTrace(0)
        t.add(rec("compute", CATEGORY_COMPUTE, 0.0, 1.0))
        assert t.idle_time(finish_time=3.0) == pytest.approx(2.0)

    def test_idle_time_rejects_inconsistent_finish(self):
        t = RankTrace(0)
        t.add(rec("compute", CATEGORY_COMPUTE, 0.0, 5.0))
        with pytest.raises(SimulationError):
            t.idle_time(finish_time=1.0)

    def test_out_of_order_exit_rejected(self):
        t = RankTrace(0)
        t.add(rec("compute", CATEGORY_COMPUTE, 0.0, 2.0))
        with pytest.raises(SimulationError):
            t.add(rec("compute", CATEGORY_COMPUTE, 0.0, 1.0))

    def test_message_stats(self):
        t = RankTrace(0)
        t.add(rec("isend", CATEGORY_P2P, 0.0, 0.1, nbytes=100, peer=1))
        t.add(rec("isend", CATEGORY_P2P, 0.2, 0.3, nbytes=50, peer=2))
        assert t.message_stats() == (2, 150)

    def test_call_counts_skip_compute(self):
        t = RankTrace(0)
        t.add(rec("compute", CATEGORY_COMPUTE, 0.0, 1.0))
        t.add(rec("isend", CATEGORY_P2P, 1.0, 1.1))
        t.add(rec("isend", CATEGORY_P2P, 1.2, 1.3))
        assert t.call_counts() == {"isend": 2}


class TestReducibleWork:
    def test_compute_after_send_before_block_is_reducible(self):
        t = RankTrace(0)
        t.add(rec("isend", CATEGORY_P2P, 0.0, 0.1))
        t.add(rec("compute", CATEGORY_COMPUTE, 0.1, 1.1))  # reducible
        t.add(rec("wait_recv", CATEGORY_WAIT, 1.1, 2.0))  # blocking point
        assert t.reducible_time() == pytest.approx(1.0)

    def test_compute_before_any_send_is_critical(self):
        t = RankTrace(0)
        t.add(rec("compute", CATEGORY_COMPUTE, 0.0, 1.0))
        t.add(rec("wait_recv", CATEGORY_WAIT, 1.0, 2.0))
        assert t.reducible_time() == 0.0

    def test_send_resets_pending_window(self):
        # Compute, send, compute, block: only the second chunk counts.
        t = RankTrace(0)
        t.add(rec("isend", CATEGORY_P2P, 0.0, 0.1))
        t.add(rec("compute", CATEGORY_COMPUTE, 0.1, 0.6))
        t.add(rec("isend", CATEGORY_P2P, 0.6, 0.7))  # resets
        t.add(rec("compute", CATEGORY_COMPUTE, 0.7, 1.0))
        t.add(rec("barrier", "collective", 1.0, 1.5))
        assert t.reducible_time() == pytest.approx(0.3)

    def test_trailing_compute_without_block_not_counted(self):
        # Conservative: work after the last blocking point is ignored.
        t = RankTrace(0)
        t.add(rec("isend", CATEGORY_P2P, 0.0, 0.1))
        t.add(rec("compute", CATEGORY_COMPUTE, 0.1, 5.0))
        assert t.reducible_time() == 0.0

    def test_end_to_end_reducible_measured(self):
        # A two-rank program where rank 0's post-send compute is slack.
        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1, nbytes=8)
                yield from comm.compute(uops=2.6e9)  # 1 s, reducible
                yield from comm.recv(1)
            else:
                yield from comm.recv(0)
                yield from comm.compute(uops=5.2e9)  # 2 s on the path
                yield from comm.send(0, nbytes=8)

        res = World(athlon_cluster(), program, nodes=2, gear=1).run()
        assert res.ranks[0].trace.reducible_time() == pytest.approx(1.0, rel=0.01)
        assert res.ranks[1].trace.reducible_time() == 0.0


#: Every reader of stored rows, as a call on a trace.
ROW_READERS = {
    "records": lambda t: t.records,
    "top_level": lambda t: list(t.top_level()),
    "mpi_time": lambda t: t.mpi_time,
    "message_stats": lambda t: t.message_stats(),
    "call_counts": lambda t: t.call_counts(),
}


def ff_config():
    """Fast-forward that engages within a 100-iteration Jacobi run."""
    return FastForwardConfig(max_period=4)


class TestRowRetention:
    """Rows are stored only for a reader; the aggregates never change."""

    def test_directly_built_trace_keeps_rows(self):
        t = RankTrace(0)
        t.add_span("compute", CATEGORY_COMPUTE, 0.0, 1.0)
        assert [r.op for r in t.records] == ["compute"]

    def test_unknown_row_set_rejected(self):
        with pytest.raises(SimulationError):
            RankTrace(0, rows="some")

    @pytest.mark.parametrize("reader", sorted(ROW_READERS))
    @pytest.mark.parametrize("fast", [False, True], ids=["event", "ff"])
    def test_unobserved_run_keeps_no_rows(self, reader, fast):
        m = run_workload(
            athlon_cluster(),
            Jacobi(),
            nodes=2,
            gear=1,
            fast_forward=ff_config() if fast else None,
        )
        trace = m.result.ranks[0].trace
        assert len(trace) > 0
        if not fast:
            assert trace._rows is None
        with pytest.raises(SimulationError, match="observer"):
            ROW_READERS[reader](trace)

    def test_observed_run_keeps_every_row(self):
        m = run_workload(
            athlon_cluster(), Jacobi(), nodes=2, gear=1, observer=RunObserver()
        )
        for rank in m.result.ranks:
            assert len(rank.trace.records) == len(rank.trace)

    @pytest.mark.parametrize("workload", [Jacobi(), CG()], ids=lambda w: w.name)
    @pytest.mark.parametrize("fast", [False, True], ids=["event", "ff"])
    def test_aggregates_match_observed_run_bit_for_bit(self, workload, fast):
        runs = [
            run_workload(
                athlon_cluster(),
                workload,
                nodes=4,
                gear=2,
                observer=observer,
                fast_forward=ff_config() if fast else None,
            ).result
            for observer in (None, RunObserver())
        ]
        plain, observed = runs
        if fast:
            assert plain.fast_forward.jumps >= 1
            assert plain.fast_forward == observed.fast_forward
        for a, b in zip(plain.ranks, observed.ranks):
            assert len(a.trace) == len(b.trace)
            assert repr(a.trace.active_time) == repr(b.trace.active_time)
            assert repr(a.trace.reducible_time()) == repr(b.trace.reducible_time())
        assert repr(plain.active_time) == repr(observed.active_time)
        assert repr(plain.idle_time) == repr(observed.idle_time)
        assert repr(plain.reducible_time()) == repr(observed.reducible_time())

    @pytest.mark.parametrize(
        "min_jump", [fastforward.MIN_JUMP, 10**9], ids=["jumping", "simulated"]
    )
    def test_fast_forward_holds_only_its_window(self, min_jump, monkeypatch):
        """A long unobserved Jacobi run never stores more than its last
        ``max_period + 1`` iterations of rows, whether fast-forward jumps
        or simulates every iteration."""
        monkeypatch.setattr(fastforward, "MIN_JUMP", min_jump)
        config = FastForwardConfig(max_period=4)
        peak: dict[int, int] = {}
        add_span = RankTrace.add_span

        def tracked(self, *args):
            add_span(self, *args)
            peak[self.rank] = max(peak.get(self.rank, 0), len(self._rows))

        monkeypatch.setattr(RankTrace, "add_span", tracked)
        workload = Jacobi(scale=3.0)
        result = run_workload(
            athlon_cluster(), workload, nodes=4, gear=1, fast_forward=config
        ).result
        assert (result.fast_forward.jumps > 0) == (min_jump < 10**9)
        iterations = workload.spec.iterations
        for rank in result.ranks:
            per_iteration = len(rank.trace) // iterations
            assert per_iteration * iterations == len(rank.trace)
            assert peak[rank.rank] <= (config.max_period + 1) * per_iteration
            assert peak[rank.rank] * 10 < len(rank.trace)


class TestTraceEquality:
    def run(self, gear, observer=None):
        return World(
            athlon_cluster(),
            Jacobi(scale=0.1).program,
            nodes=2,
            gear=gear,
            observer=observer,
        ).run()

    def test_rowless_traces_of_different_runs_differ(self):
        a, b = self.run(1), self.run(3)
        assert a.ranks[0].trace._keep == ROWS_NONE
        assert len(a.ranks[0].trace) == len(b.ranks[0].trace)
        assert a.ranks[0].trace != b.ranks[0].trace

    def test_traces_of_identical_runs_are_equal(self):
        assert self.run(2).ranks[0].trace == self.run(2).ranks[0].trace
        observed = [self.run(2, RunObserver()) for _ in range(2)]
        assert observed[0].ranks[0].trace == observed[1].ranks[0].trace

    def test_rows_kept_or_not_differ(self):
        observed = self.run(2, RunObserver())
        assert self.run(2).ranks[0].trace != observed.ranks[0].trace
