"""Span arithmetic and derived ratios of the per-layer metrics."""

from __future__ import annotations

from collections import Counter

import pytest

from tracer import LAYER_METRICS, WINDOW, Tracer, by_name, layer_metrics, ratio, self_times


def test_nested_spans_subtract_their_children():
    spans = [
        ["outer", 0.0, 10.0, -1],
        ["middle", 1.0, 7.0, 0],
        ["inner", 2.0, 5.0, 1],
    ]
    assert self_times(spans) == pytest.approx([4.0, 3.0, 3.0])


def test_sibling_spans_each_subtract_from_the_parent():
    spans = [
        ["parent", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["b", 4.0, 8.0, 0],
        ["root2", 11.0, 12.0, -1],
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 4.0, 1.0])


def test_self_times_sum_to_the_roots_durations():
    spans = [
        ["w", 0.0, 10.0, -1],
        ["x", 0.5, 6.0, 0],
        ["y", 1.0, 2.0, 1],
        ["y", 2.5, 3.0, 1],
        ["z", 7.0, 9.5, 0],
    ]
    assert sum(self_times(spans)) == pytest.approx(10.0)
    assert by_name(spans)["y"] == pytest.approx((2, 1.5, 1.5))


def test_tracer_span_records_parents_in_call_order():
    tracer = Tracer()
    with tracer.span("a"):
        with tracer.span("b"):
            pass
        with tracer.span("c"):
            with tracer.span("d"):
                pass
    with tracer.span("e"):
        pass
    names = [(row[0], row[3]) for row in tracer.spans]
    assert names == [("a", -1), ("b", 0), ("c", 0), ("d", 2), ("e", -1)]
    assert all(row[2] >= row[1] for row in tracer.spans)


def test_span_closes_when_the_body_raises():
    tracer = Tracer()
    with pytest.raises(KeyError):
        with tracer.span("a"):
            raise KeyError
    with tracer.span("b"):
        pass
    assert [row[3] for row in tracer.spans] == [-1, -1]


def test_ratio_with_zero_base_is_zero():
    assert ratio(3.0, 0) == 0.0
    assert ratio(3.0, 2) == 1.5


def test_every_ratio_reads_zero_when_its_base_is_zero():
    metrics = layer_metrics([], Counter())
    assert set(metrics) == {name for name, _, _ in LAYER_METRICS} - {"trace.overhead_s"}
    assert all(value == 0 for value in metrics.values())


def test_vector_coverage_without_replay_and_skip_share_with_ff_off():
    counts = Counter({"sim.engine.events": 100, "mpi.comm.isend": 10})
    spans = [[WINDOW, 0.0, 2.0, -1], ["sim.engine.run", 0.5, 1.5, 0]]
    metrics = layer_metrics(spans, counts)
    assert metrics["sim.batch.vector_coverage"] == 0.0
    assert metrics["mpi.fastforward.skip_share"] == 0.0
    assert metrics["exec.cache.hit_rate"] == 0.0
    assert metrics["exec.us_per_point"] == 0.0
    assert metrics["sim.engine.us_per_event"] == pytest.approx(1e4)
    assert metrics["sim.engine.us_per_request"] == pytest.approx(1e5)
    assert metrics["trace.coverage"] == pytest.approx(0.5)


def test_ratios_with_nonzero_bases():
    counts = Counter(
        {
            "sim.batch.vector_columns": 3,
            "sim.batch.scalar_columns": 1,
            "mpi.fastforward.skipped_iterations": 30,
            "mpi.fastforward.marks": 10,
            "exec.cache.hits": 1,
            "exec.cache.misses": 3,
            "exec.points": 4,
        }
    )
    spans = [["exec.executor.run", 0.0, 2.0, -1]]
    metrics = layer_metrics(spans, counts)
    assert metrics["sim.batch.vector_coverage"] == pytest.approx(0.75)
    assert metrics["mpi.fastforward.skip_share"] == pytest.approx(0.75)
    assert metrics["exec.cache.hit_rate"] == pytest.approx(0.25)
    assert metrics["exec.us_per_point"] == pytest.approx(5e5)
