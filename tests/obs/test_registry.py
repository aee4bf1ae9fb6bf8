"""The metrics registry: counters, gauges, timeseries, merge, null sink."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.util.errors import ConfigurationError

names = st.sampled_from(["a", "b.c", "run.CG-n1-g1.time_s", "sim.events"])
amounts = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


class TestCounters:
    def test_starts_at_zero(self):
        assert MetricsRegistry().counter("anything") == 0.0

    def test_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("events")
        reg.inc("events", 2.5)
        assert reg.counter("events") == 3.5

    def test_rejects_negative_increment(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().inc("events", -1.0)

    @given(increments=st.lists(st.tuples(names, amounts), max_size=30))
    def test_counter_equals_sum_of_increments(self, increments):
        reg = MetricsRegistry()
        for name, amount in increments:
            reg.inc(name, amount)
        for name in {n for n, _ in increments}:
            expected = sum(a for n, a in increments if n == name)
            assert reg.counter(name) == pytest.approx(expected)


class TestGauges:
    def test_unset_gauge_is_none(self):
        assert MetricsRegistry().gauge("missing") is None

    def test_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("clock", 1.0)
        reg.set_gauge("clock", 7.0)
        assert reg.gauge("clock") == 7.0


class TestSeries:
    def test_unobserved_series_is_empty(self):
        assert MetricsRegistry().series("missing") == []

    def test_appends_in_order(self):
        reg = MetricsRegistry()
        reg.observe("power", 0.0, 100.0)
        reg.observe("power", 1.0, 90.0)
        assert reg.series("power") == [(0.0, 100.0), (1.0, 90.0)]

    def test_series_reader_returns_a_copy(self):
        reg = MetricsRegistry()
        reg.observe("power", 0.0, 100.0)
        reg.series("power").append((9.0, 9.0))
        assert reg.series("power") == [(0.0, 100.0)]


class TestSnapshot:
    def test_names_and_snapshot_are_sorted(self):
        reg = MetricsRegistry()
        for name in ("zeta", "alpha", "mid"):
            reg.inc(name)
            reg.set_gauge(name, 1.0)
            reg.observe(name, 0.0, 1.0)
        kinds = reg.names()
        assert kinds["counters"] == ["alpha", "mid", "zeta"]
        snap = reg.snapshot()
        for kind in ("counters", "gauges", "series"):
            assert list(snap[kind]) == ["alpha", "mid", "zeta"]

    def test_len_counts_all_kinds(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.set_gauge("g", 1.0)
        reg.observe("s", 0.0, 1.0)
        assert len(reg) == 3


class TestMerge:
    def test_counters_add_gauges_overwrite_series_concatenate(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 1.0)
        b.inc("n", 2.0)
        a.set_gauge("g", 1.0)
        b.set_gauge("g", 5.0)
        a.observe("s", 0.0, 1.0)
        b.observe("s", 1.0, 2.0)
        a.merge([b])
        assert a.counter("n") == 3.0
        assert a.gauge("g") == 5.0
        assert a.series("s") == [(0.0, 1.0), (1.0, 2.0)]
