"""Chrome trace-event export and the JSONL metrics exporter."""

from __future__ import annotations

import json

from repro.cluster.machines import athlon_cluster
from repro.mpi.world import World
from repro.obs import (
    GearChange,
    MetricsRegistry,
    RunObserver,
    metrics_lines,
    render_chrome_trace,
    trace_events,
    write_chrome_trace,
    write_metrics,
)
from repro.workloads.jacobi import Jacobi


def small_result(nodes: int = 2):
    """A tiny simulated Jacobi run to export."""
    workload = Jacobi(scale=0.03)
    world = World(
        athlon_cluster(),
        workload.program,
        nodes=nodes,
        gear=1,
        observer=RunObserver(),
    )
    return world.run()


class TestTraceEvents:
    def test_metadata_names_every_rank(self):
        events = trace_events(small_result(nodes=2), label="demo")
        meta = [e for e in events if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert "demo" in names
        assert {"rank 0", "rank 1"} <= names

    def test_durations_become_slices_zero_durations_become_instants(self):
        result = small_result()
        events = trace_events(result, include_power=False)
        slices = [e for e in events if e["ph"] == "X"]
        assert slices, "a Jacobi run must contain compute slices"
        assert all(e["dur"] > 0 for e in slices)
        for instant in (e for e in events if e["ph"] == "i"):
            assert instant["s"] == "t"

    def test_timestamps_are_microseconds(self):
        result = small_result()
        events = trace_events(result, include_power=False)
        latest = max(e["ts"] for e in events if "ts" in e)
        assert latest == (
            max(
                record.t_enter
                for r in result.ranks
                for record in r.trace.records
            )
            * 1e6
        )

    def test_gear_changes_emit_marker_and_counter(self):
        changes = [GearChange(rank=1, time=0.5, gear=4, old=1)]
        events = trace_events(small_result(), gear_changes=changes)
        markers = [e for e in events if e.get("cat") == "gear"]
        assert len(markers) == 1
        assert markers[0]["name"] == "gear -> 4"
        assert markers[0]["args"] == {"gear": 4, "from": 1}
        counters = [
            e for e in events if e["ph"] == "C" and e["name"] == "gear rank 1"
        ]
        assert counters and counters[0]["args"] == {"gear": 4}

    def test_power_tracks_are_optional_and_close_at_zero_watts(self):
        result = small_result()
        with_power = trace_events(result, include_power=True)
        without = trace_events(result, include_power=False)
        tracks = [
            e for e in with_power if e["ph"] == "C" and "power" in e["name"]
        ]
        assert tracks
        assert tracks[-1]["args"] == {"watts": 0.0}  # track closes
        assert not any(
            e["ph"] == "C" and "power" in e["name"] for e in without
        )

    def test_nested_records_can_be_filtered(self):
        result = small_result()
        everything = trace_events(result, include_power=False)
        top_only = trace_events(
            result, include_power=False, include_nested=False
        )
        assert len(top_only) <= len(everything)
        assert not any(
            e.get("args", {}).get("nested") for e in top_only
        )


class TestRendering:
    def test_document_shape_and_determinism(self):
        events = trace_events(small_result())
        text = render_chrome_trace(events)
        assert text == render_chrome_trace(events)
        document = json.loads(text)
        assert document["displayTimeUnit"] == "ms"
        assert document["traceEvents"] == json.loads(text)["traceEvents"]

    def test_write_creates_parents_and_returns_path(self, tmp_path):
        target = tmp_path / "deep" / "run.trace.json"
        written = write_chrome_trace(target, trace_events(small_result()))
        assert written == target
        assert json.loads(target.read_text())["traceEvents"]


class TestMetricsExport:
    def filled(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.inc("runs.completed", 2.0)
        reg.set_gauge("run.J-n2-g1.time_s", 1.25)
        reg.observe("run.J-n2-g1.rank0.gear", 0.0, 1.0)
        return reg

    def test_one_json_line_per_metric(self):
        lines = metrics_lines(self.filled())
        records = [json.loads(line) for line in lines]
        assert [r["kind"] for r in records] == ["counter", "gauge", "series"]
        assert records[0] == {
            "kind": "counter", "name": "runs.completed", "value": 2.0,
        }
        assert records[2]["points"] == [[0.0, 1.0]]

    def test_write_round_trips_and_ends_with_newline(self, tmp_path):
        path = write_metrics(tmp_path / "m.jsonl", self.filled())
        text = path.read_text()
        assert text.endswith("\n")
        assert [json.loads(line) for line in text.splitlines()]

    def test_empty_registry_writes_empty_file(self, tmp_path):
        path = write_metrics(tmp_path / "m.jsonl", MetricsRegistry())
        assert path.read_text() == ""
