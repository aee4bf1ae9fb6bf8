"""Reference checks, the seeded validation pack, and the benchmark's
declaration in ``BENCHMARK.json``."""

from __future__ import annotations

import json
import re

import pytest

import run
import suite
import tracer

ROOT = suite.RESULTS_DIR.parent


def test_compare_json_accepts_float_noise_within_tolerance():
    ref = {"a": [1.0, 2, "x", True, None], "b": {"c": 3.0}}
    got = {"a": [1.0 + 1e-12, 2, "x", True, None], "b": {"c": 3.0}}
    err, diffs = suite.compare_json(ref, got, 1e-9)
    assert diffs == []
    assert 0 < err < 1e-11


@pytest.mark.parametrize(
    "got, path",
    [
        ({"a": [1.0 + 1e-6, 2, "x", True, None], "b": {"c": 3.0}}, "/a/0"),
        ({"a": [1.0, 3, "x", True, None], "b": {"c": 3.0}}, "/a/1"),
        ({"a": [1.0, 2, "y", True, None], "b": {"c": 3.0}}, "/a/2"),
        ({"a": [1.0, 2, "x", 1, None], "b": {"c": 3.0}}, "/a/3"),
        ({"a": [1.0, 2, "x", True], "b": {"c": 3.0}}, "/a"),
        ({"a": [1.0, 2, "x", True, None], "b": {"d": 3.0}}, "/b"),
        ({"a": [True, 2, "x", True, None], "b": {"c": 3.0}}, "/a/0"),
    ],
)
def test_compare_json_flags_structure_and_value_changes(got, path):
    ref = {"a": [1.0, 2, "x", True, None], "b": {"c": 3.0}}
    _, diffs = suite.compare_json(ref, got, 1e-9)
    assert diffs == [path]


def test_committed_results_are_the_reference_where_they_exist():
    points = suite.reference_points()
    assert set(points) == {
        "figure1", "table1", "figure2", "figure3", "figure4", "figure5", "policies",
    }
    assert all(count > 0 for count in points.values())
    for name in points:
        committed = suite.RESULTS_DIR / f"{name}.json"
        if name == "policies":
            assert not committed.exists()
            assert suite.reference_file(name) == suite.REFERENCE_DIR / "policies.json"
        else:
            assert suite.reference_file(name) == committed
    # The benchmark keeps no copy of a committed artifact.
    assert sorted(p.name for p in suite.REFERENCE_DIR.iterdir()) == [
        "manifest.json", "policies.json",
    ]


def test_missing_and_changed_artifacts_fail_their_points(tmp_path):
    points = suite.reference_points()
    for name in points:
        (tmp_path / f"{name}.json").write_bytes(suite.reference_file(name).read_bytes())
    exact = suite.WORKLOADS["paper-event"]
    assert suite.check_paper(exact, tmp_path, 0).correct
    (tmp_path / "figure4.json").unlink()
    table = json.loads((tmp_path / "table1.json").read_text())
    (tmp_path / "table1.json").write_text(json.dumps(table))
    check = suite.check_paper(exact, tmp_path, 1)
    assert check.failed == points["figure4"] + points["table1"]
    assert not check.correct
    # Re-indenting changes the bytes, not the values.
    tolerant = suite.WORKLOADS["paper-batch-ff"]
    check = suite.check_paper(tolerant, tmp_path, 0)
    assert check.failed == points["figure4"]
    assert check.max_rel_err == 0.0


def test_the_seed_shuffles_the_validation_order_but_not_the_specs():
    from repro.scenarios.packs import FF_ELIGIBLE_TAG, validation_pack

    base = validation_pack(min_points=200)
    lead = sum(1 for spec in base if FF_ELIGIBLE_TAG in spec.tags)
    one = suite.ValidationJob(1, points=200).specs
    again = suite.ValidationJob(1, points=200).specs
    two = suite.ValidationJob(2, points=200).specs
    assert [s.name for s in one] == [s.name for s in again]
    assert [s.name for s in one] != [s.name for s in two]
    assert sorted(s.name for s in one) == sorted(s.name for s in base)
    assert one[:lead] == base[:lead] == two[:lead]
    assert all(FF_ELIGIBLE_TAG in s.tags for s in one[:lead])


def test_benchmark_json_declares_what_the_benchmark_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in bench["workloads"]] == list(suite.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(row) for row in tracer.LAYER_METRICS
    ]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    for metric in bench["end_to_end"] + bench["per_layer"] + bench["workloads"]:
        assert name.match(metric["name"]), metric["name"]
    for workload in bench["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
