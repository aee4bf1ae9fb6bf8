"""Cached state is untrusted input.

A result or tape entry that a damaged disk or a hand edit has changed
must load equal or be a counted miss that is recomputed.  It may never
crash a sweep, and never ship a wrong number.  These properties mutate
one stored entry at a time — drop a field, change a type, put in NaN or
inf, make a number negative, truncate a list — and check that the next
sweep's results are bit-identical to a clean run and that the cache
counted the entry as invalidated.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.disk import drpm_disk
from repro.cluster.machines import athlon_cluster
from repro.exec import (
    CalibrationTask,
    GearSweepTask,
    MeasurementTask,
    PolicyMeasurementTask,
    ResultCache,
    TapeCache,
    tape_key,
)
from repro.exec.batch_sweep import BatchReport
from repro.exec.sweep import cache_key, sweep
from repro.policy.adaptive import IdleLowPolicy
from repro.workloads import CheckpointedStencil, Jacobi
from repro.workloads.nas import EP

SCALE = 0.03

#: Replacements of another type than the value they replace.
_OTHER_TYPES = ("x", None, [], {})


def _leaves(node, path=()):
    """Every (path, value) of a JSON document's scalar leaves."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _leaves(value, path + (index,))
    else:
        yield path, node


def _containers(node, path=()):
    """Every (path, value) of a JSON document's lists and dicts."""
    if isinstance(node, (dict, list)):
        yield path, node
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _containers(value, path + (key,))


def _at(document, path):
    for key in path:
        document = document[key]
    return document


@st.composite
def _mutations(draw, payload, *, exempt=(), keep_lists=()):
    """A copy of ``payload`` with one defect the loader must catch.

    ``exempt`` names keys whose subtree is never touched (fields the
    decoder does not read, or whose full value range is legitimate);
    the lists inside a ``keep_lists`` key are never truncated.
    """
    doc = json.loads(json.dumps(payload))

    def allowed(path):
        return not any(key in exempt for key in path)

    kind = draw(st.sampled_from(("drop", "type", "nonfinite", "negative", "truncate")))
    if kind == "drop":
        fields = [
            (path, key)
            for path, node in _containers(doc)
            if isinstance(node, dict) and allowed(path)
            for key in node
            if key not in exempt
        ]
        path, key = draw(st.sampled_from(fields))
        del _at(doc, path)[key]
    elif kind == "truncate":
        lists = [
            path
            for path, node in _containers(doc)
            if isinstance(node, list)
            and node
            and allowed(path)
            and not (len(path) > 1 and path[-2] in keep_lists)
        ]
        if not lists:
            return None
        path = draw(st.sampled_from(lists))
        del _at(doc, path)[-1]
    else:
        leaves = [
            (path, value)
            for path, value in _leaves(doc)
            if path and allowed(path)
            and (kind == "type" or type(value) in (int, float))
        ]
        path, value = draw(st.sampled_from(leaves))
        if kind == "type":
            new = draw(
                st.sampled_from(
                    [v for v in _OTHER_TYPES if type(v) is not type(value)]
                )
            )
        elif kind == "nonfinite":
            new = draw(st.sampled_from((float("nan"), float("inf"))))
        else:
            new = -abs(value) - 1
        _at(doc, path[:-1])[path[-1]] = new
    return doc


def _encoded(tasks, results):
    return [
        json.dumps(task.encode(result), sort_keys=True)
        for task, result in zip(tasks, results)
    ]


@pytest.fixture(scope="module")
def result_entries():
    cluster = athlon_cluster()
    tasks = [
        MeasurementTask(cluster, Jacobi(SCALE), nodes=2, gear=3),
        PolicyMeasurementTask(cluster, Jacobi(SCALE), nodes=2, policy=IdleLowPolicy()),
        GearSweepTask(cluster, Jacobi(SCALE), nodes=2, gears=(1, 4)),
        CalibrationTask(cluster, EP(SCALE)),
    ]
    # Only runs have entries: the sweep has 2, the calibration 6.
    runs = [run for task in tasks for run in task.runs()]
    assert [len(task.runs()) for task in tasks] == [1, 1, 2, 6]
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(Path(root))
        clean = sweep(tasks, cache=cache)
        assert len(cache) == len(runs) == 10
        payloads = [cache.load(cache_key(run)) for run in runs]
    return tasks, runs, _encoded(tasks, clean), payloads


@st.composite
def _result_cases(draw, entries):
    _, runs, _, payloads = entries
    index = draw(st.integers(min_value=0, max_value=len(runs) - 1))
    # upm is legitimately inf or NaN, and the policy knobs are not
    # read back, so neither is a defect the decoder can see.
    doc = draw(_mutations(payloads[index], exempt=("policy", "upm")))
    return index, doc


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_result_entry_is_a_counted_miss(result_entries, data):
    # One mutated run entry, a composite's included, is one counted
    # invalidation; the run is recomputed and every point, composites
    # included, equals the clean result.
    tasks, runs, clean, payloads = result_entries
    index, doc = data.draw(_result_cases(result_entries))
    if doc is None:
        return
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(Path(root))
        for run, payload in zip(runs, payloads):
            cache.store(cache_key(run), payload)
        cache.store(cache_key(runs[index]), doc)
        again = sweep(tasks, cache=cache)
        assert _encoded(tasks, again) == clean
        assert cache.stats.invalidated == 1
        assert (cache.stats.hits, cache.stats.misses) == (len(runs) - 1, 1)
        assert cache.load(cache_key(runs[index])) == payloads[index]


@pytest.fixture(scope="module")
def tape_entry():
    # Disk bursts and a spindle-speed change put every op kind on the
    # tape, durations and idle watts included.
    cluster = athlon_cluster(max_nodes=4, disk=drpm_disk())
    task = GearSweepTask(
        cluster,
        CheckpointedStencil(SCALE, checkpoint_every=2, disk_speed=3),
        nodes=2,
        gears=(1, 2, 5),
    )
    clean = sweep([task], backend="batch")
    with tempfile.TemporaryDirectory() as root:
        tapes = TapeCache(Path(root))
        sweep([task], backend="batch", tape_cache=tapes)
        payload = tapes.load(tape_key(task, 1))
    return task, _encoded([task], clean), payload


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_tape_is_a_counted_miss(tape_entry, data):
    task, clean, payload = tape_entry
    # A shorter op stream can be a consistent tape of another program;
    # the replay self-check, not the loader, rejects that.
    doc = data.draw(_mutations(payload, keep_lists=("ops",)))
    if doc is None:
        return
    with tempfile.TemporaryDirectory() as root:
        tapes = TapeCache(Path(root))
        tapes.store(tape_key(task, 1), doc)
        again = sweep([task], backend="batch", tape_cache=tapes)
        assert _encoded([task], again) == clean
        assert tapes.stats.invalidated == 1
        assert tapes.load(tape_key(task, 1)) == payload


@pytest.mark.parametrize(
    "field,value",
    [("energy_j", "x"), ("energy_j", float("nan")), ("time_s", -1.0)],
)
def test_reproduced_measurement_defects_are_misses(tmp_path, field, value):
    # A right-keyed entry whose energy is a string once shipped as the
    # string; one without energy_j raised KeyError out of the sweep.
    task = MeasurementTask(athlon_cluster(), Jacobi(SCALE), nodes=2, gear=2)
    clean = sweep([task])
    cache = ResultCache(tmp_path)
    sweep([task], cache=cache)
    for mutate in ("set", "drop"):
        payload = cache.load(cache_key(task))
        if mutate == "set":
            payload[field] = value
        else:
            del payload[field]
        cache.store(cache_key(task), payload)
        before = cache.stats.invalidated
        assert _encoded([task], sweep([task], cache=cache)) == _encoded(
            [task], clean
        )
        assert cache.stats.invalidated == before + 1


def _disk_duration(payload):
    next(op for op in payload["ops"][0] if op[0] == 5)[1] = "x"


def _other_workload(payload):
    payload["workload_name"] = "Other"


def _other_recording_gear(payload):
    payload["recording_gear"] = 2


@pytest.mark.parametrize(
    "corrupt", [_disk_duration, _other_workload, _other_recording_gear]
)
def test_reproduced_tape_defect_is_a_miss(tmp_path, corrupt):
    # A 2-node checkpointed tape whose DISK duration is the string "x"
    # once loaded, and the replay raised TypeError out of the sweep; a
    # well-formed tape of another workload raised ConfigurationError,
    # and one claiming another recording gear fell back to the event
    # engine through its own self-check.
    cluster = athlon_cluster(max_nodes=4, disk=drpm_disk())
    task = GearSweepTask(
        cluster,
        CheckpointedStencil(SCALE, checkpoint_every=2, disk_speed=1),
        nodes=2,
        gears=(1, 2, 3),
    )
    clean = sweep([task], backend="batch")
    tapes = TapeCache(tmp_path)
    sweep([task], backend="batch", tape_cache=tapes)
    payload = tapes.load(tape_key(task, 1))
    corrupt(payload)
    tapes.store(tape_key(task, 1), payload)
    report = BatchReport()
    again = sweep([task], backend="batch", tape_cache=tapes, batch_report=report)
    assert _encoded([task], again) == _encoded([task], clean)
    assert tapes.stats.invalidated == 1
    assert (report.tape_hits, report.tape_misses) == (0, 1)


@pytest.mark.parametrize("jobs", [1, 2])
def test_tape_failing_its_self_check_is_re_recorded(tmp_path, jobs):
    # A tape that decodes but no longer matches its recording totals
    # once fell back to the event engine on every later sweep, while
    # the tape cache went on reporting a hit.
    cluster = athlon_cluster()
    tasks = [GearSweepTask(cluster, Jacobi(SCALE), nodes=n) for n in (2, 3)]
    tapes = TapeCache(tmp_path)
    report = BatchReport()
    clean = _encoded(
        tasks,
        sweep(tasks, backend="batch", tape_cache=tapes, jobs=jobs, batch_report=report),
    )
    # Fresh recordings are misses, pooled (warm phase) or not.
    assert (report.tape_hits, report.tape_misses) == (0, 2)
    key = tape_key(tasks[0], 1)
    payload = tapes.load(key)
    stale = dict(payload, recording_energy=payload["recording_energy"] * 1.001)
    tapes.store(key, stale)
    invalidated = tapes.stats.invalidated

    report = BatchReport()
    again = sweep(
        tasks, backend="batch", tape_cache=tapes, jobs=jobs, batch_report=report
    )
    assert report.fallbacks == []
    # The stale tape was recorded afresh, so it is a miss.
    assert (report.tape_hits, report.tape_misses) == (1, 1)
    assert report.record_s > 0.0
    assert tapes.stats.invalidated == invalidated + 1
    assert _encoded(tasks, again) == clean
    assert tapes.load(key) == payload

    report = BatchReport()
    third = sweep(
        tasks, backend="batch", tape_cache=tapes, jobs=jobs, batch_report=report
    )
    assert report.fallbacks == []
    assert (report.tape_hits, report.tape_misses) == (2, 0)
    assert tapes.stats.invalidated == invalidated + 1
    assert _encoded(tasks, third) == clean
