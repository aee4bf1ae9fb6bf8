"""The worker's speed probe, CPU pinning, taken-time reading and set-up
record."""

from __future__ import annotations

import gc
import os
import time

import pytest

import worker


def test_speed_probe_samples_and_reports_its_own_cost():
    probe = worker.SpeedProbe()
    probe.start()
    cpu = time.process_time()
    while time.process_time() - cpu < 0.3:
        sum(i * i for i in range(1000))
    speed, probe_cpu, probe_wall = probe.stop()
    busy = time.process_time() - cpu
    assert speed > 0
    assert 0 < probe_cpu < 0.2 * busy
    assert probe_wall >= probe_cpu * 0.5


def test_speed_probe_reads_one_when_nothing_was_sampled():
    probe = worker.SpeedProbe()
    probe.start()
    assert probe.stop() == (1.0, 0.0, 0.0)


def test_no_garbage_collection_runs_inside_a_sample(monkeypatch):
    collections = []
    in_sample = False

    def note(phase, info):
        if phase == "start":
            collections.append(in_sample)

    def reference():
        # Allocates objects the collector tracks, whatever free lists hold.
        return [[i] for i in range(100)]

    monkeypatch.setattr(worker.SpeedProbe, "_reference", staticmethod(reference))
    probe = worker.SpeedProbe()
    threshold = gc.get_threshold()
    gc.callbacks.append(note)
    gc.set_threshold(1)
    try:
        for _ in range(50):
            in_sample = True
            probe._sample(0, None)
            in_sample = False
            [[] for _ in range(5)]
    finally:
        gc.callbacks.remove(note)
        gc.set_threshold(*threshold)
    assert gc.isenabled()
    assert probe._samples == 50
    assert collections and not any(collections)


def test_pinned_taken_time_is_a_nonnegative_reading():
    affinity = os.sched_getaffinity(0)
    try:
        cpu = worker.pin_to_current_cpu()
        assert cpu in affinity
        assert os.sched_getaffinity(0) == {cpu}
    finally:
        os.sched_setaffinity(0, affinity)
    first = worker.taken_s(cpu)
    assert 0.0 <= first <= worker.taken_s(cpu)
    # A CPU the machine lacks has no steal reading; the queue delay stays.
    assert 0.0 <= worker.taken_s(10**6) <= worker.taken_s(cpu)


def test_setup_only_record(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    record = worker.measure("paper-event", seed=0, workdir=tmp_path, setup_only=True)
    assert set(record) == {"setup_s", "setup_speed"}
    assert record["setup_s"] > 0 and record["setup_speed"] > 0


def test_unknown_workload_is_refused(tmp_path):
    with pytest.raises(KeyError):
        worker.measure("no-such-workload", seed=0, workdir=tmp_path)
