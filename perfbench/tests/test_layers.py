"""The traced run's wrappers fire where each layer works, read zero where
it is idle, and are gone afterwards.

Each workload runs as a tiny instance: the paper workloads on ``table1``
alone at the benchmark's scale (it records and reloads tapes and
fast-forwards on the batch path), the validation sweep on a 60-point
pack with a cache bound that evicts.
"""

from __future__ import annotations

import importlib

import pytest

import suite
from tracer import MARK, WINDOW, Tracer, installed_wrappers

#: Metrics that must read above zero on each tiny instance.
WORK = {
    "paper-event": [
        "sim.engine.run.self_s",
        "sim.engine.events",
        "sim.engine.us_per_event",
        "mpi.world.runs",
        "mpi.world.init.self_s",
        "mpi.world.run.self_s",
        "mpi.comm.compute_block",
        "mpi.comm.iteration_mark",
        "mpi.comm.requests",
        "cluster.power.intervals",
        "mpi.tracing.rows",
        "exec.points",
        "exec.executor.run.calls",
        "exec.executor.run.self_s",
        "exec.task.MeasurementTask.calls",
        "exec.fingerprint.calls",
        "exec.fingerprint.self_s",
        "exec.cache.load.self_s",
        "exec.cache.store.self_s",
        "exec.cache.misses",
        "exec.cache.stores",
        "exec.cache.bytes_written",
        "trace.coverage",
    ],
    "paper-batch-ff": [
        "sim.engine.events",
        "mpi.fastforward.jumps",
        "mpi.fastforward.skipped_iterations",
        "mpi.fastforward.skip_share",
        "sim.batch.record_tape.calls",
        "sim.batch.record_tape.self_s",
        "sim.batch.replay_grid.calls",
        "sim.batch.replay_grid.self_s",
        "sim.batch.vector_columns",
        "sim.batch.vector_coverage",
        "sim.batch.tape_to_payload.self_s",
        "sim.batch.tape_from_payload.self_s",
        "sim.batch.max_rel_err",
        "exec.points",
        "exec.tape_cache.load.self_s",
        "exec.tape_cache.store.self_s",
        "exec.tape_cache.hits",
        "exec.tape_cache.misses",
        "exec.tape_cache.stores",
        "exec.tape_cache.hit_rate",
        "exec.tape_cache.bytes_written",
        "trace.coverage",
    ],
    "validation-sweep": [
        "sim.engine.events",
        "mpi.world.runs",
        "mpi.world.init.self_s",
        "mpi.comm.requests",
        "mpi.fastforward.jumps",
        "sim.batch.replay_grid.calls",
        "exec.points",
        "exec.executor.run.calls",
        "exec.fingerprint.calls",
        "exec.us_per_point",
        "exec.cache.prune.self_s",
        "exec.cache.hits",
        "exec.cache.stores",
        "exec.cache.evicted",
        "exec.cache.hit_rate",
        "scenarios.packs.validation_pack.self_s",
        "trace.coverage",
    ],
}

#: Metrics that must read exactly zero: the layers each workload leaves
#: idle ("zero" or "off" in the workload notes).
ZERO = {
    "paper-event": [
        "mpi.fastforward.jumps",
        "mpi.fastforward.skipped_iterations",
        "mpi.fastforward.deviations",
        "mpi.fastforward.skip_share",
        "sim.batch.record_tape.calls",
        "sim.batch.record_tape.self_s",
        "sim.batch.replay_grid.calls",
        "sim.batch.replay_grid.self_s",
        "sim.batch.vector_columns",
        "sim.batch.scalar_columns",
        "sim.batch.vector_coverage",
        "sim.batch.fallback_points",
        "sim.batch.tape_to_payload.self_s",
        "sim.batch.tape_from_payload.self_s",
        "sim.batch.max_rel_err",
        "exec.tape_cache.load.self_s",
        "exec.tape_cache.store.self_s",
        "exec.tape_cache.stores",
        "exec.tape_cache.bytes_written",
        "exec.cache.prune.self_s",
        "exec.cache.evicted",
        "scenarios.packs.validation_pack.self_s",
    ],
    "paper-batch-ff": [
        "sim.batch.fallback_points",
        "exec.cache.evicted",
        "scenarios.packs.validation_pack.self_s",
    ],
    "validation-sweep": [
        "sim.batch.fallback_points",
        "mpi.fastforward.deviations",
    ],
}


def _tiny_job(name: str, tmp_path):
    workload = suite.WORKLOADS[name]
    if workload.runner_flags is None:
        return suite.ValidationJob(3, points=60, cache_bytes=8_000)
    return suite.PaperJob(workload, tmp_path / "out", only=("table1",))


@pytest.fixture(scope="module", params=sorted(WORK))
def traced(request, tmp_path_factory):
    """(workload name, reference check, metrics, wrappers left) of one
    traced tiny instance."""
    name = request.param
    tmp_path = tmp_path_factory.mktemp(name)
    with pytest.MonkeyPatch.context() as env:
        env.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        env.delenv("REPRO_CACHE_MAX_MB", raising=False)
        tracer = Tracer()
        tracer.install()
        assert tracer.missing == []
        try:
            job = _tiny_job(name, tmp_path)
            with tracer.span(WINDOW):
                outcome = job.run()
        finally:
            tracer.uninstall()
    check = job.check(outcome)
    metrics = tracer.metrics(max_rel_err=check.max_rel_err)
    return name, check, metrics, installed_wrappers()


def test_outputs_pass_the_reference_check(traced):
    name, check, _, _ = traced
    assert check.correct, (name, check)


def test_boundaries_fire_where_the_layer_works(traced):
    name, _, metrics, _ = traced
    idle = [m for m in WORK[name] if not metrics[m] > 0]
    assert not idle, f"{name}: no work recorded in {idle}"


def test_idle_layers_read_zero(traced):
    name, _, metrics, _ = traced
    busy = {m: metrics[m] for m in ZERO[name] if metrics[m] != 0}
    assert not busy, f"{name}: expected zero, got {busy}"


def test_batch_error_is_within_tolerance(traced):
    _, _, metrics, _ = traced
    assert metrics["sim.batch.max_rel_err"] <= suite.BATCH_RTOL


def test_wrappers_are_gone_after_the_traced_run(traced):
    name, _, _, left = traced
    assert left == [], f"{name}: {left}"


#: Every module that binds ``fingerprint`` by name.
FINGERPRINT_BINDINGS = (
    "repro.exec.fingerprint",
    "repro.exec",
    "repro.exec.sweep",
    "repro.exec.batch_sweep",
    "repro.scenarios.spec",
)


def test_every_binding_of_a_function_is_wrapped_and_fires():
    modules = [importlib.import_module(name) for name in FINGERPRINT_BINDINGS]
    original = modules[0].fingerprint
    tracer = Tracer()
    tracer.install()
    try:
        for module in modules:
            assert hasattr(module.fingerprint, MARK), module.__name__
            module.fingerprint({"probe": module.__name__})
    finally:
        tracer.uninstall()
    assert [row[0] for row in tracer.spans] == ["exec.fingerprint"] * len(modules)
    assert all(module.fingerprint is original for module in modules)
    assert installed_wrappers() == []


def test_comm_calls_count_once_through_super():
    from repro.mpi.comm import Comm

    class Delegating(Comm):
        def wait(self, handle):
            return super().wait(handle)

    tracer = Tracer()
    tracer.install()
    try:
        # Comm methods are generator functions: calling one only builds
        # the generator, which is all the counting wrapper sees.
        Delegating(0, 2).wait(None)
        Comm(0, 2).wait(None)
        Delegating(0, 2).isend(1, nbytes=8)
    finally:
        tracer.uninstall()
    assert tracer.counts["mpi.comm.wait"] == 2
    assert tracer.counts["mpi.comm.isend"] == 1
    assert "wait" in vars(Delegating) and not hasattr(vars(Delegating)["wait"], MARK)


def test_a_boundary_the_program_no_longer_has_is_skipped(monkeypatch):
    import repro.scenarios.packs as packs
    import repro.sim.batch as batch

    monkeypatch.delattr(packs, "validation_pack")
    monkeypatch.delattr(batch, "ReplayStats")
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == ["repro.scenarios.packs.validation_pack"]
        # Without ReplayStats the replay boundary is timed but its
        # column counts are not read.
        assert hasattr(batch.replay_grid, MARK)
    finally:
        tracer.uninstall()
    assert installed_wrappers() == []
