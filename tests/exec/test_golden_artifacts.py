"""Golden-artifact regression tests.

Every paper artifact is regenerated at a reduced scale and compared
*byte for byte* against a committed golden JSON file.  This pins down
the full-precision determinism of the simulation engine — the property
the result cache and the parallel sweep both rely on: if these tests
pass, replaying a point from disk or computing it in a worker process
is indistinguishable from computing it inline.

When an intentional change shifts the numbers, regenerate the goldens
and commit the diff::

    PYTHONPATH=src python -m pytest tests/exec/test_golden_artifacts.py \
        --update-goldens

(The run *fails* after rewriting any file so a stale-golden refresh can
never silently pass in CI; rerun without the flag to verify.)
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.exec import Executor, ResultCache
from repro.mpi import FastForwardConfig
from repro.mpi.world import World
from repro.experiments import (
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    policies,
    table1,
)
from repro.reporting import result_to_dict

#: Scale the goldens are generated at — small enough to run in seconds,
#: large enough that every workload still takes >= 3 iterations.
GOLDEN_SCALE = 0.05

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: Relative tolerance of batch artifacts against the event goldens.
BATCH_RTOL = 1e-9

EXPERIMENTS = {
    "figure1": figure1,
    "table1": table1,
    "figure2": figure2,
    "figure3": figure3,
    "figure4": figure4,
    "figure5": figure5,
    "policies": policies,
}


def render_artifact(name: str, executor: Executor | None = None) -> str:
    """One experiment's exported JSON, exactly as ``write_result`` writes it."""
    kwargs = {"executor": executor} if executor is not None else {}
    result = EXPERIMENTS[name](scale=GOLDEN_SCALE, **kwargs)
    return json.dumps(result_to_dict(result), indent=2, sort_keys=True)


@pytest.fixture(scope="module")
def update_goldens(request) -> bool:
    return request.config.getoption("--update-goldens")


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_artifact_matches_golden(name, update_goldens):
    """The regenerated artifact is byte-identical to the committed golden."""
    path = GOLDEN_DIR / f"{name}.json"
    text = render_artifact(name)
    if update_goldens:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        pytest.fail(
            f"golden {path.name} rewritten; rerun without --update-goldens",
            pytrace=False,
        )
    if not path.exists():
        pytest.fail(
            f"missing golden {path}; generate it with --update-goldens",
            pytrace=False,
        )
    assert text == path.read_text(), (
        f"{name} artifact drifted from its golden; if intentional, rerun "
        "with --update-goldens and commit the diff"
    )


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_chunked_parallel_artifact_matches_golden(name):
    """``--jobs 4 --chunk-size 8`` reproduces the golden byte for byte.

    Chunk boundaries must never leak into results or merge order: a
    chunked parallel sweep is indistinguishable from a serial run.
    """
    path = GOLDEN_DIR / f"{name}.json"
    if not path.exists():
        pytest.skip(f"golden {path.name} not generated yet")
    text = render_artifact(name, executor=Executor(jobs=4, chunk_size=8))
    assert text == path.read_text(), (
        f"{name}: chunked parallel artifact differs from the serial golden"
    )


@pytest.mark.parametrize(
    "name,fast_forward",
    [
        pytest.param(name, fast_forward, id=name + suffix)
        for name in sorted(EXPERIMENTS)
        for fast_forward, suffix in ((None, ""), (FastForwardConfig(), "-ff"))
    ],
)
def test_chunked_parallel_batch_artifact_matches_serial_batch(name, fast_forward):
    """The batch backend's pooled dispatch merges like its serial one.

    Chunks count batch groups, so ``--jobs 4 --chunk-size 8`` under
    ``--backend batch`` must reproduce the serial batch artifact byte
    for byte, plain and with fast-forwarded recordings (batch artifacts
    agree with the event goldens only to ~1e-9, so they are compared
    with each other, not with the goldens).
    """
    serial = render_artifact(
        name, executor=Executor(backend="batch", fast_forward=fast_forward)
    )
    pooled = render_artifact(
        name,
        executor=Executor(
            backend="batch", jobs=4, chunk_size=8, fast_forward=fast_forward
        ),
    )
    assert pooled == serial, (
        f"{name}: chunked parallel batch artifact differs from serial batch"
    )


def _assert_close(golden, got, path=""):
    """Same structure and non-float values; floats within BATCH_RTOL."""
    if isinstance(golden, float) or isinstance(got, float):
        numeric = (int, float)
        assert type(golden) in numeric and type(got) in numeric, path
        scale = max(abs(golden), abs(got))
        assert abs(golden - got) <= BATCH_RTOL * scale, (
            f"{path}: golden {golden!r}, batch {got!r}"
        )
    elif isinstance(golden, dict):
        assert isinstance(got, dict) and golden.keys() == got.keys(), path
        for key in golden:
            _assert_close(golden[key], got[key], f"{path}/{key}")
    elif isinstance(golden, list):
        assert isinstance(got, list) and len(golden) == len(got), path
        for index, (ours, theirs) in enumerate(zip(golden, got)):
            _assert_close(ours, theirs, f"{path}/{index}")
    else:
        assert type(golden) is type(got) and golden == got, path


@pytest.mark.parametrize("fast_forward", [False, True], ids=["plain", "ff"])
@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_batch_artifact_matches_golden(name, fast_forward):
    """The batch backend reproduces each event golden to 1e-9.

    Plain recordings and fast-forward recordings both: batch results are
    checked against the event engine's own artifacts, not only against
    other batch runs.
    """
    path = GOLDEN_DIR / f"{name}.json"
    if not path.exists():
        pytest.skip(f"golden {path.name} not generated yet")
    executor = Executor(
        backend="batch",
        fast_forward=FastForwardConfig() if fast_forward else None,
    )
    got = json.loads(render_artifact(name, executor=executor))
    _assert_close(json.loads(path.read_text()), got)


def test_regeneration_is_deterministic():
    """Two fresh in-process runs of one artifact are byte-identical.

    This isolates engine determinism from golden staleness: it fails only
    if the simulator itself is nondeterministic.
    """
    assert render_artifact("table1") == render_artifact("table1")


def test_cached_suite_simulates_each_run_once(tmp_path, monkeypatch):
    """The seven experiments through one cached executor simulate 231 runs.

    That is 192 fixed-gear runs plus the 39 policy runs: every Table 1
    and Figure 5 run repeats a Figure 1 or Figure 2 run, and the result
    cache serves it.  Caching whole points instead of runs simulated 307
    (268 + 39).  A second pass over the same cache simulates and stores
    nothing.  Both passes reproduce the goldens byte for byte.
    """
    simulated = []
    world_run = World.run

    def counting_run(world):
        simulated.append(world.nodes)
        return world_run(world)

    monkeypatch.setattr(World, "run", counting_run)
    executor = Executor(cache=ResultCache(root=tmp_path))
    for _ in range(2):
        for name in EXPERIMENTS:
            golden = (GOLDEN_DIR / f"{name}.json").read_text()
            assert render_artifact(name, executor=executor) == golden, name
        assert len(simulated) == 231
        assert executor.stats.stores == 231
    assert executor.stats.misses == 231
