"""Golden-trace snapshot test for the Chrome trace export.

A small policy-managed Jacobi run is traced and its Chrome trace-event
JSON compared *byte for byte* against a committed golden.  This pins
the full export pipeline — run labelling, per-rank slices, gear-change
markers, power counter tracks, the serializer's key ordering — exactly
as ``tests/exec/test_golden_artifacts.py`` pins the numeric artifacts.

When an intentional change shifts the trace, regenerate and commit::

    PYTHONPATH=src python -m pytest tests/obs/test_golden_trace.py \
        --update-goldens

(The run *fails* after rewriting the file so a stale-golden refresh can
never silently pass in CI; rerun without the flag to verify.)
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cluster.machines import athlon_cluster
from repro.core.run import run_workload
from repro.obs import TraceObserver
from repro.policy.adaptive import IdleLowPolicy
from repro.workloads.jacobi import Jacobi

#: Small enough to run in well under a second, large enough that the
#: trace contains compute slices, waits, a collective, and real
#: gear-change markers from the idle-low policy.
GOLDEN_SCALE = 0.03

GOLDEN_DIR = Path(__file__).parent / "goldens"
GOLDEN = GOLDEN_DIR / "jacobi-policy.trace.json"


def render_trace(tmp_path: Path) -> str:
    """The traced Jacobi run's Chrome trace JSON, byte for byte."""
    observer = TraceObserver(tmp_path)
    run_workload(
        athlon_cluster(),
        Jacobi(scale=GOLDEN_SCALE),
        nodes=2,
        policy=IdleLowPolicy(),
        observer=observer,
    )
    assert len(observer.written) == 1
    return observer.written[0].read_text()


@pytest.fixture()
def update_goldens(request) -> bool:
    """Whether ``--update-goldens`` was passed (shared tests/ option)."""
    return request.config.getoption("--update-goldens")


def test_trace_matches_golden(tmp_path, update_goldens):
    """The regenerated trace is byte-identical to the committed golden."""
    text = render_trace(tmp_path)
    if update_goldens:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(text)
        pytest.fail(
            f"golden {GOLDEN.name} rewritten; rerun without --update-goldens",
            pytrace=False,
        )
    if not GOLDEN.exists():
        pytest.fail(
            f"missing golden {GOLDEN}; generate it with --update-goldens",
            pytrace=False,
        )
    assert text == GOLDEN.read_text(), (
        "Chrome trace drifted from its golden; if intentional, rerun "
        "with --update-goldens and commit the diff"
    )


def test_golden_trace_is_well_formed():
    """The committed golden parses and carries the expected track kinds."""
    if not GOLDEN.exists():
        pytest.skip("golden not generated yet")
    document = json.loads(GOLDEN.read_text())
    events = document["traceEvents"]
    phases = {e["ph"] for e in events}
    assert {"M", "X", "C"} <= phases
    # Gear-change markers from the idle-low policy appear as instants.
    instants = [e for e in events if e["ph"] == "i"]
    assert any(e["name"].startswith("gear ->") for e in instants)
    # Both ranks have compute slices.
    tids = {e["tid"] for e in events if e["ph"] == "X"}
    assert {0, 1} <= tids


def test_tracing_is_deterministic(tmp_path):
    """Two fresh traced runs are byte-identical (observer side-effect-free)."""
    assert render_trace(tmp_path / "a") == render_trace(tmp_path / "b")
