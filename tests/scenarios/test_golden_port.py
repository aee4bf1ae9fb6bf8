"""The scenario port of the paper experiments stays byte-identical.

The experiment modules now expand their tasks from scenario specs
(:mod:`repro.scenarios.paper`).  These tests pin the port against the
committed goldens under the dispatch modes the spec layer must not
perturb — plain parallel (auto-chunked) and tiny-chunk parallel — and
prove the declarative layer itself is transparent: specs serialized to
JSON and rebuilt expand to tasks with the exact cache keys of the
originals.

(Serial and ``jobs=4 chunk_size=8`` equivalence is pinned by
``tests/exec/test_golden_artifacts.py``; these add the remaining modes
on the scenario side.)
"""

from __future__ import annotations

import pytest

from repro.exec import Executor
from repro.exec.sweep import cache_key
from repro.scenarios import REGISTRY, ScenarioSpec, expand
from repro.scenarios.paper import figure5_plans
from tests.exec.test_golden_artifacts import (
    EXPERIMENTS,
    GOLDEN_DIR,
    GOLDEN_SCALE,
    render_artifact,
)

MODES = {
    "jobs4-auto-chunk": dict(jobs=4),
    "jobs2-chunk1": dict(jobs=2, chunk_size=1),
}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
@pytest.mark.parametrize("mode", sorted(MODES))
def test_ported_artifact_matches_golden(name, mode):
    """Each ported experiment reproduces its golden in every mode."""
    path = GOLDEN_DIR / f"{name}.json"
    if not path.exists():
        pytest.skip(f"golden {path.name} not generated yet")
    text = render_artifact(name, executor=Executor(**MODES[mode]))
    assert text == path.read_text(), f"{name} under {mode} drifted"


@pytest.mark.parametrize(
    "name", ["figure1", "figure2", "figure3", "figure4", "table1"]
)
def test_serialized_specs_expand_to_identical_cache_keys(name):
    """JSON round-tripped specs are execution-equivalent to the originals."""
    specs = REGISTRY.build(name, scale=GOLDEN_SCALE)
    rebuilt = [ScenarioSpec.from_json(s.to_json()) for s in specs]
    original_keys = [cache_key(r) for t in expand(specs) for r in t.runs()]
    rebuilt_keys = [cache_key(r) for t in expand(rebuilt) for r in t.runs()]
    assert rebuilt_keys == original_keys


def test_figure5_plans_cover_the_experiment_grid():
    """Plans expose the same grids the experiment slices results by."""
    plans = figure5_plans(scale=GOLDEN_SCALE, validate=True)
    assert [p.workload for p in plans] == ["EP", "BT", "LU", "MG", "SP", "CG"]
    for plan in plans:
        assert plan.measured[0] == 1
        assert plan.truth is not None
        assert "ground-truth" in plan.truth.tags
        # specs expand in the order figure5 slices: measurements,
        # calibration, sweeps, truth.
        counts = [spec.points for spec in plan.specs]
        assert counts == [
            len(plan.measured),
            1,
            len(plan.measured),
            len(plan.targets),
        ]
