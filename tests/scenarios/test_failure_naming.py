"""Sweep failures name the scenario that produced the failing point.

The scenario name lives only on the caller's task object (provenance,
``compare=False``), so the regression of interest is the *process
boundary*: a chunked pool worker reports failures by chunk-local index,
and the caller must still resolve the right scenario name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import pytest

from repro.exec import RunTask, sweep
from repro.exec.sweep import _point_error
from repro.scenarios.spec import (
    KIND_MEASUREMENT,
    ScenarioSpec,
    WorkloadRef,
)
from repro.util.errors import SimulationError


@dataclass(frozen=True)
class ExplodingScenarioTask(RunTask):
    """A failing point carrying scenario provenance (picklable)."""

    label: str
    scenario: str | None = field(default=None, compare=False)

    @property
    def key(self) -> tuple:
        return ("exploding", self.label)

    def describe(self) -> Any:
        return {"kind": "exploding", "label": self.label}

    def run(self, observer: Any = None) -> Any:
        raise ValueError(f"boom in {self.label}")

    def encode(self, result: Any) -> Any:  # pragma: no cover - never succeeds
        return result

    def decode(self, payload: Any) -> Any:  # pragma: no cover - never succeeds
        return payload


class TestScenarioFailureNaming:
    def test_inline_failure_names_the_scenario(self):
        tasks = [ExplodingScenarioTask("a", scenario="packs/strong-17")]
        with pytest.raises(
            SimulationError, match=r"of scenario 'packs/strong-17'"
        ) as info:
            sweep(tasks)
        assert isinstance(info.value.__cause__, ValueError)

    def test_pooled_chunked_failure_names_the_scenario(self):
        """The name survives the pickle boundary via the caller's task."""
        tasks = [
            ExplodingScenarioTask("a", scenario="packs/ckpt-3"),
            ExplodingScenarioTask("b", scenario="packs/ckpt-4"),
            ExplodingScenarioTask("c", scenario="packs/ckpt-5"),
            ExplodingScenarioTask("d", scenario="packs/ckpt-6"),
        ]
        with pytest.raises(SimulationError, match=r"of scenario 'packs/"):
            sweep(tasks, jobs=2, chunk_size=2)

    def test_tasks_without_scenario_keep_the_old_message(self):
        error = _point_error(ExplodingScenarioTask("a"), ValueError("x"))
        assert "of scenario" not in str(error)
        assert "('exploding', 'a')" in str(error)

    def test_spec_expanded_task_failure_is_attributed(self):
        """A real scenario-built point that fails at run time is named.

        BT requires perfect-square rank counts; expanding it onto 2
        nodes builds fine and fails in the worker.
        """
        spec = ScenarioSpec(
            name="bad/BT-on-2",
            kind=KIND_MEASUREMENT,
            workload=WorkloadRef("BT", (("scale", 0.05),)),
            nodes=(2,),
        )
        with pytest.raises(SimulationError, match=r"of scenario 'bad/BT-on-2'"):
            sweep(spec.tasks(), jobs=2, chunk_size=1)
