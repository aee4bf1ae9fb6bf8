"""Differential policy-conformance matrix.

Every policy family is run over a workload grid and checked against the
zoo's cross-policy contracts:

- *cap respect*: a power-budget run never exceeds its cap in any
  coalesced power-meter window (``audit_cluster_power``);
- *time bound*: compute-at-full-speed policies (slack-threshold) never
  run slower than the static full-gear baseline beyond float noise;
- *energy ordering*: adaptive policies never spend more energy than the
  static full-gear baseline on the same workload;
- *dispatch determinism*: a serial executor and a parallel chunked
  executor produce byte-identical artifacts for every policy scenario.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster.machines import athlon_cluster
from repro.core.run import run_workload
from repro.exec import Executor
from repro.policy import (
    PowerBudgetPolicy,
    SlackThresholdPolicy,
    StaticPolicy,
    audit_cluster_power,
)
from repro.scenarios import REGISTRY
from repro.workloads import CG, Jacobi, SyntheticMemoryPressure

CLUSTER = athlon_cluster()

#: The differential grid: every (workload, nodes) cell is simulated
#: under the static baseline and each adaptive family.
GRID = [
    ("jacobi", lambda: Jacobi(scale=0.05), 2),
    ("jacobi", lambda: Jacobi(scale=0.05), 4),
    ("cg", lambda: CG(scale=0.05), 2),
    ("cg", lambda: CG(scale=0.05), 4),
    ("synthetic", lambda: SyntheticMemoryPressure(scale=0.05), 4),
]

CAPS = (450.0, 620.0)

REL_TOL = 1e-9


def run(workload, nodes, policy):
    return run_workload(CLUSTER, workload, nodes=nodes, policy=policy)


def totals(measurement):
    return measurement.time, measurement.energy


@pytest.mark.parametrize("name,make,nodes", GRID, ids=lambda v: str(v))
class TestDifferentialMatrix:
    def test_slack_threshold_never_slower_than_static(self, name, make, nodes):
        base_t, base_e = totals(run(make(), nodes, StaticPolicy(1)))
        t, e = totals(
            run(make(), nodes, SlackThresholdPolicy(threshold_s=1e-4))
        )
        assert t <= base_t * (1 + REL_TOL)
        assert e <= base_e * (1 + REL_TOL)

    def test_power_budget_respects_every_cap(self, name, make, nodes):
        for cap in CAPS:
            if cap == 450.0 and nodes < 4:
                continue  # wide headroom only; 450 W is trivially loose
            measurement = run(make(), nodes, PowerBudgetPolicy(cap_w=cap))
            audit = audit_cluster_power(measurement.result)
            assert audit.windows > 0
            assert audit.within(cap), (
                f"{name}/{nodes}n cap {cap:.0f} W exceeded: "
                f"{audit.peak_watts:.1f} W in "
                f"[{audit.peak_start:.3f}, {audit.peak_end:.3f}]"
            )

    def test_static_baseline_breaks_loose_caps(self, name, make, nodes):
        """The audit is not vacuous: an uncapped full-gear run draws more
        than the tight cap whenever the budget run had to throttle."""
        measurement = run(make(), nodes, StaticPolicy(1))
        audit = audit_cluster_power(measurement.result)
        envelope_floor = nodes * 94.3
        assert audit.peak_watts > envelope_floor


def _policy_specs():
    specs = [
        s for s in REGISTRY.build("policy-zoo") if s.policy is not None
    ]
    assert specs, "policy-zoo pack produced no policy scenarios"
    return specs


def _artifact(spec, executor):
    tasks = list(spec.tasks())
    outcomes = executor.run(tasks)
    payload = [
        {"task": t.describe(), "outcome": t.encode(o)}
        for t, o in zip(tasks, outcomes)
    ]
    return json.dumps(payload, indent=2, sort_keys=True)


class TestDispatchDeterminism:
    def test_parallel_chunked_matches_serial_bytes(self):
        serial = Executor(jobs=1, cache=None)
        parallel = Executor(jobs=4, chunk_size=8, cache=None)
        for spec in _policy_specs():
            assert _artifact(spec, serial) == _artifact(spec, parallel), (
                f"{spec.name}: parallel dispatch changed the artifact"
            )

    def test_rerun_is_deterministic(self):
        serial = Executor(jobs=1, cache=None)
        spec = _policy_specs()[0]
        assert _artifact(spec, serial) == _artifact(spec, serial)
