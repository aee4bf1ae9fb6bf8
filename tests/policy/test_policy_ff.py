"""Fast-forward equivalence for policy-managed runs.

Once an adaptive policy settles (slack-threshold's predictor converges,
the budget arbiter's grants converge), a policy run is as
periodic as a static one — the steady-state detector must engage and
the macro-stepped run must agree with full event-by-event simulation to
1e-9 relative, exactly the bound the static fast-forward suite pins.

The detector needs about ``2 * max_period`` iterations of history
before it can jump, so the period bound is kept small enough for these
short runs to engage.
"""

from __future__ import annotations

import pytest

from repro.cluster.machines import athlon_cluster
from repro.core.run import run_workload
from repro.mpi.fastforward import FastForwardConfig
from repro.policy import (
    IdleLowPolicy,
    PowerBudgetPolicy,
    SlackThresholdPolicy,
    StaticPolicy,
)
from repro.workloads import CG, Jacobi

CLUSTER = athlon_cluster()
RTOL = 1e-9

#: (policy factory, workload scale, detector period bound) per family.
CASES = [
    ("static-g2", lambda: StaticPolicy(2), 0.2, 4),
    ("idle-low", lambda: IdleLowPolicy(), 0.2, 4),
    (
        "slack-threshold",
        lambda: SlackThresholdPolicy(threshold_s=1e-4),
        0.2,
        4,
    ),
    # A balanced budget: 620 W fits every rank at gear 1 and the
    # claw threshold sits above the run's slack fractions, so
    # grants converge to a fixed vector and signatures stay
    # stable.  (Under cap pressure grants cycle, which the
    # signature detector rightly treats as a deviation and never
    # jumps — exact, just unaccelerated.)
    (
        "power-budget",
        lambda: PowerBudgetPolicy(cap_w=620.0, claw_threshold=0.8),
        0.2,
        4,
    ),
]

WORKLOADS = [("jacobi", Jacobi), ("cg", CG)]


def measure(workload, policy, fast_forward=None):
    return run_workload(
        CLUSTER, workload, nodes=4, policy=policy, fast_forward=fast_forward
    )


@pytest.mark.parametrize("wname,make", WORKLOADS, ids=[w[0] for w in WORKLOADS])
@pytest.mark.parametrize(
    "pname,make_policy,scale,max_period", CASES, ids=[c[0] for c in CASES]
)
def test_fast_forward_agrees_with_full_simulation(
    wname, make, pname, make_policy, scale, max_period
):
    full = measure(make(scale=scale), make_policy())
    config = FastForwardConfig(max_period=max_period)
    jumped = measure(make(scale=scale), make_policy(), fast_forward=config)
    assert jumped.time == pytest.approx(full.time, rel=RTOL)
    assert jumped.energy == pytest.approx(full.energy, rel=RTOL)
    assert jumped.active_time == pytest.approx(full.active_time, rel=RTOL)
    if wname == "jacobi":
        # Jacobi settles for every family; the equivalence above must
        # not be vacuous.  (CG's rotating bottleneck is checked for
        # agreement only — whether it engages depends on the period.)
        assert jumped.result.fast_forward.skipped_iterations > 0, (
            f"{pname}: steady-state detector never engaged"
        )
