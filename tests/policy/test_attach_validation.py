"""Attach-time gear validation (regression).

A policy configured for a deeper gear table than the target cluster
used to sail through attachment and send an out-of-range ``SetGear``
mid-run.  :meth:`GearPolicy.prepare` now validates every configured
gear against the cluster *before* any simulation runs — these tests pin
the failure to attach time for every family.
"""

import pytest

from repro.cluster.machines import athlon_cluster, reference_cluster
from repro.core.run import run_workload
from repro.policy import (
    IdleLowPolicy,
    PowerBudgetPolicy,
    SlackPolicy,
    SlackThresholdPolicy,
    StaticPolicy,
)
from repro.util.errors import ConfigurationError
from repro.workloads import Jacobi

CLUSTER = athlon_cluster()  # six gears

OUT_OF_RANGE = [
    ("static", StaticPolicy(gear=7), "static gear 7"),
    ("idle-low-compute", IdleLowPolicy(compute_gear=8), "compute gear 8"),
    ("idle-low-idle", IdleLowPolicy(idle_gear=9), "idle gear 9"),
    ("trial-slack-max", SlackPolicy(max_gear=7), "max gear 7"),
    ("trial-slack-idle", SlackPolicy(idle_gear=11), "idle gear 11"),
    (
        "slack-threshold",
        SlackThresholdPolicy(idle_gear=7),
        "idle gear 7",
    ),
    (
        "power-budget",
        PowerBudgetPolicy(cap_w=1e6, idle_gear=7),
        "idle gear 7",
    ),
]


@pytest.mark.parametrize(
    "policy,message",
    [(p, m) for _, p, m in OUT_OF_RANGE],
    ids=[label for label, _, _ in OUT_OF_RANGE],
)
class TestAttachTimeValidation:
    def test_prepare_rejects_out_of_range_gear(self, policy, message):
        with pytest.raises(ConfigurationError, match=message):
            policy.prepare(CLUSTER, 2)

    def test_run_with_policy_fails_before_simulating(self, policy, message):
        """The regression: the run must die at attach, not mid-run with
        a gear-table IndexError."""
        with pytest.raises(ConfigurationError, match=message):
            run_workload(
                CLUSTER, Jacobi(scale=0.05), nodes=2, policy=policy
            )


def test_single_gear_cluster_rejects_deep_policies():
    """The reference cluster has one gear; gear-2 policies cannot attach."""
    sun = reference_cluster(4)
    with pytest.raises(ConfigurationError, match="idle gear 6"):
        IdleLowPolicy().prepare(sun, 2)


def test_in_range_policies_attach_cleanly():
    for policy in (
        StaticPolicy(gear=6),
        IdleLowPolicy(compute_gear=1, idle_gear=6),
        SlackPolicy(max_gear=6),
        SlackThresholdPolicy(idle_gear=6),
    ):
        ranks = policy.prepare(CLUSTER, 3)
        assert len(ranks) == 3
