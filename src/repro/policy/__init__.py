"""Adaptive DVFS policies — the paper's future work, implemented.

Section 5 of the paper sketches two follow-ons this package provides:

- the *node bottleneck*: "early-arriving nodes can be scaled down with
  little or no performance degradation" — :class:`SlackPolicy` watches
  each rank's blocking time and shifts chronically-early ranks to lower
  gears;
- "a new MPI implementation that will automatically monitor executing
  programs and automatically reduce the energy gear appropriately" —
  the runtime's gear governor is that MPI layer:
  ``run_workload(..., policy=...)`` (:func:`repro.core.run.run_workload`)
  hands :class:`repro.mpi.world.World` one :class:`GearPolicy` per rank,
  and the World consults it around compute and blocking operations and
  shifts gears on the program's behalf, leaving the program unchanged.

The policy zoo (see ``docs/POLICIES.md``):

====================  ==================================================
StaticPolicy          fixed gear (the baseline the paper measures)
IdleLowPolicy         drop to a low gear while blocked in MPI, restore
                      for compute (saves idle power during communication)
SlackPolicy           IdleLowPolicy plus per-window trial-and-revert
                      monitoring: ranks with persistent *compute* slack
                      run their compute at lower gears too (the
                      node-bottleneck fix)
SlackThresholdPolicy  COUNTDOWN-style: compute at full speed, downshift
                      only inside MPI waits predicted longer than a
                      threshold, with timer-based hysteresis
PowerBudgetPolicy     cluster-wide power cap redistributed each round by
                      a shared BudgetArbiter: watts flow to the critical
                      path, clawed back from chronically-early ranks
====================  ==================================================

``POLICIES`` maps registry names (``static``, ``idle-low``,
``trial-slack``, ``slack-threshold``, ``power-budget``) to these
classes for scenario specs and the ``--policy`` CLI flags.
"""

from repro.policy.audit import PowerAudit, audit_cluster_power
from repro.policy.base import GearPolicy, StaticPolicy
from repro.policy.adaptive import IdleLowPolicy, SlackPolicy
from repro.policy.budget import BudgetArbiter, PowerBudgetPolicy
from repro.policy.countdown import SlackThresholdPolicy
from repro.policy.registry import POLICIES, build_policy

__all__ = [
    "GearPolicy",
    "StaticPolicy",
    "IdleLowPolicy",
    "SlackPolicy",
    "SlackThresholdPolicy",
    "PowerBudgetPolicy",
    "BudgetArbiter",
    "PowerAudit",
    "audit_cluster_power",
    "POLICIES",
    "build_policy",
]
