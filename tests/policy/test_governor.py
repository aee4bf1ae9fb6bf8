"""The runtime's gear governor against the communicator-level oracle.

``World(policies=...)`` shifts gears around a program's own requests.
:class:`tests.policy.oracle.PolicyComm` did the same from inside the
program, with ``SetGear`` and ``Now`` requests.  Generated programs run
through both, under every policy family, with and without a gear-switch
stall and with fast-forward off and on, must agree bit for bit: times,
energies, active and reducible time, every trace row and meter
interval, every rank's ``gear_change`` events, each policy's calls in
order, and the fast-forward counters.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.machines import athlon_cluster
from repro.core.run import run_workload
from repro.experiments.policies import policies
from repro.mpi.fastforward import FastForwardConfig
from repro.mpi.requests import Now, SetGear
from repro.mpi.world import World
from repro.obs import RunObserver
from repro.policy import (
    IdleLowPolicy,
    PowerBudgetPolicy,
    SlackPolicy,
    SlackThresholdPolicy,
    StaticPolicy,
)
from repro.workloads import CG, Jacobi
from repro.workloads.synthetic import SyntheticMemoryPressure
from tests.exec.test_golden_artifacts import GOLDEN_SCALE
from tests.mpi.test_exchange import (
    _cases,
    _Generated,
    _link,
    _measured,
    _observed,
)
from tests.policy.oracle import oracle_world

#: Every policy family, by node count, with knobs that make it act on
#: short programs.  The budget rations: 115 W a node lies between the
#: slowest gear's worst case (94 W) and the fastest's (152.5 W).
FAMILIES = {
    "static": lambda nodes: StaticPolicy(3),
    "idle-low": lambda nodes: IdleLowPolicy(),
    "trial-slack": lambda nodes: SlackPolicy(window=2),
    "slack-threshold": lambda nodes: SlackThresholdPolicy(threshold_s=1e-4),
    "slack-threshold-hyst": lambda nodes: SlackThresholdPolicy(
        threshold_s=1e-4, hysteresis=2
    ),
    "power-budget": lambda nodes: PowerBudgetPolicy(cap_w=115.0 * nodes),
}


class _GearLog(RunObserver):
    """Records every gear_change event."""

    def __init__(self):
        self.events = []

    def gear_change(self, rank, time, gear, old=None):
        self.events.append((rank, time, gear, old))


def _logged(instances):
    """Per-rank logs of every policy call, in order, with its result."""
    logs = []
    for policy in instances:
        log = []
        logs.append(log)
        for name in ("compute_gear", "blocked_gear", "observe_wait"):
            method = getattr(policy, name)

            def logging(*args, _method=method, _name=name, _log=log):
                value = _method(*args)
                _log.append((_name, args, value))
                return value

            setattr(policy, name, logging)
    return logs


def _with_latency(cluster, latency):
    cpu = dataclasses.replace(cluster.node.cpu, gear_switch_latency=latency)
    return dataclasses.replace(
        cluster, node=dataclasses.replace(cluster.node, cpu=cpu)
    )


def _governed(cluster, nodes, program, family, fast_forward, *, oracle):
    instances = FAMILIES[family](nodes).prepare(cluster, nodes)
    logs = _logged(instances)
    gears = _GearLog()
    kwargs = dict(nodes=nodes, observer=gears, fast_forward=fast_forward)
    if oracle:
        world = oracle_world(cluster, program, policies=instances, **kwargs)
    else:
        world = World(cluster, program, gear=1, policies=instances, **kwargs)
    result = world.run()
    return (
        _measured(result),
        _observed(result),
        result.fast_forward,
        gears.events,
        logs,
    )


#: A 4-rank loop of every phase kind, long enough to fast-forward.
_EVERY_PHASE_CASE = (
    athlon_cluster(),
    4,
    1,
    [
        ("compute", [(2.5e7, 2.0e5), (4.0e7, 0.0), (1.0e6, 0.0), (2.5e7, 0.0)]),
        ("waitall", [1, 2, 3, 0], 4096),
        ("sendrecv", [1, 0, 3, 2], 64, [False] * 4),
        ("send", [2, 3, 0, 1], 64, [(1.0e6, 0.0)] * 4),
        ("pair", [3, 0, 1, 2], 150_000),
        ("blocking", [1, 2, 3, 0], 0),
        ("barrier",),
        ("allreduce", 64),
        ("allgather", 64),
        ("alltoall", 4096),
    ],
    14,
)


#: Budget grants settle after the warmup iteration here, so the gear a
#: rank ends its warmup at differs from the one it ends later iterations
#: at.  A signature that saw each compute at the gear before the
#: governor's shift would carry that difference into the reference
#: iteration and deviate where the oracle does not.
_CARRIED_GEAR_CASE = (
    _link(0.0, 1),
    3,
    1,
    [
        ("compute", [(1.0e6, 0.0), (1.0e6, 0.0), (1.0e6, 2.0e5)]),
        ("send", [0, 1, 2], 0, [(1.0e6, 0.0)] * 3),
        ("send", [0, 1, 2], 0, [(1.0e6, 0.0)] * 3),
        ("allreduce", 0),
    ],
    14,
)


@given(
    case=_cases(min_nodes=2, max_nodes=6),
    family=st.sampled_from(sorted(FAMILIES)),
    latency=st.sampled_from((0.0, 1e-4)),
)
@example(case=_EVERY_PHASE_CASE, family="trial-slack", latency=1e-4)
@example(case=_EVERY_PHASE_CASE, family="power-budget", latency=0.0)
@example(case=_CARRIED_GEAR_CASE, family="power-budget", latency=0.0)
@settings(max_examples=100, deadline=None)
def test_governor_matches_policy_comm(case, family, latency):
    cluster, nodes, _gear, phases, iterations = case
    cluster = _with_latency(cluster, latency)
    program = _Generated(phases, iterations, raw=False).program
    for fast_forward in (None, FastForwardConfig(max_period=2)):
        ours = _governed(cluster, nodes, program, family, fast_forward, oracle=False)
        oracle = _governed(cluster, nodes, program, family, fast_forward, oracle=True)
        assert ours == oracle


def test_every_phase_case_shifts_and_jumps():
    # The property compares gear events and fast-forward counters; make
    # sure its programs shift gears, stall on the switch and jump, so
    # those comparisons are not vacuous.
    cluster, nodes, _gear, phases, iterations = _EVERY_PHASE_CASE
    program = _Generated(phases, iterations, raw=False).program
    measured, observed, stats, events, logs = _governed(
        _with_latency(cluster, 1e-4),
        nodes,
        program,
        "idle-low",
        FastForwardConfig(max_period=2),
        oracle=False,
    )
    assert len(events) > 100
    assert stats.jumps > 0
    assert any(
        record.op == "set_gear" and record.t_exit > record.t_enter
        for records, _ in observed
        for record in records
    )
    assert all(any(name == "observe_wait" for name, *_ in log) for log in logs)


@pytest.mark.parametrize("workload", [Jacobi, CG, SyntheticMemoryPressure])
@pytest.mark.parametrize("nodes", [2, 4])
def test_static_gear_1_is_the_plain_gear_1_run(workload, nodes):
    # The policy zoo's baseline cells are plain gear-1 measurements:
    # a static gear-1 policy on a World that starts at gear 1 never
    # shifts, so its run must be bit for bit the plain one.
    cluster = athlon_cluster()
    plain = run_workload(cluster, workload(scale=0.05), nodes=nodes, gear=1)
    managed = run_workload(
        cluster, workload(scale=0.05), nodes=nodes, policy=StaticPolicy(1)
    )
    assert _measured(managed.result) == _measured(plain.result)


def test_managed_programs_yield_no_gear_requests(monkeypatch):
    # The governor shifts gears inside the runtime: the policies
    # experiment's programs yield no SetGear or Now, and every switch is
    # the governor's.  Their number is the count of gear-changing SetGear
    # requests the programs yielded when the policy layer lived in their
    # communicator.
    yielded = []
    switches = []
    for table in (World._HANDLERS, World._GOVERNED_HANDLERS):
        for cls in (SetGear, Now):
            handler = table[cls]

            def counting(world, rt, request, _handler=handler):
                yielded.append(request)
                return _handler(world, rt, request)

            monkeypatch.setitem(table, cls, counting)
    switch_gear = World._switch_gear

    def counting_switch(world, rt, gear):
        switches.append(gear != rt.node.gear.index)
        return switch_gear(world, rt, gear)

    monkeypatch.setattr(World, "_switch_gear", counting_switch)
    policies(scale=GOLDEN_SCALE)
    assert yielded == []
    assert sum(switches) == 2284
