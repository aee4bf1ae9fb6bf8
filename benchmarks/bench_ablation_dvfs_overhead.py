"""ABL-4: DVFS transition cost vs adaptive-policy benefit.

The paper's per-run static gears never pay a transition; an adaptive
runtime shifts around every blocking operation.  On PowerNow!-class
hardware a frequency/voltage transition stalls the core ~100 us, so the
idle-low policy's profit depends on how its per-shift cost compares to
each blocked interval's idle-power saving.  This ablation sweeps the
transition latency and reports the policies' energy/time deltas.
"""

from conftest import run_once

from repro.cluster.machines import athlon_cluster
from repro.core.run import run_workload
from repro.policy import IdleLowPolicy, SlackPolicy
from repro.util.tables import TextTable
from repro.workloads.nas import CG, LU

LATENCIES = (0.0, 100e-6, 1e-3)


def _run_ablation(scale):
    rows = []
    for latency in LATENCIES:
        cluster = athlon_cluster(gear_switch_latency=latency)
        for workload_cls in (CG, LU):
            workload = workload_cls(scale)
            base = run_workload(cluster, workload, nodes=8, gear=1)
            idle = run_workload(
                cluster, workload, nodes=8, policy=IdleLowPolicy()
            )
            slack = run_workload(
                cluster, workload, nodes=8, policy=SlackPolicy()
            )
            rows.append((latency, workload.name, base, idle, slack))
    return rows


def test_ablation_dvfs_overhead(benchmark, bench_scale):
    """Policy deltas vs gear-transition latency (0 / 100 us / 1 ms)."""
    rows = run_once(benchmark, _run_ablation, bench_scale)
    table = TextTable(
        [
            "switch latency",
            "code",
            "idle-low dT",
            "idle-low dE",
            "trial-slack dT",
            "trial-slack dE",
        ],
        title="Ablation: DVFS transition cost vs adaptive-policy benefit",
    )
    for latency, name, base, idle, slack in rows:
        table.add_row(
            [
                f"{latency * 1e6:.0f} us",
                name,
                f"{idle.time / base.time - 1:+.2%}",
                f"{idle.energy / base.energy - 1:+.2%}",
                f"{slack.time / base.time - 1:+.2%}",
                f"{slack.energy / base.energy - 1:+.2%}",
            ]
        )
    print()
    print(table.render())
    # At zero latency the idle-low policy is free; at 1 ms per shift it
    # must cost time.
    zero = [r for r in rows if r[0] == 0.0]
    heavy = [r for r in rows if r[0] == 1e-3]
    for _, name, base, idle, _ in zero:
        assert idle.time <= base.time * 1.001
    assert any(idle.time > base.time * 1.001 for _, _, base, idle, _ in heavy)
