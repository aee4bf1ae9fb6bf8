"""Property-based tests of the timing/power model's physical invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cpu import ATHLON64_CPU, CPUPowerModel
from repro.cluster.disk import drpm_disk
from repro.cluster.gears import ATHLON64_GEARS
from repro.cluster.machines import athlon_node
from repro.cluster.memory import ATHLON64_MEMORY, ComputeBlock, MemoryModel
from repro.cluster.node import NodeState

#: Any physically sensible compute block.
blocks = st.builds(
    ComputeBlock,
    uops=st.floats(min_value=1.0, max_value=1e12),
    l2_misses=st.floats(min_value=0.0, max_value=1e10),
    miss_latency=st.one_of(
        st.none(), st.floats(min_value=1e-9, max_value=1e-6)
    ),
)

gear_pairs = st.tuples(
    st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6)
).filter(lambda ab: ab[0] < ab[1])


@given(block=blocks, pair=gear_pairs)
def test_paper_slowdown_bound(block, pair):
    """1 <= T_slow/T_fast <= f_fast/f_slow — the paper's §3.1 bound."""
    model = MemoryModel(ATHLON64_CPU, ATHLON64_MEMORY)
    fast, slow = ATHLON64_GEARS[pair[0]], ATHLON64_GEARS[pair[1]]
    ratio = model.duration(block, slow) / model.duration(block, fast)
    bound = fast.frequency_mhz / slow.frequency_mhz
    assert 1.0 - 1e-12 <= ratio <= bound + 1e-9


@given(block=blocks, pair=gear_pairs)
def test_upc_never_decreases_at_lower_gear(block, pair):
    """UPC is non-decreasing as frequency falls (equal iff no misses)."""
    model = MemoryModel(ATHLON64_CPU, ATHLON64_MEMORY)
    fast, slow = ATHLON64_GEARS[pair[0]], ATHLON64_GEARS[pair[1]]
    assert model.upc(block, slow) >= model.upc(block, fast) - 1e-12


@given(block=blocks)
def test_upc_bounded_by_issue_rate(block):
    model = MemoryModel(ATHLON64_CPU, ATHLON64_MEMORY)
    for gear in ATHLON64_GEARS:
        assert model.upc(block, gear) <= ATHLON64_CPU.issue_rate + 1e-9


@given(
    stall=st.floats(min_value=0.0, max_value=1.0),
    gear_index=st.integers(min_value=1, max_value=6),
)
def test_cpu_power_between_idle_and_peak(stall, gear_index):
    model = CPUPowerModel(ATHLON64_CPU)
    gear = ATHLON64_GEARS[gear_index]
    p = model.active_power(gear, stall)
    assert model.idle_power(gear) <= p + 1e-12
    assert p <= model.active_power(gear, 0.0) + 1e-12


@given(block=blocks, pair=gear_pairs)
def test_node_power_decreases_with_gear(block, pair):
    """At fixed work, a slower gear never draws more system power."""
    fast_state = NodeState(athlon_node(), pair[0])
    slow_state = NodeState(athlon_node(), pair[1])
    assert slow_state.compute_power(block) <= fast_state.compute_power(block) + 1e-9


@given(block=blocks, gear_index=st.integers(min_value=1, max_value=6))
def test_energy_is_finite_positive(block, gear_index):
    state = NodeState(athlon_node(), gear_index)
    duration = state.compute_duration(block)
    power = state.compute_power(block)
    assert duration > 0 and math.isfinite(duration)
    assert power > 0 and math.isfinite(power)


@given(
    block=blocks,
    pair=gear_pairs,
)
@settings(max_examples=200)
def test_energy_saving_bounded_by_power_saving(block, pair):
    """E_slow/E_fast >= P_slow/P_fast: slowing down cannot save a larger
    energy fraction than the power fraction (time never shrinks)."""
    fast_state = NodeState(athlon_node(), pair[0])
    slow_state = NodeState(athlon_node(), pair[1])
    e_fast = fast_state.compute_duration(block) * fast_state.compute_power(block)
    e_slow = slow_state.compute_duration(block) * slow_state.compute_power(block)
    p_ratio = slow_state.compute_power(block) / fast_state.compute_power(block)
    assert e_slow / e_fast >= p_ratio - 1e-9


#: Every (gear, disk speed) state of a node with the DRPM disk.
DISK_STATES = [
    (gear.index, speed) for gear in ATHLON64_GEARS for speed in drpm_disk().indices
]


def _assert_exact_cost(state, block):
    # A fresh but equal block: the memo is keyed by block value.
    probe = ComputeBlock(block.uops, block.l2_misses, block.miss_latency)
    duration = state.compute_duration(block)
    assert state.compute_cost(probe) == (
        duration,
        state.compute_power(block),
        duration * state.gear.frequency_hz,
    )


@given(
    block_list=st.lists(blocks, min_size=1, max_size=3),
    order=st.permutations(DISK_STATES),
)
@settings(max_examples=50)
def test_compute_cost_is_exact_at_every_gear_and_disk_speed(block_list, order):
    """The memoized cost equals the direct models exactly, at every state
    a node passes through, revisited states included: a memo key that
    missed the gear or the disk speed would serve a stale entry."""
    state = NodeState(athlon_node(disk=drpm_disk()), order[0][0])
    for gear_index, speed_index in order + order[::-1]:
        state.set_gear(gear_index)
        state.set_disk_speed(speed_index)
        for block in block_list:
            _assert_exact_cost(state, block)


@given(
    block_list=st.lists(blocks, min_size=1, max_size=3),
    order=st.permutations(range(1, 7)),
)
def test_compute_cost_is_exact_at_every_gear_without_disk(block_list, order):
    state = NodeState(athlon_node(), order[0])
    for gear_index in order + order[::-1]:
        state.set_gear(gear_index)
        for block in block_list:
            _assert_exact_cost(state, block)
