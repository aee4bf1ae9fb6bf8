"""Property-based tests of the event-loop determinism guarantees.

The docstring of :mod:`repro.sim.engine` promises three things the rest
of the stack (deterministic merge, golden artifacts, the result cache)
silently relies on:

- events at equal times fire in scheduling (FIFO) order;
- ``processed``/``pending`` accounting is exact under any schedule;
- scheduling into the past is an error.

These tests pin all three under randomly generated schedules, including
schedules with heavy timestamp collisions and callbacks that schedule
more events while the loop is draining.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.util.errors import SimulationError

#: Schedules drawn from few distinct times, to force equal-time ties.
tied_times = st.lists(
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]), min_size=1, max_size=40
)

#: Arbitrary non-negative schedules.
free_times = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    min_size=0,
    max_size=60,
)


@given(times=tied_times)
def test_equal_time_events_fire_in_fifo_scheduling_order(times):
    sim = Simulator()
    fired: list[int] = []
    for i, at in enumerate(times):
        sim.schedule(at, lambda i=i: fired.append(i))
    sim.run()
    # Stable sort by time == (time, scheduling order): the engine must
    # reproduce it exactly.
    expected = [i for i, _ in sorted(enumerate(times), key=lambda p: p[1])]
    assert fired == expected


@given(times=free_times)
def test_processed_and_pending_accounting_is_exact(times):
    sim = Simulator()
    for at in times:
        sim.schedule(at, lambda: None)
    assert sim.pending == len(times)
    assert sim.processed == 0
    steps = 0
    while sim.step():
        steps += 1
        assert sim.processed == steps
        assert sim.pending == len(times) - steps
    assert steps == len(times)
    assert sim.pending == 0


@given(times=free_times)
def test_clock_is_monotonic_and_never_moves_backward(times):
    sim = Simulator()
    observed: list[float] = []
    for at in times:
        sim.schedule(at, lambda: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert observed == sorted(times)


@given(
    first=st.floats(min_value=0.1, max_value=1e3, allow_nan=False),
    backward=st.floats(min_value=1e-9, max_value=1e3, allow_nan=False),
)
def test_scheduling_in_the_past_raises(first, backward):
    sim = Simulator()
    caught: list[Exception] = []

    def try_rewind() -> None:
        # The clock now stands at `first`; anything earlier must raise.
        with pytest.raises(SimulationError):
            sim.schedule(first - backward, lambda: None)
        caught.append(SimulationError("raised"))

    sim.schedule(first, try_rewind)
    sim.run()
    assert caught, "the in-past schedule was never attempted"
    assert sim.now == first


@given(times=tied_times, extra=st.integers(min_value=1, max_value=5))
@settings(max_examples=50)
def test_callbacks_scheduling_more_events_keep_accounting_exact(times, extra):
    sim = Simulator()
    fired: list[str] = []

    def spawn(i: int) -> None:
        fired.append(f"parent{i}")
        for k in range(extra):
            sim.schedule_after(0.25, lambda i=i, k=k: fired.append(f"child{i}.{k}"))

    for i, at in enumerate(times):
        sim.schedule(at, lambda i=i: spawn(i))
    sim.run()
    total = len(times) * (1 + extra)
    assert len(fired) == total
    assert sim.processed == total
    assert sim.pending == 0
