"""Discrete-event engine: ordering, determinism, guards."""

import pytest

from repro.sim.engine import Simulator
from repro.util.errors import SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_fire_fifo(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_schedule_after(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.schedule_after(0.5, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [1.5]

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(sim.now, lambda: order.append("second"))

        sim.schedule(0.0, first)
        sim.run()
        assert order == ["first", "second"]


class TestGuards:
    def test_rejects_past_scheduling(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule(0.5, lambda: None)

    def test_rejects_negative_delay(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_after(-0.1, lambda: None)

    def test_max_events_guard(self):
        sim = Simulator()

        def rearm():
            sim.schedule_after(1.0, rearm)

        sim.schedule(0.0, rearm)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_max_events_raises_after_exactly_n(self):
        sim = Simulator()
        fired = []

        def rearm():
            fired.append(sim.now)
            sim.schedule_after(1.0, rearm)

        sim.schedule(0.0, rearm)
        with pytest.raises(SimulationError):
            sim.run(max_events=5)
        # The guard trips once the Nth event has run, never on event N+1.
        assert len(fired) == 5

    def test_draining_in_exactly_max_events_succeeds(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run(max_events=5)
        assert sim.processed == 5

    def test_max_events_zero_with_pending_events_raises(self):
        sim = Simulator()
        sim.schedule(0.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.run(max_events=0)
        sim.run(max_events=None)  # the event is still there and runnable
        assert sim.processed == 1

    def test_step_returns_false_when_drained(self):
        sim = Simulator()
        assert sim.step() is False


class TestBookkeeping:
    def test_pending_and_processed_counts(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending == 2
        sim.run()
        assert sim.pending == 0
        assert sim.processed == 2


class TestJumpTo:
    def test_jump_advances_clock_without_events(self):
        sim = Simulator()
        sim.jump_to(5.0)
        assert sim.now == 5.0
        assert sim.processed == 0
        assert sim.pending == 0

    def test_jump_backwards_raises(self):
        sim = Simulator()
        sim.jump_to(2.0)
        with pytest.raises(SimulationError):
            sim.jump_to(1.0)

    def test_jump_to_current_time_is_a_noop(self):
        sim = Simulator()
        sim.jump_to(3.0)
        sim.jump_to(3.0)
        assert sim.now == 3.0

    def test_jump_over_pending_event_raises(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.jump_to(2.0)

    def test_jump_to_pending_event_time_is_allowed(self):
        # An event exactly at the jump target still fires at its own
        # timestamp, so the jump is legal.
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append(sim.now))
        sim.jump_to(2.0)
        sim.run()
        assert fired == [2.0]
        assert sim.processed == 1

    def test_jump_does_not_consume_max_events_budget(self):
        sim = Simulator()
        fired = []

        def hop():
            fired.append(sim.now)
            sim.jump_to(sim.now + 10.0)
            sim.schedule_after(1.0, lambda: fired.append(sim.now))

        sim.schedule(1.0, hop)
        # Two real events; the jump between them must not count.
        sim.run(max_events=2)
        assert fired == [1.0, 12.0]
        assert sim.processed == 2

    def test_events_scheduled_after_jump_fire_at_jumped_times(self):
        sim = Simulator()
        seen = []
        sim.jump_to(100.0)
        sim.schedule_after(0.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [100.5]
