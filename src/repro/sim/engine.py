"""The event loop: a simulated clock over a binary heap of callbacks.

Determinism guarantees:

- events at equal times fire in scheduling (FIFO) order, via a
  monotonically increasing sequence number in the heap key;
- the engine itself never consults wall-clock time or global randomness.

Performance: the heap holds plain ``(time, seq, callback)`` tuples,
built by :meth:`Simulator.schedule` without any Python-level
constructor, and :meth:`Simulator.run` drains the queue in a single
fused loop with the metrics check hoisted out of the per-event path.
Comparisons during sifting are C-level tuple comparisons that never
reach the callback element because ``seq`` is unique.

Observability: pass a :class:`repro.obs.registry.MetricsRegistry` as
``metrics`` and the engine publishes ``sim.scheduled`` / ``sim.events``
counters and a ``sim.clock_s`` gauge.  The default (``None``) selects
the uninstrumented drain loop and changes no behaviour.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Callable

from repro.util.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.registry import MetricsRegistry


class Simulator:
    """A discrete-event simulator with a float-seconds clock."""

    def __init__(self, *, metrics: "MetricsRegistry | None" = None) -> None:
        self._now = 0.0
        # (time, seq, callback) entries; seq is unique per simulator.
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._processed = 0
        self._metrics = metrics

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._heap)

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule(self, at: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute time ``at``.

        Raises:
            SimulationError: scheduling into the past.
        """
        if at < self._now:
            raise SimulationError(
                f"cannot schedule at {at}: clock is already at {self._now}"
            )
        heapq.heappush(self._heap, (at, next(self._seq), callback))
        if self._metrics is not None:
            self._metrics.inc("sim.scheduled")

    def schedule_after(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` after a non-negative delay."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        self.schedule(self._now + delay, callback)

    def jump_to(self, at: float) -> None:
        """Advance the clock to ``at`` without executing any events.

        The macro-stepping (fast-forward) layer uses this to skip over
        analytically-extrapolated steady-state regions.  Jumping is pure
        clock motion: no callbacks run, :attr:`processed` does not
        change, and any ``max_events`` budget of a surrounding
        :meth:`run` is unaffected.

        Raises:
            SimulationError: jumping backwards, or over a pending event
                (an event scheduled strictly before ``at`` would be
                executed at a time later than its own timestamp).
        """
        if at < self._now:
            raise SimulationError(
                f"cannot jump to {at}: clock is already at {self._now}"
            )
        if self._heap and self._heap[0][0] < at:
            raise SimulationError(
                f"cannot jump to {at}: event pending at {self._heap[0][0]}"
            )
        self._now = at
        if self._metrics is not None:
            self._metrics.set_gauge("sim.clock_s", at)

    def step(self) -> bool:
        """Execute the next event; returns False when the queue is empty."""
        if not self._heap:
            return False
        time, _seq, callback = heapq.heappop(self._heap)
        self._now = time
        self._processed += 1
        if self._metrics is not None:
            self._metrics.inc("sim.events")
            self._metrics.set_gauge("sim.clock_s", self._now)
        callback()
        return True

    def run(self, *, max_events: int | None = None) -> None:
        """Run until the event queue drains.

        Args:
            max_events: optional safety bound; the guard raises
                :class:`SimulationError` as soon as ``max_events`` events
                have executed with the queue still non-empty (a run that
                drains in exactly ``max_events`` events succeeds).
        """
        heap = self._heap
        if max_events is not None and max_events < 1 and heap:
            raise SimulationError(
                f"simulation exceeded {max_events} events without draining"
            )
        if self._metrics is not None:
            self._run_instrumented(max_events)
            return
        pop = heapq.heappop
        executed = 0
        while heap:
            time, _seq, callback = pop(heap)
            self._now = time
            self._processed += 1
            callback()
            executed += 1
            if executed == max_events and heap:
                raise SimulationError(
                    f"simulation exceeded {max_events} events without draining"
                )

    def _run_instrumented(self, max_events: int | None) -> None:
        """The metrics-publishing drain loop (the slow path)."""
        heap = self._heap
        pop = heapq.heappop
        metrics = self._metrics
        assert metrics is not None
        executed = 0
        while heap:
            time, _seq, callback = pop(heap)
            self._now = time
            self._processed += 1
            metrics.inc("sim.events")
            metrics.set_gauge("sim.clock_s", time)
            callback()
            executed += 1
            if executed == max_events and heap:
                raise SimulationError(
                    f"simulation exceeded {max_events} events without draining"
                )
