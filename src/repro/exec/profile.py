"""Executor profiling: where a sweep's wall-clock time actually goes.

An :class:`ExecProfile` attached to a sweep records, per simulated run
(:class:`~repro.exec.tasks.RunTask`), the wall time of the simulation
itself and the latency of every cache interaction (lookup hit, lookup
miss, store).  From those it
derives the numbers worth acting on:

- total sweep wall time vs. summed task time (parallel speedup);
- worker utilization — busy worker-seconds over available
  worker-seconds, the "are my cores idle?" number;
- cache economics — hit/miss counts with their average latencies, so a
  cache whose lookups cost more than the simulations they save is
  visible immediately.

Profiling measures *host* wall-clock time (``time.perf_counter``), not
simulated time, and never influences results — it is attached via
``Executor(profile=True)`` / ``--profile`` on the experiment runner and
costs nothing when absent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.tables import TextTable

#: Where a point's result came from.
SOURCE_RUN = "run"
SOURCE_CACHE = "cache"


@dataclass(frozen=True)
class TaskTiming:
    """Wall-clock accounting for one run.

    Attributes:
        key: the run's key, stringified.
        source: ``"run"`` (simulated) or ``"cache"`` (replayed from disk).
        seconds: simulation wall time (0.0 for cache hits).
        lookup_s: cache lookup latency (0.0 when uncached).
        store_s: cache store latency (0.0 for hits / uncached).
        ff_skipped: iterations the steady-state fast-forward layer
            macro-stepped instead of simulating while running this
            run (0 for cache hits / fast-forward disabled).
    """

    key: str
    source: str
    seconds: float
    lookup_s: float = 0.0
    store_s: float = 0.0
    ff_skipped: int = 0

    @property
    def total_s(self) -> float:
        """All wall time attributable to this point."""
        return self.seconds + self.lookup_s + self.store_s


@dataclass
class ExecProfile:
    """Accumulated sweep profiling, filled in by :func:`repro.exec.sweep.sweep`.

    Attributes:
        timings: one entry per run a sweep looked up or simulated.
        wall_s: total wall time spent inside ``sweep`` calls.
        workers: the largest worker-pool size used (1 = inline).
    """

    timings: list[TaskTiming] = field(default_factory=list)
    wall_s: float = 0.0
    workers: int = 1

    def add(self, timing: TaskTiming) -> None:
        """Record one point's timing."""
        self.timings.append(timing)

    # ------------------------------------------------------------------
    # Derived numbers

    @property
    def task_count(self) -> int:
        """Points accounted for."""
        return len(self.timings)

    @property
    def busy_s(self) -> float:
        """Summed per-point wall time (simulation + cache traffic)."""
        return sum(t.total_s for t in self.timings)

    @property
    def utilization(self) -> float:
        """Busy worker-seconds over available worker-seconds, in [0, 1]."""
        available = self.wall_s * max(1, self.workers)
        if available <= 0:
            return 0.0
        return min(1.0, self.busy_s / available)

    def by_source(self, source: str) -> list[TaskTiming]:
        """Timings whose result came from ``source`` (run or cache)."""
        return [t for t in self.timings if t.source == source]

    @property
    def cache_hits(self) -> int:
        """Points replayed from the cache."""
        return len(self.by_source(SOURCE_CACHE))

    @property
    def cache_misses(self) -> int:
        """Points that had to simulate (with a cache attached)."""
        return sum(1 for t in self.by_source(SOURCE_RUN) if t.lookup_s > 0)

    @property
    def ff_skipped_total(self) -> int:
        """Iterations macro-stepped by fast-forward across all points."""
        return sum(t.ff_skipped for t in self.timings)

    def mean_latency(self, source: str) -> float:
        """Average total wall time per point from ``source`` (0 if none)."""
        timings = self.by_source(source)
        if not timings:
            return 0.0
        return sum(t.total_s for t in timings) / len(timings)

    # ------------------------------------------------------------------
    # Presentation

    def slowest(self, n: int = 5) -> list[TaskTiming]:
        """The ``n`` points with the largest total wall time."""
        return sorted(self.timings, key=lambda t: (-t.total_s, t.key))[:n]

    def render(self) -> str:
        """Multi-line profiling report (the ``--profile`` output)."""
        summary = TextTable(
            ["metric", "value"], title="Executor profile"
        )
        summary.add_row(["points", str(self.task_count)])
        summary.add_row(["sweep wall time (s)", f"{self.wall_s:.3f}"])
        summary.add_row(["busy task time (s)", f"{self.busy_s:.3f}"])
        summary.add_row(["workers", str(self.workers)])
        summary.add_row(["worker utilization", f"{self.utilization:.0%}"])
        summary.add_row(
            ["cache hits", f"{self.cache_hits} (avg {self.mean_latency(SOURCE_CACHE) * 1e3:.2f} ms)"]
        )
        summary.add_row(
            ["simulated points", f"{len(self.by_source(SOURCE_RUN))} (avg {self.mean_latency(SOURCE_RUN):.3f} s)"]
        )
        if self.ff_skipped_total:
            summary.add_row(
                ["fast-forwarded iterations", str(self.ff_skipped_total)]
            )
        lines = [summary.render()]
        if self.timings:
            top = TextTable(["point", "source", "total (s)"], title="Slowest points")
            for timing in self.slowest():
                top.add_row([timing.key, timing.source, f"{timing.total_s:.3f}"])
            lines.append(top.render())
        return "\n\n".join(lines)
