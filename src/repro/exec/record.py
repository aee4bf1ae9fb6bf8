"""The run record: what an executor's sweeps did, run by run.

One :class:`RunRecord` per executor, always on, filled in by
:func:`repro.exec.sweep.sweep`.  It holds one :class:`RunRow` per run a
sweep returned — the tier that served it, its host seconds, its cache
latencies, and the fast-forward stats of the World that produced it —
and one :class:`GroupRow` per batch group.  Every accounting line of the
harness is a view of it:

- :meth:`RunRecord.fast_forward`, the sweeps' fast-forward ledger, and
  :meth:`RunRecord.fast_forward_summary`, its line, which names each
  run whose signature deviated;
- :meth:`RunRecord.batch_summary`, the batch backend's line;
- :meth:`RunRecord.render`, the ``--profile`` tables: wall time against
  summed run time, worker utilization, and cache economics, so a cache
  whose lookups cost more than the simulations they save is visible.

Rows keep each run's key tuple; strings are built only when a view
renders.  Host times are wall-clock (``time.perf_counter``), never
simulated time, and never influence results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.mpi.fastforward import FastForwardStats
from repro.util.tables import TextTable

#: Tiers, i.e. where a run's measurement came from: the result cache,
#: the event engine, a replay of its batch group's tape, or the event
#: engine after its batch group fell back.
CACHE = "cache"
EVENT = "event"
REPLAY = "replay"
FALLBACK = "fallback"


class RunRow(NamedTuple):
    """One run a sweep returned."""

    #: The run's key tuple.
    key: tuple
    tier: str
    #: Host seconds of the run's unit, shared evenly by its runs (0.0 for
    #: a cache hit).
    seconds: float = 0.0
    #: Result-cache lookup and store latency (0.0 without a cache).  The
    #: lookup includes computing the run's key.
    lookup_s: float = 0.0
    store_s: float = 0.0
    #: Fast-forward stats of the World whose measurement this is: the
    #: run's own under the event engine, the recording's on the first run
    #: a fresh recording served.  None otherwise, and without a
    #: fast-forward config.
    ff: FastForwardStats | None = None

    @property
    def total_s(self) -> float:
        """All host time attributable to this run."""
        return self.seconds + self.lookup_s + self.store_s


class GroupRow(NamedTuple):
    """One batch group: runs that share one recording."""

    #: Key tuple of the group's first run.
    key: tuple
    runs: int
    #: Whether it replayed a tape loaded from the tape cache (a hit)
    #: rather than one it recorded (a miss).
    loaded: bool
    #: Why the group fell back to the event engine, or None.
    fallback: str | None
    record_s: float
    replay_s: float


@dataclass
class RunRecord:
    """Rows of every sweep that ran into this record.

    Attributes:
        runs: one row per run, in the order each sweep's points list
            them.
        groups: one row per batch group, in dispatch order.
        wall_s: host wall time spent inside ``sweep`` calls.
        merge_s: parent-side seconds scattering unit results back to
            run order and writing the result cache.
        workers: the largest worker-pool size used (1 = inline).
        tape_cache: whether a batch sweep ran with a persistent tape
            cache.
    """

    runs: list[RunRow] = field(default_factory=list)
    groups: list[GroupRow] = field(default_factory=list)
    wall_s: float = 0.0
    merge_s: float = 0.0
    workers: int = 1
    tape_cache: bool = False

    # ------------------------------------------------------------------
    # Views

    def tier(self, *tiers: str) -> list[RunRow]:
        """The runs served by any of ``tiers``."""
        return [row for row in self.runs if row.tier in tiers]

    def fast_forward(self) -> FastForwardStats:
        """The fast-forward ledger: the stats of every World whose
        measurements the sweeps returned, summed."""
        total = FastForwardStats()
        for row in self.runs:
            if row.ff is not None:
                total.merge(row.ff)
        return total

    def deviations(self) -> list[tuple[tuple, int]]:
        """Each run whose World's signatures deviated, as (key, count),
        in run order.  A deviation stops that run's jumps for good."""
        return [
            (row.key, row.ff.deviations)
            for row in self.runs
            if row.ff is not None and row.ff.deviations
        ]

    def fast_forward_summary(self) -> str:
        """The fast-forward line: the ledger, then the runs that
        deviated by key and count, as :meth:`batch_summary` names the
        groups that fell back."""
        ledger = self.fast_forward()
        line = (
            f"fast-forward: {ledger.skipped_iterations} iterations "
            f"macro-stepped across {ledger.jumps} jumps, "
            f"{ledger.deviations} deviations"
        )
        deviated = self.deviations()
        if deviated:
            line += f", in {len(deviated)} run(s):"
            for key, count in deviated:
                line += f"\n  {key}: {count} deviation(s)"
        return line

    @property
    def busy_s(self) -> float:
        """Summed per-run host time (simulation + cache traffic)."""
        return sum(row.total_s for row in self.runs)

    @property
    def utilization(self) -> float:
        """Busy worker-seconds over available worker-seconds, in [0, 1]."""
        available = self.wall_s * max(1, self.workers)
        if available <= 0:
            return 0.0
        return min(1.0, self.busy_s / available)

    @property
    def fallback_points(self) -> int:
        """Runs whose batch group fell back to the event engine."""
        return sum(g.runs for g in self.groups if g.fallback is not None)

    @property
    def tape_hits(self) -> int:
        """Batch groups that replayed a tape loaded from the tape cache;
        every other group recorded its tape (a miss)."""
        return sum(g.loaded for g in self.groups)

    def batch_summary(self) -> str:
        """The batch backend's line.

        Always names the fallback count and the groups of a single run
        (zero included — silence is not a signal), the tape-cache
        hit/miss counts per group when a persistent cache was in play,
        and the record/replay/merge stage split.
        """
        grouped = sum(g.runs for g in self.groups)
        single = sum(g.runs == 1 for g in self.groups)
        passthrough = len(self.tier(EVENT))
        fallbacks = [g for g in self.groups if g.fallback is not None]
        line = (
            f"batch backend: {grouped} run(s) in {len(self.groups)} "
            f"group(s) ({single} single-run)"
        )
        if passthrough:
            line += f", {passthrough} passthrough"
        line += f", {len(fallbacks)} fallback(s)"
        if self.tape_cache:
            line += (
                f"; tape cache: {self.tape_hits} hit(s), "
                f"{len(self.groups) - self.tape_hits} miss(es)"
            )
        record_s = sum(g.record_s for g in self.groups)
        replay_s = sum(g.replay_s for g in self.groups)
        line += (
            f"; stages: record {record_s:.3f}s, "
            f"replay {replay_s:.3f}s, merge {self.merge_s:.3f}s"
        )
        if fallbacks:
            line += f", {self.fallback_points} run(s) fell back:"
            for group in fallbacks:
                line += f"\n  {group.key}: {group.fallback}"
        return line

    def render(self) -> str:
        """The ``--profile`` tables."""
        cached = self.tier(CACHE)
        simulated = self.tier(EVENT, REPLAY, FALLBACK)
        summary = TextTable(["metric", "value"], title="Executor profile")
        summary.add_row(["points", str(len(self.runs))])
        summary.add_row(["sweep wall time (s)", f"{self.wall_s:.3f}"])
        summary.add_row(["busy task time (s)", f"{self.busy_s:.3f}"])
        summary.add_row(["workers", str(self.workers)])
        summary.add_row(["worker utilization", f"{self.utilization:.0%}"])
        summary.add_row(
            ["cache hits", f"{len(cached)} (avg {_mean_s(cached) * 1e3:.2f} ms)"]
        )
        summary.add_row(
            ["simulated points", f"{len(simulated)} (avg {_mean_s(simulated):.3f} s)"]
        )
        skipped = self.fast_forward().skipped_iterations
        if skipped:
            summary.add_row(["fast-forwarded iterations", str(skipped)])
        lines = [summary.render()]
        if self.runs:
            top = TextTable(["point", "source", "total (s)"], title="Slowest points")
            for row in sorted(self.runs, key=lambda r: (-r.total_s, str(r.key)))[:5]:
                source = "cache" if row.tier == CACHE else "run"
                top.add_row([str(row.key), source, f"{row.total_s:.3f}"])
            lines.append(top.render())
        return "\n\n".join(lines)


def _mean_s(rows: list[RunRow]) -> float:
    """Average total host time per run (0 if none)."""
    return sum(row.total_s for row in rows) / len(rows) if rows else 0.0
