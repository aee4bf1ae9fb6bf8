"""MPI instrumentation traces.

The paper's methodology (Section 4.1, step 1) intercepts all relevant MPI
calls and logs enter/exit timestamps, only so the log can be reduced to
active and idle times.  The runtime reduces the same spans as they
happen:

- every compute block, point-to-point operation, wait, and logical
  collective is one span;
- spans emitted *inside* a collective are marked ``nested`` so
  top-level analysis sees the collective as a single call, exactly as
  the paper's interposition library would;
- :class:`RankTrace` folds each span, as it arrives, into the
  decompositions the model needs: ``active_time`` (T^A), ``idle_time``
  (T^I, which includes communication time), and the conservative
  *reducible work* between the last send and a blocking point (the
  refined model's T^R).  Reading them is O(1).

Rows are stored only for a reader.  Each trace keeps one of three row
sets, chosen by whoever builds it:

- :data:`ROWS_ALL`: every span as a flat row tuple, with
  :class:`TraceRecord` objects materialised lazily on first read.  A
  directly built trace keeps all rows, and so does
  :class:`~repro.mpi.world.World` when an observer is attached, because
  exporters such as :mod:`repro.obs.trace` and :mod:`repro.viz.timeline`
  read them after the run.
- :data:`ROWS_WINDOW`: only the rows fast-forward may still replicate
  (a World with fast-forward and no observer).  :meth:`RankTrace.trim`
  drops older rows at every iteration mark.
- :data:`ROWS_NONE`: the span count and aggregates only (a World with
  neither).

The row readers (:attr:`RankTrace.records`, :meth:`~RankTrace.top_level`,
:attr:`~RankTrace.mpi_time`, :meth:`~RankTrace.message_stats` and
:meth:`~RankTrace.call_counts`) raise :class:`SimulationError` on a
trace that does not keep all rows.  ``len(trace)`` and the aggregates
work on every trace, and are equal, bit for bit, whichever rows it
keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.util.errors import SimulationError
from repro.util.summation import RunningSum

#: Operation categories.
CATEGORY_COMPUTE = "compute"
CATEGORY_P2P = "p2p"
CATEGORY_WAIT = "wait"
CATEGORY_COLLECTIVE = "collective"
CATEGORY_OTHER = "other"

#: Row sets a :class:`RankTrace` can keep.
ROWS_ALL = "all"
ROWS_WINDOW = "window"
ROWS_NONE = "none"

#: Ops that are *send events* for the reducible-work analysis.
SEND_OPS = frozenset({"isend", "send"})
#: Ops whose completion is a *blocking point* for the analysis.
BLOCKING_OPS = frozenset(
    {
        "wait_recv",
        "recv",
        "barrier",
        "bcast",
        "reduce",
        "allreduce",
        "gather",
        "allgather",
        "scatter",
        "alltoall",
        "sendrecv",
        "waitall",
    }
)


@dataclass(frozen=True)
class TraceRecord:
    """One intercepted call (or compute block) on one rank."""

    rank: int
    op: str
    category: str
    t_enter: float
    t_exit: float
    nbytes: int = 0
    peer: int | None = None
    nested: bool = False

    def __post_init__(self) -> None:
        if self.t_exit < self.t_enter:
            raise SimulationError(
                f"trace record exits before entering: {self.op} "
                f"[{self.t_enter}, {self.t_exit}]"
            )

    @property
    def duration(self) -> float:
        """Elapsed seconds inside the call."""
        return self.t_exit - self.t_enter


class RankTrace:
    """The trace of one rank: span count, aggregates, and kept rows.

    ``rows`` picks the row set (:data:`ROWS_ALL`, :data:`ROWS_WINDOW` or
    :data:`ROWS_NONE`; see the module docstring).  Stored rows are flat
    tuples ``(op, category, t_enter, t_exit, nbytes, peer, nested)``;
    ``_rows[0]`` is span number ``_base``.
    """

    __slots__ = (
        "rank",
        "_keep",
        "_rows",
        "_base",
        "_materialized",
        "_last_exit",
        "_count",
        "_active",
        "_reducible",
        "_pending",
        "_seen_send",
    )

    def __init__(
        self,
        rank: int,
        records: list[TraceRecord] | None = None,
        *,
        rows: str = ROWS_ALL,
    ):
        if rows not in (ROWS_ALL, ROWS_WINDOW, ROWS_NONE):
            raise SimulationError(f"unknown trace row set {rows!r}")
        self.rank = rank
        self._keep = rows
        self._rows: list[tuple] | None = None if rows == ROWS_NONE else []
        self._base = 0
        self._materialized: list[TraceRecord] = []
        self._last_exit = float("-inf")
        self._count = 0
        # T^A, summed as builtin sum() would sum the compute durations.
        self._active = RunningSum()
        # The reducible-work state machine (see reducible_time).
        self._reducible = 0.0
        self._pending = 0.0  # compute since the last send, candidate-reducible
        self._seen_send = False
        if records:
            for record in records:
                self.add(record)

    # ------------------------------------------------------------------
    # Writing

    def add_span(
        self,
        op: str,
        category: str,
        t_enter: float,
        t_exit: float,
        nbytes: int = 0,
        peer: int | None = None,
        nested: bool = False,
    ) -> None:
        """Fold one call span in without constructing a record object.

        This is the simulation hot path; it performs the same validation
        as :meth:`add` on plain scalars.
        """
        if t_exit < t_enter:
            raise SimulationError(
                f"trace record exits before entering: {op} [{t_enter}, {t_exit}]"
            )
        if t_exit < self._last_exit - 1e-12:
            raise SimulationError(
                f"rank {self.rank}: out-of-order trace record {op} exiting "
                f"at {t_exit} after {self._last_exit}"
            )
        self._last_exit = t_exit
        self._count += 1
        rows = self._rows
        if rows is not None:
            rows.append((op, category, t_enter, t_exit, nbytes, peer, nested))
        # _fold, inlined: a method call per span is a measurable share of
        # the event loop.
        if category == CATEGORY_COMPUTE:
            self._active.add(t_exit - t_enter)
        if nested:
            return
        if op in SEND_OPS:
            self._seen_send = True
            self._pending = 0.0
        elif category == CATEGORY_COMPUTE:
            if self._seen_send:
                self._pending += t_exit - t_enter
        elif op in BLOCKING_OPS:
            self._reducible += self._pending
            self._pending = 0.0
            self._seen_send = False

    def _fold(
        self, op: str, category: str, t_enter: float, t_exit: float, nested: bool
    ) -> None:
        """Update the aggregates with one span, in span order.

        :meth:`add_span` carries an inlined copy; the properties in
        ``tests/mpi/test_tracing_stream.py`` pin both to the row walk.
        """
        if category == CATEGORY_COMPUTE:
            self._active.add(t_exit - t_enter)
        if nested:
            return
        if op in SEND_OPS:
            self._seen_send = True
            self._pending = 0.0
        elif category == CATEGORY_COMPUTE:
            if self._seen_send:
                self._pending += t_exit - t_enter
        elif op in BLOCKING_OPS:
            self._reducible += self._pending
            self._pending = 0.0
            self._seen_send = False

    def add(self, record: TraceRecord) -> None:
        """Append one record.

        Records are emitted when their call *exits* (a collective's
        bracket closes after its constituent messages), so monotonicity is
        enforced on exit times.
        """
        # Keep the caller's object if the cache is in sync, so adding
        # pre-built records never pays a re-materialisation.
        in_sync = self._keep == ROWS_ALL and len(self._materialized) == self._count
        self.add_span(
            record.op,
            record.category,
            record.t_enter,
            record.t_exit,
            record.nbytes,
            record.peer,
            record.nested,
        )
        if in_sync:
            self._materialized.append(record)

    def replicate_rows(self, start_row: int, period: float, copies: int) -> None:
        """Replay the spans from number ``start_row`` onward ``copies`` times.

        Copy ``k`` (1-based) has every timestamp shifted by
        ``k * period``.  The steady-state fast-forward layer uses this to
        extrapolate one stable iteration's span pattern over the
        iterations it skips.  Each shifted span is folded into the
        aggregates exactly as if it had been simulated, so ``len``,
        :attr:`active_time` and :meth:`reducible_time` (and, on a trace
        keeping all rows, every row reader) come out as for a full run.
        Copies bypass :meth:`add_span` validation: shifted copies of an
        in-order window stay in order by construction.

        A windowed trace stores no copies: the first mark after a jump
        restarts fast-forward's history, so nothing before it is
        replicated again.
        """
        if copies < 1:
            return
        rows = self._rows
        if rows is None:
            raise SimulationError(
                f"rank {self.rank}: replicate_rows needs the rows it "
                "replicates, and this trace keeps none"
            )
        if not self._base <= start_row <= self._count:
            raise SimulationError(
                f"rank {self.rank}: replicate_rows start {start_row} out of "
                f"range {self._base}..{self._count}"
            )
        window = rows[start_row - self._base:]
        keep = self._keep == ROWS_ALL
        if window:
            fold = self._fold
            for k in range(1, copies + 1):
                shift = k * period
                for op, cat, t0, t1, _nbytes, _peer, nested in window:
                    fold(op, cat, t0 + shift, t1 + shift, nested)
                if keep:
                    rows.extend(
                        (op, cat, t0 + shift, t1 + shift, nbytes, peer, nested)
                        for op, cat, t0, t1, nbytes, peer, nested in window
                    )
            self._count += len(window) * copies
            self._last_exit = window[-1][3] + copies * period
        if not keep:
            self._rows = []
            self._base = self._count

    def trim(self, before: int) -> None:
        """Drop the stored rows of spans numbered below ``before``.

        Only a windowed trace trims; the others ignore the call.
        Fast-forward calls this at every iteration mark with the first
        span of the oldest mark it may still replicate from.
        """
        if self._keep != ROWS_WINDOW:
            return
        drop = before - self._base
        if drop > 0:
            del self._rows[:drop]
            self._base = before

    # ------------------------------------------------------------------
    # Reading: aggregates (every trace)

    def __len__(self) -> int:
        """Number of spans, stored or not."""
        return self._count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RankTrace):
            return NotImplemented
        return (
            self.rank == other.rank
            and self._count == other._count
            and self._aggregates() == other._aggregates()
            and self._base == other._base
            and self._rows == other._rows
        )

    def _aggregates(self) -> tuple:
        return (
            self._active.value,
            self._reducible,
            self._pending,
            self._seen_send,
            self._last_exit,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<RankTrace rank={self.rank} spans={self._count} rows={self._keep}>"

    @property
    def active_time(self) -> float:
        """Total compute time (the paper's per-rank T^A contribution).

        Summed as builtin ``sum()`` sums the compute durations in span
        order on this interpreter (compensated from Python 3.12 on).
        """
        return self._active.value

    def idle_time(self, finish_time: float) -> float:
        """T^I for this rank: everything that is not computation.

        The paper folds communication time into idle time; given the run's
        finish time this is simply ``finish - active``.
        """
        if finish_time < self.active_time - 1e-9:
            raise SimulationError(
                f"rank {self.rank}: finish time {finish_time} is less than "
                f"active time {self.active_time}"
            )
        return max(0.0, finish_time - self.active_time)

    def reducible_time(self) -> float:
        """Conservative reducible work, per the paper's refined model.

        The post-processing "determines the reducible work to be
        computation between the *last send* and a blocking point" — work
        there cannot delay any other node because nothing is sent after
        it until the rank itself blocks.  Each top-level span updates the
        running state: a send restarts the candidate compute, compute
        after a send accumulates, and a blocking op banks it.
        """
        return self._reducible

    # ------------------------------------------------------------------
    # Reading: rows (traces that keep all rows)

    def _all_rows(self) -> list[tuple]:
        if self._keep != ROWS_ALL:
            raise SimulationError(
                f"rank {self.rank}: this trace keeps {self._keep!r} rows, not "
                "all of them; attach an observer (for example "
                "World(..., observer=RunObserver())) to keep every row"
            )
        return self._rows

    @property
    def records(self) -> list[TraceRecord]:
        """All records, materialised lazily and cached."""
        rows = self._all_rows()
        cache = self._materialized
        if len(cache) != len(rows):
            rank = self.rank
            cache.extend(
                TraceRecord(rank, op, cat, t0, t1, nbytes, peer, nested)
                for op, cat, t0, t1, nbytes, peer, nested in rows[len(cache):]
            )
        return cache

    def top_level(self) -> Iterator[TraceRecord]:
        """Records as the paper's interposition would see them (no nested)."""
        return (r for r in self.records if not r.nested)

    def _top_level_rows(self) -> Iterator[tuple]:
        return (row for row in self._all_rows() if not row[6])

    @property
    def mpi_time(self) -> float:
        """Total top-level time inside MPI calls (communication + blocking)."""
        return sum(
            row[3] - row[2]
            for row in self._top_level_rows()
            if row[1] in (CATEGORY_P2P, CATEGORY_WAIT, CATEGORY_COLLECTIVE)
        )

    def message_stats(self) -> tuple[int, int]:
        """(message count, total bytes) of top-level sends on this rank."""
        count = 0
        total = 0
        for row in self._top_level_rows():
            if row[0] in SEND_OPS:
                count += 1
                total += row[4]
        return count, total

    def call_counts(self) -> dict[str, int]:
        """Top-level call counts per op name (paper step 2's dynamic census)."""
        out: dict[str, int] = {}
        for row in self._top_level_rows():
            if row[1] == CATEGORY_COMPUTE:
                continue
            out[row[0]] = out.get(row[0], 0) + 1
        return out
