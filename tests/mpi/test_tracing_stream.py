"""The streamed trace aggregates equal the row walk they replaced.

:class:`RankTrace` folds every span into ``active_time`` and the
reducible-work state machine as it arrives, instead of walking stored
rows when asked.  ``reference_active_time`` and
``reference_reducible_time`` below are verbatim copies of the row walks
the trace used to run; the properties generate span sequences (compute,
sends, blocking ops, zero-length spans, nested collective brackets,
iteration marks and ``replicate_rows`` jumps) and assert that every row
set streams the reference values bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.tracing import (
    BLOCKING_OPS,
    CATEGORY_COLLECTIVE,
    CATEGORY_COMPUTE,
    CATEGORY_OTHER,
    CATEGORY_P2P,
    CATEGORY_WAIT,
    ROWS_ALL,
    ROWS_NONE,
    ROWS_WINDOW,
    SEND_OPS,
    RankTrace,
)
from repro.util.summation import NeumaierSum, PlainSum


def reference_active_time(rows):
    """The row walk ``RankTrace.active_time`` ran before streaming."""
    return sum(row[3] - row[2] for row in rows if row[1] == CATEGORY_COMPUTE)


def reference_reducible_time(rows):
    """The row walk ``RankTrace.reducible_time`` ran before streaming."""
    reducible = 0.0
    pending = 0.0  # compute since the last send, candidate-reducible
    seen_send = False
    for row in (row for row in rows if not row[6]):
        op = row[0]
        if op in SEND_OPS:
            seen_send = True
            pending = 0.0
        elif row[1] == CATEGORY_COMPUTE:
            if seen_send:
                pending += row[3] - row[2]
        elif op in BLOCKING_OPS:
            reducible += pending
            pending = 0.0
            seen_send = False
    return reducible


def rows_of(trace: RankTrace) -> list[tuple]:
    return [
        (r.op, r.category, r.t_enter, r.t_exit, r.nbytes, r.peer, r.nested)
        for r in trace.records
    ]


#: (op, category) of every span a rank emits outside a bracket.
_SPAN_OPS = [
    ("compute", CATEGORY_COMPUTE),
    ("isend", CATEGORY_P2P),
    ("send", CATEGORY_P2P),
    ("irecv", CATEGORY_P2P),
    ("recv", CATEGORY_P2P),
    ("wait_recv", CATEGORY_WAIT),
    ("wait_send", CATEGORY_WAIT),
    ("waitall", CATEGORY_WAIT),
    ("sendrecv", CATEGORY_P2P),
    ("set_gear", CATEGORY_OTHER),
    ("elapse", CATEGORY_OTHER),
    ("disk_io", CATEGORY_OTHER),
]
_COLLECTIVES = ["barrier", "bcast", "allreduce", "alltoall", "sendrecv", "waitall"]

#: Durations of every scale, zero included.  The sampled ones are
#: inexact in binary, so plain and compensated sums of a few of them
#: often differ in the last bit.
durations = st.one_of(
    st.just(0.0),
    st.sampled_from([0.1, 0.7, 1 / 3, 2e-7 / 3, 5 / 7, 13 / 3, 1e-4 / 7]),
    st.floats(min_value=1e-9, max_value=50.0),
)

#: Half the spans are compute, so sums of several compute durations
#: are common.
spans = st.tuples(
    st.just("span"),
    st.one_of(st.just(_SPAN_OPS[0]), st.sampled_from(_SPAN_OPS[1:])),
    durations,
    durations,
)

brackets = st.tuples(
    st.just("bracket"),
    st.sampled_from(_COLLECTIVES),
    st.lists(
        st.one_of(
            spans,
            st.tuples(
                st.just("bracket"),
                st.sampled_from(_COLLECTIVES),
                st.lists(spans, max_size=3),
            ),
        ),
        max_size=4,
    ),
)

#: Clock at the first span.  From 0 the clock grows by orders of
#: magnitude, so adding the durations rounds; from a large start every
#: duration sits on one coarse grid and the sums are exact.
starts = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e6))

#: ``replicate_rows`` from the ``back``-th newest kept mark, ``copies`` times.
replicas = st.tuples(
    st.just("replicate"),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=6),
)

#: A program of iterations: spans and brackets closed by a mark, with
#: jumps between them, so every replicated window holds whole
#: iterations.
programs = st.lists(
    st.one_of(
        st.lists(st.one_of(spans, brackets), min_size=1, max_size=8).map(
            lambda body: body + [("mark",)]
        ),
        replicas.map(lambda jump: [jump]),
    ),
    max_size=10,
).map(lambda chunks: [item for chunk in chunks for item in chunk])


@dataclass
class Feeder:
    """Feeds one generated program into several traces at once.

    Mirrors fast-forward's use of a trace: marks snapshot ``(time, span
    count)``, at most ``history`` of them are kept and the windowed
    trace is trimmed to the oldest, and a replication restarts the
    history.  ``expected`` holds the rows a trace keeping all of them
    must hold, extended with the row-copying ``replicate_rows`` the
    trace used to run; a windowed trace must hold its rows from span
    ``window_start`` on.
    """

    traces: list[RankTrace]
    history: int
    clock: float
    expected: list[tuple] = field(default_factory=list)
    snaps: list[tuple[float, int]] = field(default_factory=list)
    window_start: int = 0

    def emit(self, op, category, t_enter, t_exit, nested):
        for trace in self.traces:
            trace.add_span(op, category, t_enter, t_exit, 0, None, nested)
        self.expected.append((op, category, t_enter, t_exit, 0, None, nested))

    def run(self, items, depth=0):
        for item in items:
            kind = item[0]
            if kind == "span":
                (op, category), gap, duration = item[1:]
                self.clock += gap
                t_enter = self.clock
                self.clock += duration
                self.emit(op, category, t_enter, self.clock, depth > 0)
            elif kind == "bracket":
                op, inner = item[1:]
                t_begin = self.clock
                self.run(inner, depth + 1)
                self.emit(op, CATEGORY_COLLECTIVE, t_begin, self.clock, depth > 0)
            elif kind == "mark":
                self.snaps.append((self.clock, len(self.expected)))
                del self.snaps[: -self.history]
                self.window_start = self.snaps[0][1]
                for trace in self.traces:
                    trace.trim(self.window_start)
            elif kind == "replicate" and self.snaps:
                back, copies = item[1:]
                t0, start = self.snaps[max(0, len(self.snaps) - 1 - back)]
                period = self.clock - t0
                window = self.expected[start:]
                for k in range(1, copies + 1):
                    shift = k * period
                    self.expected.extend(
                        (op, cat, a + shift, b + shift, nbytes, peer, nested)
                        for op, cat, a, b, nbytes, peer, nested in window
                    )
                for trace in self.traces:
                    trace.replicate_rows(start, period, copies)
                self.clock += copies * period
                self.snaps = []
                self.window_start = len(self.expected)


def assert_streams_reference(trace: RankTrace, rows: list[tuple]) -> None:
    assert len(trace) == len(rows)
    assert repr(trace.active_time) == repr(reference_active_time(rows))
    assert repr(trace.reducible_time()) == repr(reference_reducible_time(rows))


@given(
    items=st.lists(st.one_of(spans, brackets), max_size=40),
    start=starts,
)
@settings(max_examples=200)
def test_every_row_set_streams_the_row_walk(items, start):
    traces = [RankTrace(0, rows=rows) for rows in (ROWS_ALL, ROWS_WINDOW, ROWS_NONE)]
    feeder = Feeder(traces, history=1, clock=start)
    feeder.run(items)
    full = traces[0]
    assert rows_of(full) == feeder.expected
    for trace in traces:
        assert_streams_reference(trace, feeder.expected)


@given(
    items=st.lists(st.one_of(spans, brackets), max_size=30),
    copies=st.integers(min_value=1, max_value=4),
    start=starts,
)
@settings(max_examples=200)
def test_one_jump_streams_the_row_walk(items, copies, start):
    traces = [RankTrace(0, rows=rows) for rows in (ROWS_ALL, ROWS_WINDOW)]
    feeder = Feeder(traces, history=1, clock=start)
    feeder.run([("mark",)] + items + [("replicate", 0, copies)])
    for trace in traces:
        assert_streams_reference(trace, feeder.expected)


@given(
    items=programs,
    history=st.integers(min_value=1, max_value=4),
    start=starts,
)
@settings(max_examples=100)
def test_replicated_spans_stream_the_row_walk(items, history, start):
    full = RankTrace(0)
    window = RankTrace(0, rows=ROWS_WINDOW)
    feeder = Feeder([full, window], history=history, clock=start)
    feeder.run(items)
    # The full trace holds exactly the rows the old row-copying
    # replicate_rows produced; both traces stream their reference.
    assert rows_of(full) == feeder.expected
    assert_streams_reference(full, feeder.expected)
    assert_streams_reference(window, feeder.expected)
    # The window holds the rows from the oldest kept mark on, and no
    # replicated copy.
    assert window._rows == feeder.expected[feeder.window_start :]


def test_active_time_sums_as_this_interpreters_sum():
    """Back-to-back compute spans whose plain and compensated sums
    differ in the last bit; the trace must take this interpreter's."""
    spans = [(0.0, 0.1), (0.1, 0.2), (0.2, 0.9), (0.9, 1.0)]
    trace = RankTrace(0, rows=ROWS_NONE)
    for t0, t1 in spans:
        trace.add_span("compute", CATEGORY_COMPUTE, t0, t1)
    durations = [t1 - t0 for t0, t1 in spans]
    assert repr(trace.active_time) == repr(sum(durations))
    plain, compensated = PlainSum(), NeumaierSum()
    for d in durations:
        plain.add(d)
        compensated.add(d)
    assert plain.value != compensated.value
