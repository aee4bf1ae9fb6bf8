"""The runtime that executes rank programs on a simulated cluster.

:class:`World` couples three things:

- a :class:`repro.sim.engine.Simulator` event loop,
- one :class:`repro.sim.process.RankProcess` per MPI rank, each on its own
  simulated node (the paper runs one rank per node),
- per-rank accounting: a wall-outlet :class:`PowerMeter`, a hardware
  :class:`CounterBank`, and an MPI :class:`RankTrace`.  The trace
  streams T^A and T^R as spans arrive; it stores every span's row only
  when an observer is attached, since only exporters read rows.

Execution semantics (matching the paper's platform assumptions):

- compute blocks run at the node's current gear and draw active power;
- all time a rank is *not* computing — posting sends, blocked in waits,
  idling after finishing while other ranks still run — draws the node's
  idle power at its gear (the paper: "the computational load during MPI
  communication is quite low");
- sends are eager/asynchronous (paper footnote 4): the sender is released
  after the software overhead regardless of the receiver;
- message wire time is gear-independent.

Energy is accounted until the *last* rank finishes: nodes that finish
early keep drawing idle power, exactly as the paper's wall-outlet meters
would record.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.cluster.cluster import ClusterSpec
from repro.cluster.counters import CounterBank
from repro.cluster.node import NodeState
from repro.cluster.power import PowerMeter
from repro.mpi.comm import Comm
from repro.mpi.fastforward import FastForward, FastForwardConfig, FastForwardStats
from repro.mpi.requests import (
    ANY_SOURCE,
    ANY_TAG,
    Compute,
    DiskIO,
    Elapse,
    Exchange,
    Handle,
    Irecv,
    Isend,
    IterationMark,
    Now,
    SetDiskSpeed,
    SetGear,
    TraceMark,
    Wait,
)
from repro.mpi.tracing import (
    CATEGORY_COMPUTE,
    CATEGORY_OTHER,
    CATEGORY_P2P,
    CATEGORY_WAIT,
    CATEGORY_COLLECTIVE,
    ROWS_ALL,
    ROWS_NONE,
    ROWS_WINDOW,
    RankTrace,
)
from repro.sim.engine import Simulator
from repro.sim.process import BLOCKED, ProcessState, RankProcess
from repro.util.errors import ConfigurationError, DeadlockError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.observer import RunObserver

#: Type of the per-rank program factory: called with this rank's Comm.
ProgramFactory = Callable[[Comm], Any]

#: ``_RankRuntime.resume_value`` while the rank has no resume scheduled.
_NO_RESUME = object()


@dataclass(slots=True)
class _Message:
    """A message in flight (or buffered unexpected at the receiver)."""

    source: int
    dest: int
    tag: int
    nbytes: int
    payload: Any
    arrival: float
    seq: int


class _RankRuntime:
    """Mutable bookkeeping for one rank."""

    def __init__(
        self, rank: int, node: NodeState, process: RankProcess, trace_rows: str
    ):
        self.rank = rank
        self.node = node
        self.process = process
        self.meter = PowerMeter()
        self.counters = CounterBank()
        self.trace = RankTrace(rank, rows=trace_rows)
        self.finish_time: float | None = None
        # Start of a blocked span whose idle energy is recorded on resume.
        self.pending_idle_from: float | None = None
        # Deferred wait trace record: (op, t_enter, nbytes, peer).
        self.pending_wait: tuple[str, float, int, int | None] | None = None
        self.collective_stack: list[tuple[str, float, int]] = []
        # Whether trace spans are nested in a bracketed operation; kept
        # in step with collective_stack by the TraceMark handler.
        self.nested = False
        # The rank's one resume callback (World._wake bound to this rank;
        # the World sets it) and the value its pending resume delivers.
        self.wake: Callable[[], None] | None = None
        self.resume_value: Any = _NO_RESUME
        # The exchange the rank is blocked inside, whose continuation
        # runs at its next resume, and the exchange's receive while its
        # waits are still to run (None once it waits on the receive).
        self.exchange: Exchange | None = None
        self.exchange_recv: Handle | None = None


@dataclass
class RankResult:
    """Everything measured for one rank."""

    rank: int
    finish_time: float
    meter: PowerMeter
    counters: CounterBank
    trace: RankTrace
    return_value: Any
    final_gear: int

    @property
    def energy(self) -> float:
        """This node's total energy over the whole run, joules."""
        return self.meter.energy()


@dataclass
class WorldResult:
    """Outcome of one complete simulated run."""

    cluster: ClusterSpec
    nodes: int
    end_time: float
    ranks: list[RankResult]
    #: Macro-stepping accounting; None when fast-forward was off.
    fast_forward: FastForwardStats | None = None

    @property
    def total_energy(self) -> float:
        """Cumulative energy of all nodes, joules (the paper's y-axis)."""
        return sum(r.energy for r in self.ranks)

    @property
    def elapsed(self) -> float:
        """Wall-clock execution time, seconds (the paper's x-axis)."""
        return self.end_time

    @property
    def active_time(self) -> float:
        """T^A: the maximum per-rank computation time (paper step 1)."""
        return max(r.trace.active_time for r in self.ranks)

    @property
    def idle_time(self) -> float:
        """T^I: idle + communication time of the T^A-defining run.

        Computed as ``end_time - T^A`` so that T^A + T^I is exactly the
        execution time, as the model requires.
        """
        return max(0.0, self.end_time - self.active_time)

    @property
    def counters(self) -> CounterBank:
        """All ranks' hardware counters summed."""
        return CounterBank.total([r.counters for r in self.ranks])

    @property
    def upm(self) -> float:
        """Whole-run micro-ops per L2 miss."""
        return self.counters.upm

    def reducible_time(self) -> float:
        """T^R: maximum per-rank reducible work (refined-model input)."""
        return max(r.trace.reducible_time() for r in self.ranks)

    def return_values(self) -> list[Any]:
        """Per-rank program return values, by rank."""
        return [r.return_value for r in self.ranks]


def _describe(blocked_on: object) -> str:
    """Deadlock text for what a rank blocked on.

    Waits block with their handle, so the text is only built here.
    """
    if isinstance(blocked_on, Handle):
        return f"wait_{blocked_on.kind}(peer={blocked_on.peer}, tag={blocked_on.tag})"
    return str(blocked_on or "unknown")


class World:
    """Runs one program (one generator per rank) on a simulated cluster."""

    def __init__(
        self,
        cluster: ClusterSpec,
        program: ProgramFactory,
        *,
        nodes: int,
        gear: int | Sequence[int] = 1,
        max_events: int | None = 50_000_000,
        observer: "RunObserver | None" = None,
        fast_forward: FastForwardConfig | None = None,
    ):
        if isinstance(gear, int):
            gears = [gear] * nodes
        else:
            gears = list(gear)
            if len(gears) != nodes:
                raise ConfigurationError(
                    f"{len(gears)} gears given for {nodes} nodes"
                )
        for g in gears:
            cluster.validate_run(nodes, g)

        self.cluster = cluster
        self.nodes = nodes
        self._observer = observer
        self._ff = (
            FastForward(fast_forward, nodes) if fast_forward is not None else None
        )
        self.engine = Simulator()
        self.network = cluster.network_model()
        # The per-endpoint software overhead is a link constant; one
        # attribute read per message instead of two calls per match.
        self._endpoint_overhead = self.network.endpoint_overhead()
        self._max_events = max_events
        self._msg_seq = 0
        # Per-destination matching indexes: (source, tag) -> FIFO queue.
        # Wildcard receives are resolved by comparing queue heads, so
        # matching is O(distinct pairs) instead of a linear scan over
        # every buffered message/posted receive.
        self._unexpected: list[dict[tuple[int, int], deque[_Message]]] = [
            {} for _ in range(nodes)
        ]
        self._posted: list[dict[tuple[int, int], deque[Handle]]] = [
            {} for _ in range(nodes)
        ]
        # Trace rows are kept only for a reader: an observer's exporters
        # read every row after the run, fast-forward its replication
        # window.  The aggregates are streamed either way.
        if observer is not None:
            trace_rows = ROWS_ALL
        elif fast_forward is not None:
            trace_rows = ROWS_WINDOW
        else:
            trace_rows = ROWS_NONE
        self._runtimes: list[_RankRuntime] = []
        for rank in range(nodes):
            comm = Comm(rank=rank, size=nodes)
            node = NodeState(cluster.node, gears[rank])
            gen = program(comm)
            rt = _RankRuntime(rank, node, RankProcess(rank, gen), trace_rows)
            rt.wake = partial(self._wake, rt)
            self._runtimes.append(rt)
        self._started = False

    # ------------------------------------------------------------------
    # Public API

    def run(self) -> WorldResult:
        """Execute all ranks to completion and return the measurements.

        Raises:
            DeadlockError: some rank never finished (all events drained
                while a wait was still pending).
        """
        if self._started:
            raise SimulationError("a World can only be run once")
        self._started = True
        if self._observer is not None:
            # Publish the starting gear of every node so gear timelines
            # are complete even for runs that never shift.
            for rt in self._runtimes:
                self._observer.gear_change(rt.rank, 0.0, rt.node.gear.index)
        try:
            for rt in self._runtimes:
                self._advance(rt, None)
            self.engine.run(max_events=self._max_events)
        finally:
            # Each wake refers back to this World: drop them, so a
            # finished World is freed by reference counting alone.
            for rt in self._runtimes:
                rt.wake = None

        stuck = [rt for rt in self._runtimes if not rt.process.done]
        if stuck:
            detail = "; ".join(
                f"rank {rt.rank} blocked on {_describe(rt.process.blocked_on)}"
                for rt in stuck
            )
            raise DeadlockError(f"simulation deadlocked: {detail}")

        end_time = max(rt.finish_time or 0.0 for rt in self._runtimes)
        results = []
        for rt in self._runtimes:
            # Nodes that finished early idle (at their gear) until the
            # last rank completes — the meter at the wall keeps running.
            assert rt.finish_time is not None
            if rt.finish_time < end_time:
                rt.meter.record(rt.finish_time, end_time, rt.node.idle_power())
            results.append(
                RankResult(
                    rank=rt.rank,
                    finish_time=rt.finish_time,
                    meter=rt.meter,
                    counters=rt.counters,
                    trace=rt.trace,
                    return_value=rt.process.result,
                    final_gear=rt.node.gear.index,
                )
            )
        return WorldResult(
            cluster=self.cluster,
            nodes=self.nodes,
            end_time=end_time,
            ranks=results,
            fast_forward=self._ff.stats if self._ff is not None else None,
        )

    # ------------------------------------------------------------------
    # Interpreter

    def _advance(self, rt: _RankRuntime, value: Any) -> None:
        """Resume a rank and dispatch its requests until it blocks/finishes.

        The generator protocol is driven directly (rather than through
        :meth:`RankProcess.resume`) — this loop runs once per yielded
        request and the wrapper call was measurable.  The process state
        invariants are identical: DONE + result on return, FAILED on an
        escaping exception, BLOCKED set by the handler that blocks.
        Each handler returns the value to resume the program with, or
        the :data:`~repro.sim.process.BLOCKED` sentinel once the rank's
        resume is scheduled or armed on a handle.  A rank blocked inside
        an :class:`Exchange` first runs the exchange's continuation,
        and resumes its program only once that completes.
        """
        if rt.exchange is not None:
            value = self._continue_exchange(rt, value)
            if value is BLOCKED:
                return
        handlers = self._HANDLERS
        ff = self._ff
        process = rt.process
        send = process._gen.send
        while True:
            try:
                request = send(value)
            except StopIteration as stop:
                process.state = ProcessState.DONE
                process.result = stop.value
                process.blocked_on = None
                rt.finish_time = self.engine._now
                return
            except Exception:
                process.state = ProcessState.FAILED
                raise
            if ff is not None:
                ff.feed(rt, request)
            handler = handlers.get(request.__class__)
            if handler is None:
                raise SimulationError(
                    f"rank {rt.rank} yielded an unknown request: {request!r}"
                )
            value = handler(self, rt, request)
            if value is BLOCKED:
                return

    def _resume_later(self, rt: _RankRuntime, at: float, value: Any = None) -> None:
        """Schedule the rank's wake at ``at``, to resume it with ``value``.

        A blocked rank has exactly one resume pending; arming a second
        would run the program twice from one block, so it is an error.
        """
        if rt.resume_value is not _NO_RESUME:
            raise SimulationError(f"rank {rt.rank} already has a resume pending")
        rt.resume_value = value
        self.engine.schedule(at, rt.wake)

    def _wake(self, rt: _RankRuntime) -> None:
        """Resume a rank at its scheduled time, closing deferred records.

        Flushes the rank's pending idle-energy span and deferred
        wait-trace record, both ending now, then advances the program
        with the value :meth:`_resume_later` stored.
        """
        at = self.engine._now
        value = rt.resume_value
        rt.resume_value = _NO_RESUME
        if rt.pending_idle_from is not None:
            rt.meter.record(rt.pending_idle_from, at, rt.node.idle_power())
            rt.pending_idle_from = None
        pending_wait = rt.pending_wait
        if pending_wait is not None:
            rt.pending_wait = None
            op, t_enter, nbytes, peer = pending_wait
            rt.trace.add_span(
                op, CATEGORY_WAIT, t_enter, at, nbytes, peer, rt.nested
            )
        self._advance(rt, value)

    def _trace(
        self,
        rt: _RankRuntime,
        op: str,
        category: str,
        t_enter: float,
        t_exit: float,
        nbytes: int = 0,
        peer: int | None = None,
    ) -> None:
        rt.trace.add_span(op, category, t_enter, t_exit, nbytes, peer, rt.nested)

    def _do_now(self, rt: _RankRuntime, request: Now) -> float:
        return self.engine._now

    def _do_set_gear(self, rt: _RankRuntime, request: SetGear) -> Any:
        now = self.engine._now
        self.cluster.validate_run(self.nodes, request.gear_index)
        if request.gear_index == rt.node.gear.index:
            return None
        switch = self.cluster.node.cpu.gear_switch_latency
        old_gear = rt.node.gear.index
        rt.node.set_gear(request.gear_index)
        if self._observer is not None:
            self._observer.gear_change(
                rt.rank, now, request.gear_index, old_gear
            )
        self._trace(rt, "set_gear", CATEGORY_OTHER, now, now + switch)
        if switch == 0:
            return None
        # The core stalls through the PLL relock/voltage ramp,
        # drawing idle power at the *new* operating point.
        rt.meter.record(now, now + switch, rt.node.idle_power())
        self._resume_later(rt, now + switch)
        rt.process.block("gear switch")
        return BLOCKED

    def _do_elapse(self, rt: _RankRuntime, request: Elapse) -> Any:
        now = self.engine._now
        if request.seconds == 0:
            return None
        rt.meter.record(now, now + request.seconds, rt.node.idle_power())
        self._trace(rt, "elapse", CATEGORY_OTHER, now, now + request.seconds)
        self._resume_later(rt, now + request.seconds)
        rt.process.block("elapse")
        return BLOCKED

    def _do_disk_io(self, rt: _RankRuntime, request: DiskIO) -> Any:
        now = self.engine._now
        duration = rt.node.io_duration(request.nbytes)
        rt.meter.record(now, now + duration, rt.node.io_power())
        self._trace(
            rt, "disk_io", CATEGORY_OTHER, now, now + duration, request.nbytes
        )
        if duration == 0:
            return None
        self._resume_later(rt, now + duration)
        rt.process.block("disk I/O")
        return BLOCKED

    def _do_set_disk_speed(self, rt: _RankRuntime, request: SetDiskSpeed) -> Any:
        now = self.engine._now
        transition = rt.node.set_disk_speed(request.speed_index)
        self._trace(
            rt, "set_disk_speed", CATEGORY_OTHER, now, now + transition
        )
        if transition == 0:
            return None
        rt.meter.record(now, now + transition, rt.node.idle_power())
        self._resume_later(rt, now + transition)
        rt.process.block("disk speed transition")
        return BLOCKED

    def _do_compute(self, rt: _RankRuntime, request: Compute) -> Any:
        now = self.engine._now
        block = request.block
        duration, power, cycles = rt.node.compute_cost(block)
        end = now + duration
        rt.meter.record(now, end, power)
        rt.counters.charge(block.uops, block.l2_misses, cycles, duration)
        rt.trace.add_span(
            "compute", CATEGORY_COMPUTE, now, end, 0, None, rt.nested
        )
        if duration == 0:
            return None
        self._resume_later(rt, end)
        rt.process.block("compute")
        return BLOCKED

    def _inject(
        self,
        rt: _RankRuntime,
        now: float,
        dest: int,
        tag: int,
        nbytes: int,
        payload: Any,
    ) -> float:
        """Inject an eager send and trace it; returns its inject time.

        The message is routed at once: it completes a matching posted
        receive or joins the destination's unexpected queue.
        """
        if not 0 <= dest < self.nodes:
            raise SimulationError(f"rank {rt.rank} sends to invalid rank {dest}")
        inject = now + self._endpoint_overhead
        arrival = self.network.schedule_transfer(
            inject, nbytes, same_node=(dest == rt.rank)
        )
        self._msg_seq += 1
        self._route(
            _Message(rt.rank, dest, tag, nbytes, payload, arrival, self._msg_seq)
        )
        rt.trace.add_span(
            "isend", CATEGORY_P2P, now, inject, nbytes, dest, rt.nested
        )
        return inject

    def _post_recv(
        self, rt: _RankRuntime, now: float, source: int, tag: int
    ) -> Handle:
        """Post a receive and trace it; returns its handle.

        The receive takes the earliest matching unexpected message, or
        is posted for the next matching send.
        """
        if source != ANY_SOURCE and not 0 <= source < self.nodes:
            raise SimulationError(
                f"rank {rt.rank} receives from invalid rank {source}"
            )
        handle = Handle("recv", rt.rank, source, tag, 0, now)
        rt.trace.add_span(
            "irecv", CATEGORY_P2P, now, now, 0, source, rt.nested
        )
        message = self._match_unexpected(rt.rank, handle)
        if message is not None:
            self._complete_recv(handle, message)
        else:
            posted = self._posted[rt.rank]
            key = (source, tag)
            queue = posted.get(key)
            if queue is None:
                posted[key] = deque((handle,))
            else:
                queue.append(handle)
        return handle

    def _wait_on(self, rt: _RankRuntime, handle: Handle, op: str) -> Any:
        """Wait on one of the rank's handles, tracing the wait as ``op``.

        Returns the handle's payload when it is already complete (a
        zero-length span), else defers the span and idle segment to the
        resume, which is scheduled, or armed on the handle while it is
        unmatched, and returns BLOCKED.
        """
        now = self.engine._now
        complete_at = handle.complete_at
        if complete_at is not None and complete_at <= now:
            rt.trace.add_span(
                op, CATEGORY_WAIT, now, now, handle.nbytes, handle.peer, rt.nested
            )
            return handle.payload
        rt.pending_idle_from = now
        rt.pending_wait = (op, now, handle.nbytes, handle.peer)
        if complete_at is not None:
            self._resume_later(rt, complete_at, handle.payload)
        else:
            handle._waiter = rt
        rt.process.block(handle)
        return BLOCKED

    def _do_isend(self, rt: _RankRuntime, request: Isend) -> Any:
        now = self.engine._now
        dest, tag, nbytes, payload = request
        inject = self._inject(rt, now, dest, tag, nbytes, payload)
        handle = Handle("send", rt.rank, dest, tag, nbytes, now, inject)
        if self._endpoint_overhead == 0:
            return handle
        rt.pending_idle_from = now
        self._resume_later(rt, inject, handle)
        rt.process.block("isend overhead")
        return BLOCKED

    def _do_irecv(self, rt: _RankRuntime, request: Irecv) -> Handle:
        return self._post_recv(rt, self.engine._now, request.source, request.tag)

    def _do_wait(self, rt: _RankRuntime, request: Wait) -> Any:
        handle = request.handle
        if handle.rank != rt.rank:
            raise SimulationError(
                f"rank {rt.rank} waits on rank {handle.rank}'s handle"
            )
        return self._wait_on(
            rt, handle, "wait_recv" if handle.kind == "recv" else "wait_send"
        )

    def _do_exchange(self, rt: _RankRuntime, request: Exchange) -> Any:
        """Post the receive and inject the send at once.

        A ``sendrecv`` exchange opens its bracket first.  With an
        endpoint overhead the rank then blocks until the inject time, as
        an ``Isend`` does; the waits run at that time, in
        :meth:`_exchange_waits`.
        """
        now = self.engine._now
        dest, source, tag, nbytes, payload, sendrecv = request
        if sendrecv:
            rt.collective_stack.append(("sendrecv", now, nbytes))
            rt.nested = True
        recv = self._post_recv(rt, now, source, tag)
        inject = self._inject(rt, now, dest, tag, nbytes, payload)
        if self._endpoint_overhead == 0:
            return self._exchange_waits(rt, request, recv)
        rt.pending_idle_from = now
        rt.exchange = request
        rt.exchange_recv = recv
        self._resume_later(rt, inject)
        rt.process.block("isend overhead")
        return BLOCKED

    def _exchange_send_wait(self, rt: _RankRuntime, request: Exchange) -> None:
        """The wait on an exchange's send: a zero-length span, since the
        rank resumes no earlier than the send's inject time."""
        now = self.engine._now
        rt.trace.add_span(
            "wait_send",
            CATEGORY_WAIT,
            now,
            now,
            request.nbytes,
            request.dest,
            rt.nested,
        )

    def _exchange_waits(
        self, rt: _RankRuntime, request: Exchange, recv: Handle
    ) -> Any:
        """An exchange's waits, from the inject time on: the send's first
        for a collective round, then the receive's."""
        if not request.sendrecv:
            self._exchange_send_wait(rt, request)
        if request.source == ANY_SOURCE and self._ff is not None:
            # The wait on a wildcard receive signs the peer it has
            # matched so far, as a Wait request on the handle would.
            self._ff.feed(rt, Wait(recv))
        value = self._wait_on(rt, recv, "wait_recv")
        if value is BLOCKED:
            rt.exchange = request
            return BLOCKED
        return self._exchange_close(rt, request, value)

    def _exchange_close(
        self, rt: _RankRuntime, request: Exchange, value: Any
    ) -> Any:
        """Finish an exchange whose receive completed; returns ``value``.

        A ``sendrecv`` waits on its send now, then closes its bracket.
        """
        if request.sendrecv:
            self._exchange_send_wait(rt, request)
            stack = rt.collective_stack
            op, t_begin, nbytes = stack.pop()
            nested = rt.nested = bool(stack)
            rt.trace.add_span(
                op,
                CATEGORY_COLLECTIVE,
                t_begin,
                self.engine._now,
                nbytes,
                None,
                nested,
            )
        return value

    def _continue_exchange(self, rt: _RankRuntime, value: Any) -> Any:
        """Resume a rank inside an exchange: run its waits after the
        inject block, or close it after the receive."""
        request = rt.exchange
        recv = rt.exchange_recv
        rt.exchange = rt.exchange_recv = None
        if recv is not None:
            return self._exchange_waits(rt, request, recv)
        return self._exchange_close(rt, request, value)

    def _do_iteration_mark(self, rt: _RankRuntime, request: IterationMark) -> Any:
        ff = self._ff
        if ff is None:
            # Fast-forward off: marks are free and change nothing, so
            # default runs stay byte-identical.
            return 0
        return ff.on_mark(self, rt, request)

    def _do_trace_mark(self, rt: _RankRuntime, request: TraceMark) -> None:
        now = self.engine._now
        stack = rt.collective_stack
        if request.phase == "begin":
            stack.append((request.op, now, request.nbytes))
            rt.nested = True
            return None
        if request.phase != "end":
            raise SimulationError(f"bad TraceMark phase {request.phase!r}")
        if not stack:
            raise SimulationError(
                f"rank {rt.rank}: TraceMark end '{request.op}' without begin"
            )
        op, t_begin, nbytes = stack.pop()
        if op != request.op:
            raise SimulationError(
                f"rank {rt.rank}: TraceMark mismatch: begin '{op}', end '{request.op}'"
            )
        nested = rt.nested = bool(stack)
        rt.trace.add_span(
            op,
            CATEGORY_COLLECTIVE,
            t_begin,
            now,
            nbytes or request.nbytes,
            None,
            nested,
        )
        return None

    # ------------------------------------------------------------------
    # Message routing

    def _route(self, message: _Message) -> None:
        """Match a newly-sent message against posted receives, or buffer it.

        Posted receives are indexed by ``(source, tag)``; an arriving
        message can match at most four buckets (exact, wildcard source,
        wildcard tag, both).  Each bucket is FIFO by posting order, so
        the earliest-posted matching receive is the minimum handle uid
        among the bucket heads — identical to the old linear scan.
        """
        posted = self._posted[message.dest]
        if posted:
            source, tag = message.source, message.tag
            best_key: tuple[int, int] | None = None
            best_uid = -1
            for key in (
                (source, tag),
                (ANY_SOURCE, tag),
                (source, ANY_TAG),
                (ANY_SOURCE, ANY_TAG),
            ):
                queue = posted.get(key)
                if queue:
                    uid = queue[0].uid
                    if best_key is None or uid < best_uid:
                        best_key, best_uid = key, uid
            if best_key is not None:
                queue = posted[best_key]
                handle = queue.popleft()
                if not queue:
                    del posted[best_key]
                self._complete_recv(handle, message)
                return
        unexpected = self._unexpected[message.dest]
        key = (message.source, message.tag)
        queue = unexpected.get(key)
        if queue is None:
            unexpected[key] = deque((message,))
        else:
            queue.append(message)

    def _match_unexpected(self, rank: int, handle: Handle) -> _Message | None:
        """Earliest buffered message matching ``handle``, removed, or None.

        The buffer is indexed by ``(source, tag)``; a fully-specified
        receive is one dict lookup.  Wildcard receives compare the heads
        of the matching buckets and take the minimum message sequence
        number — send order, exactly as the old linear scan did.
        """
        unexpected = self._unexpected[rank]
        if not unexpected:
            return None
        peer, tag = handle.peer, handle.tag
        if peer != ANY_SOURCE and tag != ANY_TAG:
            key = (peer, tag)
            queue = unexpected.get(key)
            if not queue:
                return None
            message = queue.popleft()
            if not queue:
                del unexpected[key]
            return message
        best_key: tuple[int, int] | None = None
        best_seq = -1
        for key, queue in unexpected.items():
            if peer != ANY_SOURCE and key[0] != peer:
                continue
            if tag != ANY_TAG and key[1] != tag:
                continue
            seq = queue[0].seq
            if best_key is None or seq < best_seq:
                best_key, best_seq = key, seq
        if best_key is None:
            return None
        queue = unexpected[best_key]
        message = queue.popleft()
        if not queue:
            del unexpected[best_key]
        return message

    def _complete_recv(self, handle: Handle, message: _Message) -> None:
        overhead = self._endpoint_overhead
        ready = max(handle.post_time, message.arrival, self.engine._now)
        handle.complete_at = ready + overhead
        handle.nbytes = message.nbytes
        handle.payload = message.payload
        handle.peer = message.source
        waiter = handle._waiter
        if waiter is not None:
            handle._waiter = None
            # Update the deferred trace record with the real message size.
            if waiter.pending_wait is not None:
                op, t_enter, _, _ = waiter.pending_wait
                waiter.pending_wait = (op, t_enter, message.nbytes, message.source)
            self._resume_later(waiter, handle.complete_at, handle.payload)


#: Request-class dispatch table: one dict lookup per yielded request in
#: place of a ten-way isinstance chain.  A class attribute so every World
#: shares it; handlers are plain functions called as handler(self, rt, req).
World._HANDLERS = {
    Compute: World._do_compute,
    Isend: World._do_isend,
    Irecv: World._do_irecv,
    Wait: World._do_wait,
    Exchange: World._do_exchange,
    Now: World._do_now,
    SetGear: World._do_set_gear,
    Elapse: World._do_elapse,
    DiskIO: World._do_disk_io,
    SetDiskSpeed: World._do_set_disk_speed,
    TraceMark: World._do_trace_mark,
    IterationMark: World._do_iteration_mark,
}
