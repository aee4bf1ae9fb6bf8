"""The runtime that executes rank programs on a simulated cluster.

:class:`World` couples three things:

- a :class:`repro.sim.engine.Simulator` event loop,
- one generator per MPI rank, each on its own simulated node (the paper
  runs one rank per node), which the World drives itself: it sends each
  resume value in and dispatches the request that comes out,
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

Gear governor: a World built with ``policies=`` (one
:class:`~repro.policy.base.GearPolicy` per rank) shifts each rank's gear
itself, as an MPI library's prologue and epilogue would, and the
program's own requests stay unchanged.  It shifts to the compute gear
before every ``Compute``, and brackets every blocking span: a top-level
``Wait`` or ``Waitall``, each of a ``sendrecv`` exchange's two waits,
and every collective from its depth-0 ``TraceMark`` begin to its end.
A bracket shifts to the blocked gear on entry and back to the compute
gear on exit, then reports the span to the policy's ``observe_wait``.
Waits inside a collective are not bracketed.  A World without policies
dispatches through the plain handler table and never consults one.
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
    BLOCKED,
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
    Waitall,
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
from repro.util.errors import ConfigurationError, DeadlockError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.observer import RunObserver
    from repro.policy.base import GearPolicy

#: Type of the per-rank program factory: called with this rank's Comm.
ProgramFactory = Callable[[Comm], Any]

#: ``_RankRuntime.resume_value`` while the rank has no resume scheduled.
_NO_RESUME = object()

#: Safety bound on the events of one run: a program that never drains
#: raises instead of spinning forever.
MAX_EVENTS = 50_000_000


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
        self,
        rank: int,
        node: NodeState,
        send: Callable[[Any], Any],
        trace_rows: str,
    ):
        self.rank = rank
        self.node = node
        # The program generator's send; the World drives it directly.
        self.send = send
        # The generator's return value, once finish_time is set.
        self.result: Any = None
        # What the rank waits on where it can wait forever, for the
        # deadlock report: the handle of a wait, or "fast-forward" while
        # parked at a jump vote.  Only read for ranks that never finish.
        self.blocked_on: object = None
        self.meter = PowerMeter()
        self.counters = CounterBank()
        self.trace = RankTrace(rank, rows=trace_rows)
        # When the program returned; None while it is still running.
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
        # What runs at the rank's next resume before its program does,
        # called as cont(world, rt, value), for an operation the rank is
        # blocked inside; None when a resume goes straight to the program.
        self.cont: Callable[[Any, Any, Any], Any] | None = None
        # The exchange in progress and its receive.
        self.exchange: Exchange | None = None
        self.exchange_recv: Handle | None = None
        # A blocked waitall: (handles, payloads so far, continuation).
        self.waitall: tuple | None = None
        # The gear governor's state: the rank's policy, and the start of
        # its open blocking span and the time of its last observation.
        self.policy: "GearPolicy | None" = None
        self.blocked_from = 0.0
        self.observed_at = 0.0


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
        observer: "RunObserver | None" = None,
        fast_forward: FastForwardConfig | None = None,
        policies: "Sequence[GearPolicy] | None" = None,
    ):
        """Build the runtime; ``program(comm)`` is called once per rank.

        Args:
            policies: one gear policy per rank (from
                :meth:`~repro.policy.base.GearPolicy.prepare`, which has
                validated their gears), to run the gear governor; None
                runs the program's own gear requests only.

        Raises:
            SimulationError: ``program(comm)`` returned something other
                than a generator.
        """
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
        governed = policies is not None
        if governed and len(policies) != nodes:
            raise ConfigurationError(
                f"{len(policies)} policies given for {nodes} nodes"
            )

        self.cluster = cluster
        self.nodes = nodes
        self._observer = observer
        self._handlers = World._GOVERNED_HANDLERS if governed else World._HANDLERS
        self._ff = (
            FastForward(fast_forward, nodes, governed=governed)
            if fast_forward is not None
            else None
        )
        self.engine = Simulator()
        self.network = cluster.network_model()
        # The per-endpoint software overhead is a link constant; one
        # attribute read per message instead of two calls per match.
        self._endpoint_overhead = self.network.endpoint_overhead()
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
            if not hasattr(gen, "send"):
                raise SimulationError(
                    f"rank {rank} program must be a generator, "
                    f"got {type(gen).__name__}"
                )
            rt = _RankRuntime(rank, node, gen.send, trace_rows)
            rt.wake = partial(self._wake, rt)
            if governed:
                rt.policy = policies[rank]
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
            self.engine.run(max_events=MAX_EVENTS)
        finally:
            # Each wake refers back to this World: drop them, so a
            # finished World is freed by reference counting alone.
            for rt in self._runtimes:
                rt.wake = None

        stuck = [rt for rt in self._runtimes if rt.finish_time is None]
        if stuck:
            detail = "; ".join(
                f"rank {rt.rank} blocked on {_describe(rt.blocked_on)}"
                for rt in stuck
            )
            raise DeadlockError(f"simulation deadlocked: {detail}")

        end_time = max(rt.finish_time or 0.0 for rt in self._runtimes)
        results = []
        for rt in self._runtimes:
            # Nodes that finished early idle (at their gear) until the
            # last rank completes — the meter at the wall keeps running.
            if rt.finish_time < end_time:
                rt.meter.record(rt.finish_time, end_time, rt.node.idle_power())
            results.append(
                RankResult(
                    rank=rt.rank,
                    finish_time=rt.finish_time,
                    meter=rt.meter,
                    counters=rt.counters,
                    trace=rt.trace,
                    return_value=rt.result,
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

        The loop sends the resume value into the rank's generator and
        dispatches the request it yields; on return the rank records its
        finish time and result, and a program exception propagates.
        Each handler returns the value to resume the program with, or
        the :data:`~repro.mpi.requests.BLOCKED` sentinel once the rank's
        resume is scheduled or armed on a handle.  A rank blocked inside
        an operation (an :class:`Exchange`, a :class:`Waitall`, a gear
        switch of the governor) first runs its continuation, and resumes
        its program only once that completes.
        """
        cont = rt.cont
        if cont is not None:
            rt.cont = None
            value = cont(self, rt, value)
            if value is BLOCKED:
                return
        handlers = self._handlers
        ff = self._ff
        send = rt.send
        while True:
            try:
                request = send(value)
            except StopIteration as stop:
                rt.result = stop.value
                rt.finish_time = self.engine._now
                return
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

    def _switch_gear(self, rt: _RankRuntime, gear: int) -> float:
        """Shift the rank's node to ``gear`` now; returns the switch stall.

        A shift to another gear is published and traced as ``set_gear``,
        and its stall (0.0 for none, or when the gear is unchanged) is
        metered; the caller schedules the resume at its end.
        """
        old_gear = rt.node.gear.index
        if gear == old_gear:
            return 0.0
        now = self.engine._now
        switch = self.cluster.node.cpu.gear_switch_latency
        rt.node.set_gear(gear)
        if self._observer is not None:
            self._observer.gear_change(rt.rank, now, gear, old_gear)
        self._trace(rt, "set_gear", CATEGORY_OTHER, now, now + switch)
        if switch:
            # The core stalls through the PLL relock/voltage ramp,
            # drawing idle power at the *new* operating point.
            rt.meter.record(now, now + switch, rt.node.idle_power())
        return switch

    def _do_set_gear(self, rt: _RankRuntime, request: SetGear) -> Any:
        self.cluster.validate_run(self.nodes, request.gear_index)
        switch = self._switch_gear(rt, request.gear_index)
        if switch == 0:
            return None
        self._resume_later(rt, self.engine._now + switch)
        return BLOCKED

    def _do_elapse(self, rt: _RankRuntime, request: Elapse) -> Any:
        now = self.engine._now
        if request.seconds == 0:
            return None
        rt.meter.record(now, now + request.seconds, rt.node.idle_power())
        self._trace(rt, "elapse", CATEGORY_OTHER, now, now + request.seconds)
        self._resume_later(rt, now + request.seconds)
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
            rt.blocked_on = handle
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
        return BLOCKED

    def _do_irecv(self, rt: _RankRuntime, request: Irecv) -> Handle:
        return self._post_recv(rt, self.engine._now, request.source, request.tag)

    def _wait(self, rt: _RankRuntime, handle: Handle) -> Any:
        """Wait on a handle the program passed in (see :meth:`_wait_on`)."""
        if handle.rank != rt.rank:
            raise SimulationError(
                f"rank {rt.rank} waits on rank {handle.rank}'s handle"
            )
        return self._wait_on(
            rt, handle, "wait_recv" if handle.kind == "recv" else "wait_send"
        )

    def _do_wait(self, rt: _RankRuntime, request: Wait) -> Any:
        return self._wait(rt, request.handle)

    def _do_waitall(self, rt: _RankRuntime, request: Waitall) -> Any:
        return self._waitall(rt, request.handles, [], None)

    def _waitall(
        self,
        rt: _RankRuntime,
        handles: tuple[Handle, ...],
        payloads: list,
        then: Callable | None,
    ) -> Any:
        """Wait on ``handles[len(payloads):]`` in turn, as one ``Wait``
        request each would, collecting their payloads.

        Returns the payloads, or ``then(self, rt, payloads)`` when a
        continuation is given; BLOCKED while a wait blocks, resuming at
        :meth:`_continue_waitall`.
        """
        ff = self._ff
        for handle in handles[len(payloads) :]:
            if ff is not None:
                ff.sign(rt, Wait(handle))
            value = self._wait(rt, handle)
            if value is BLOCKED:
                rt.waitall = (handles, payloads, then)
                rt.cont = World._continue_waitall
                return BLOCKED
            payloads.append(value)
        if then is None:
            return payloads
        return then(self, rt, payloads)

    def _continue_waitall(self, rt: _RankRuntime, value: Any) -> Any:
        handles, payloads, then = rt.waitall
        rt.waitall = None
        payloads.append(value)
        return self._waitall(rt, handles, payloads, then)

    def _exchange_post(self, rt: _RankRuntime, request: Exchange) -> float:
        """Post an exchange's receive and inject its send; returns the
        inject time.

        A ``sendrecv`` exchange opens its bracket first.  The exchange
        and its receive stay on the rank until the exchange closes.
        """
        now = self.engine._now
        dest, source, tag, nbytes, payload, sendrecv = request
        if sendrecv:
            rt.collective_stack.append(("sendrecv", now, nbytes))
            rt.nested = True
        rt.exchange = request
        rt.exchange_recv = self._post_recv(rt, now, source, tag)
        return self._inject(rt, now, dest, tag, nbytes, payload)

    def _until_inject(self, rt: _RankRuntime, inject: float, then: Callable) -> Any:
        """Idle until an exchange's inject time, then continue at ``then``,
        as an ``Isend`` with an endpoint overhead blocks."""
        rt.pending_idle_from = self.engine._now
        rt.cont = then
        self._resume_later(rt, inject)
        return BLOCKED

    def _do_exchange(self, rt: _RankRuntime, request: Exchange) -> Any:
        """Post the receive and inject the send at once.

        With an endpoint overhead the rank then blocks until the inject
        time; the waits run at that time, in :meth:`_exchange_waits`.
        """
        inject = self._exchange_post(rt, request)
        if self._endpoint_overhead == 0:
            return self._exchange_waits(rt, None)
        return self._until_inject(rt, inject, World._exchange_waits)

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

    def _wait_exchange_recv(self, rt: _RankRuntime, then: Callable) -> Any:
        """Wait on the exchange's receive, then ``then(self, rt, payload)``."""
        recv = rt.exchange_recv
        if rt.exchange.source == ANY_SOURCE and self._ff is not None:
            # The wait on a wildcard receive signs the peer it has
            # matched so far, as a Wait request on the handle would.
            self._ff.sign(rt, Wait(recv))
        value = self._wait_on(rt, recv, "wait_recv")
        if value is BLOCKED:
            rt.cont = then
            return BLOCKED
        return then(self, rt, value)

    def _exchange_waits(self, rt: _RankRuntime, _value: Any = None) -> Any:
        """An exchange's waits, from the inject time on: the send's first
        for a collective round, then the receive's."""
        request = rt.exchange
        if not request.sendrecv:
            self._exchange_send_wait(rt, request)
        return self._wait_exchange_recv(rt, World._exchange_close)

    def _exchange_close(self, rt: _RankRuntime, value: Any) -> Any:
        """Finish an exchange whose receive completed; returns ``value``.

        A ``sendrecv`` waits on its send now, then closes its bracket.
        """
        request = rt.exchange
        rt.exchange = rt.exchange_recv = None
        if request.sendrecv:
            self._exchange_send_wait(rt, request)
            self._close_sendrecv(rt)
        return value

    def _close_sendrecv(self, rt: _RankRuntime) -> None:
        """Close a ``sendrecv`` bracket: its traced call ends now."""
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
    # Gear governor: the handlers of a World built with policies.  Each
    # step that may stall on a gear switch names the step after it, which
    # runs now or, after the stall, at the rank's resume (rt.cont).

    def _govern(
        self, rt: _RankRuntime, gear: int, then: Callable, value: Any
    ) -> Any:
        """Apply one gear decision, then continue with
        ``then(self, rt, value)``: now, or when the switch stall ends.

        A decision skips :meth:`ClusterSpec.validate_run`: the policy's
        gears were validated when it was attached.
        """
        ff = self._ff
        if ff is not None:
            ff.sign(rt, SetGear(gear))
        switch = self._switch_gear(rt, gear)
        if switch == 0:
            return then(self, rt, value)
        rt.cont = then
        self._resume_later(rt, self.engine._now + switch, value)
        return BLOCKED

    def _gov_open(self, rt: _RankRuntime, then: Callable, value: Any) -> Any:
        """Open a blocking span at the policy's blocked gear."""
        rt.blocked_from = self.engine._now
        return self._govern(rt, rt.policy.blocked_gear(), then, value)

    def _gov_close(self, rt: _RankRuntime, value: Any) -> Any:
        """Close a blocking span: back to the policy's compute gear, then
        report the span and resume the program with ``value``."""
        return self._govern(
            rt, rt.policy.compute_gear(), World._gov_observe, value
        )

    def _gov_observe(self, rt: _RankRuntime, value: Any) -> Any:
        """Report the span that closed now to the policy."""
        now = self.engine._now
        rt.policy.observe_wait(now - rt.blocked_from, now - rt.observed_at)
        rt.observed_at = now
        return value

    def _gov_compute(self, rt: _RankRuntime, request: Compute) -> Any:
        """Shift to the compute gear, then compute."""
        return self._govern(
            rt, rt.policy.compute_gear(), World._gov_compute_body, request
        )

    def _gov_compute_body(self, rt: _RankRuntime, request: Compute) -> Any:
        if self._ff is not None:
            self._ff.sign(rt, request)
        return self._do_compute(rt, request)

    def _gov_wait(self, rt: _RankRuntime, request: Wait) -> Any:
        """A top-level wait is one blocking span; a wait inside a
        collective runs plain, inside the collective's span."""
        if rt.nested:
            if self._ff is not None:
                self._ff.sign(rt, request)
            return self._do_wait(rt, request)
        return self._gov_open(rt, World._gov_wait_body, request)

    def _gov_wait_body(self, rt: _RankRuntime, request: Wait) -> Any:
        if self._ff is not None:
            self._ff.sign(rt, request)
        value = self._wait(rt, request.handle)
        if value is BLOCKED:
            rt.cont = World._gov_close
            return BLOCKED
        return self._gov_close(rt, value)

    def _gov_waitall(self, rt: _RankRuntime, request: Waitall) -> Any:
        """A top-level waitall is one blocking span over all its waits."""
        if rt.nested:
            return self._do_waitall(rt, request)
        return self._gov_open(rt, World._gov_waitall_body, request)

    def _gov_waitall_body(self, rt: _RankRuntime, request: Waitall) -> Any:
        return self._waitall(rt, request.handles, [], World._gov_close)

    def _gov_trace_mark(self, rt: _RankRuntime, request: TraceMark) -> Any:
        """A depth-0 bracket is one blocking span, from its begin (after
        the switch to the blocked gear) to its end."""
        if request.phase == "begin" and not rt.collective_stack:
            return self._gov_open(rt, World._gov_mark_body, request)
        self._gov_mark_body(rt, request)
        if rt.collective_stack:
            return None
        # The end of a depth-0 bracket.
        return self._gov_close(rt, None)

    def _gov_mark_body(self, rt: _RankRuntime, request: TraceMark) -> Any:
        if self._ff is not None:
            self._ff.sign(rt, request)
        return self._do_trace_mark(rt, request)

    def _gov_exchange(self, rt: _RankRuntime, request: Exchange) -> Any:
        """A ``sendrecv`` brackets each of its two waits; a collective
        round is a plain exchange, inside its collective's bracket."""
        if not request.sendrecv:
            return self._do_exchange(rt, request)
        inject = self._exchange_post(rt, request)
        if self._endpoint_overhead == 0:
            return self._gov_sendrecv_open(rt, None)
        return self._until_inject(rt, inject, World._gov_sendrecv_open)

    def _gov_sendrecv_open(self, rt: _RankRuntime, _value: Any) -> Any:
        """A sendrecv's waits, from its inject time on: the receive's
        span (open, wait, shift back), then the send's span (observe the
        first, open, the send's zero-length wait, shift back), then
        observe the second and end the traced call."""
        return self._gov_open(rt, World._gov_sendrecv_recv, None)

    def _gov_sendrecv_recv(self, rt: _RankRuntime, _value: Any) -> Any:
        return self._wait_exchange_recv(rt, World._gov_sendrecv_received)

    def _gov_sendrecv_received(self, rt: _RankRuntime, value: Any) -> Any:
        return self._govern(
            rt, rt.policy.compute_gear(), World._gov_sendrecv_send, value
        )

    def _gov_sendrecv_send(self, rt: _RankRuntime, value: Any) -> Any:
        self._gov_observe(rt, None)
        return self._gov_open(rt, World._gov_sendrecv_sent, value)

    def _gov_sendrecv_sent(self, rt: _RankRuntime, value: Any) -> Any:
        self._exchange_send_wait(rt, rt.exchange)
        return self._govern(
            rt, rt.policy.compute_gear(), World._gov_sendrecv_close, value
        )

    def _gov_sendrecv_close(self, rt: _RankRuntime, value: Any) -> Any:
        self._gov_observe(rt, None)
        rt.exchange = rt.exchange_recv = None
        self._close_sendrecv(rt)
        return value

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
    Waitall: World._do_waitall,
    Exchange: World._do_exchange,
    Now: World._do_now,
    SetGear: World._do_set_gear,
    Elapse: World._do_elapse,
    DiskIO: World._do_disk_io,
    SetDiskSpeed: World._do_set_disk_speed,
    TraceMark: World._do_trace_mark,
    IterationMark: World._do_iteration_mark,
}

#: The dispatch table of a World built with policies: the gear governor
#: handles the operations it acts around, the rest dispatch as above.
World._GOVERNED_HANDLERS = {
    **World._HANDLERS,
    Compute: World._gov_compute,
    Wait: World._gov_wait,
    Waitall: World._gov_waitall,
    Exchange: World._gov_exchange,
    TraceMark: World._gov_trace_mark,
}
