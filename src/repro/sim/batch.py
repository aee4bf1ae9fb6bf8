"""Gear-invariant record/replay batch backend: one recording, whole grid.

Every point of a gear sweep re-executes a near-identical discrete-event
stream: the *structure* of an MPI run — which compute blocks run, who
sends what to whom, where the program blocks — does not depend on the
energy gear, only the *timings* and *power levels* do.  The fast-forward
layer (:mod:`repro.mpi.fastforward`) already proves this structural
invariance in steady state via per-iteration signatures; COUNTDOWN
(Cesarini et al.) and Medhat et al.'s power redistribution rest on the
same separation at runtime.

This module exploits it across a whole sweep:

1. **Record.**  One run at a reference gear (the first gear of the
   grid) executes under the ordinary event engine with a transparent
   per-rank tape recorder wrapped around the program generators.  The
   tape holds the gear-invariant segment stream: compute blocks with
   their operation counts, communication edges with payload sizes and
   tags, waits with their handle references, disk bursts, disk-speed
   transitions, and iteration marks.  Without a fast-forward config the
   recording is a plain event run.  With one, the recording may
   macro-step: the tape keeps the jumps it took, and a signature
   deviation during it disqualifies the tape, since the jump windows
   are trusted only on a stable signature.

2. **Certify.**  This is the only gate on a tape: its request stream
   must be provably gear-invariant.  Program logic can depend on the
   gear only through a resume value that does.  Three requests have
   one, and each fails certification:
   :class:`~repro.mpi.requests.Now` (timings leak into control flow),
   :class:`~repro.mpi.requests.SetGear` (adaptive policies), and a
   wildcard receive — an :class:`~repro.mpi.requests.Irecv` with
   ``ANY_SOURCE`` or ``ANY_TAG``, or an
   :class:`~repro.mpi.requests.Exchange` with ``ANY_SOURCE`` (the
   message it matches — the payload and ``handle.peer`` its wait
   resumes with — depends on arrival order, and the gear reorders
   arrivals).  Every other request resumes with
   gear-invariant values (payloads, handles, skip counts), which makes
   the whole request stream gear-invariant by induction.  Recorded
   fast-forward jumps additionally require consistent reducible-walk
   state at the jump window's boundaries, and a disk-speed change
   inside a replicated window is rejected.

3. **Replay.**  Per-segment durations are revalued for *all* gears in
   one NumPy pass — ``t(f) = uops/(issue_rate · f) + misses · latency``
   elementwise over ``(gears × segments)`` matrices, bitwise-identical
   to the engine's scalar arithmetic.  Without wildcards the engine
   matches each (source, dest, tag) channel FIFO, which no timing can
   reorder, so the tape defines one send↔receive pairing
   (:func:`_pair_receives`), and both interpreters complete every
   receive from its paired send at ``max(post, arrival) + overhead``.
   The tape's *interactions* (message completions, recorded macro-step
   jumps) are walked **once for the whole grid**: each rank's op tuples
   are folded into a walk plan (:func:`_build_plan`), and every gear's
   timeline advances in lockstep as ``(gears,)`` time vectors.  Stretches between
   interactions collapse to one cumulative-sum gap per gear; receive
   completions are pure ``max`` dataflow, and each rank advances until
   it waits on a send not yet walked.  The walk keeps no backplane
   state: every wire transfer arrives at ``inject + latency +
   occupancy``.  That is exact for a gear column in which no wire
   transfer finds ``concurrency`` others in flight at its injection
   time — the engine's server pool then queues nothing, whatever the
   injection order — so the walk certifies each column by that
   contention check.  A column that fails it is re-replayed by the
   scalar interpreter (:func:`_replay_gear`), which keeps the engine's
   stateful server pool — exact, reported via :class:`ReplayStats`,
   never silent.  One-column grids and recordings that queued on the
   backplane skip the walk altogether.  The scalar interpreter remains
   the reference path, selectable via ``mode="scalar"`` and
   equivalence-tested against the walk at 1e-9.

4. **Roll up.**  Energy decomposes exactly: each rank draws its idle
   power for the whole run plus a busy *excess* for compute and disk
   segments, so ``E(g) = Σ_phases P_idle(g)·Δt + Σ_seg w·(P_seg(g) −
   P_idle(g))·d_seg(g) + disk-excess`` with the per-segment excess
   vectorized over the grid.  Window weights ``w`` replicate skipped
   cycles exactly as the event path's meter/trace replication does.
   Both interpreters only compute timelines (finish times and
   disk-phase boundaries); one rollup (:func:`_rollup_vector`) turns
   either into measurements, the scalar one as a one-column grid.

Any disqualification raises :class:`BatchUnsupported`; callers fall back
to the event engine point-by-point, which is bitwise-exact by
definition.  A built-in self-check replays the recording gear and
compares against the recording's own measurements at ``SELF_CHECK_RTOL``
before any other gear is trusted.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import count
from typing import Any, Sequence

import numpy as np

from repro.cluster.cluster import ClusterSpec
from repro.cluster.counters import CounterBank
from repro.cluster.disk import DiskModel
from repro.core.run import RunMeasurement
from repro.mpi.fastforward import FastForwardConfig, FastForwardStats
from repro.mpi.requests import (
    ANY_SOURCE,
    ANY_TAG,
    Compute,
    DiskIO,
    Elapse,
    Exchange,
    Irecv,
    Isend,
    IterationMark,
    Now,
    SetDiskSpeed,
    SetGear,
    TraceMark,
    Wait,
)
from repro.mpi.tracing import BLOCKING_OPS
from repro.mpi.world import World, WorldResult
from repro.util.errors import ConfigurationError
from repro.util.units import is_amount
from repro.workloads.base import Workload

#: Relative tolerance of the recording-gear self-check: the replay of the
#: reference gear must reproduce the recording's own measurements this
#: closely or the whole tape is rejected.
SELF_CHECK_RTOL = 1e-9

# Tape opcodes (first element of every op tuple).
_OP_COMPUTE = 0
_OP_SEND = 1
_OP_RECV = 2
_OP_WAIT = 3
_OP_ELAPSE = 4
_OP_DISK = 5
_OP_DSPEED = 6
_OP_MARK = 7


#: Serialization format of :func:`tape_to_payload`.  Part of every tape
#: cache key, so a format change can never collide with older entries.
TAPE_FORMAT_VERSION = 3


class BatchUnsupported(Exception):
    """The recorded run cannot be revalued across gears.

    Raised when certification fails (a ``Now``, ``SetGear`` or wildcard
    receive request, a signature deviation during a recording that
    fast-forwards, inconsistent jump-window state) or when the replay
    self-check misses.  Callers fall back to the exact event engine,
    which handles every program.
    """


@dataclass
class ReplayStats:
    """How a :func:`replay_grid` call executed each gear column.

    The vectorized walk is conservative: a gear column in which some
    wire transfer finds the backplane's ``concurrency`` servers taken
    by transfers still in flight at its injection time is not certified
    by the contention check, and is re-replayed by the exact scalar
    interpreter.  Every decision to skip the walk adds one code to
    ``fallback_reasons``, so truncated vector coverage is visible,
    never silent.
    """

    #: Gear columns revalued by the vectorized gear-axis walk.
    vector_gears: int = 0
    #: Gear columns replayed by the scalar reference interpreter
    #: (``mode="scalar"``, a skipped walk, or an uncertified column).
    scalar_gears: int = 0
    #: One code per decision to replay columns scalar in grid mode:
    #: ``single_column`` (a one-column grid), ``recording_queued(n)``
    #: (the recording queued ``n`` transfers on the backplane, so its
    #: own column cannot be certified) or ``contention(gear)`` (that
    #: column failed the contention check; at the recording gear the
    #: whole grid replays scalar).
    fallback_reasons: list[str] = field(default_factory=list)


@dataclass
class Tape:
    """One certified recording, ready to revalue across a gear grid."""

    cluster: ClusterSpec
    workload_name: str
    nodes: int
    #: Per-rank flat op stream (tuples, opcode first).
    ops: list[list[tuple]]
    #: Per-rank compute-segment parameter arrays (float64).
    seg_uops: list[np.ndarray]
    seg_misses: list[np.ndarray]
    seg_stall: list[np.ndarray]
    #: Per-segment replication weight (1 + copies for jump windows).
    seg_weight: list[np.ndarray]
    #: Per-segment reducible-work membership (1.0 in, 0.0 out).
    seg_reducible: list[np.ndarray]
    #: Per-rank gear-independent disk busy-excess energy, joules.
    disk_excess: list[float]
    #: Per-rank number of receive slots.
    recv_slots: list[int]
    #: Weighted hardware-counter totals over all ranks.
    total_uops: float
    total_misses: float
    #: Disk idle power at the initial spindle speed (0.0 without a disk).
    initial_disk_idle: float
    #: The recording's own event-engine measurements, folded to scalars
    #: at record time.  The tape keeps no ``WorldResult`` (it round-trips
    #: through the tape cache as a payload), so the replay self-check
    #: compares its results against these four floats.
    recording_time: float
    recording_energy: float
    recording_active: float
    recording_reducible: float
    recording_gear: int
    #: Wire transfers that queued on the backplane during the recording.
    recording_queued: int
    #: Fast-forward stats of the recording run: None without a config,
    #: and on a tape rebuilt from its payload.
    recording_stats: "FastForwardStats | None" = field(
        default=None, repr=False, compare=False
    )
    #: Derived state, built lazily and cached: the send↔receive pairing
    #: (:func:`_pairing_of`) and the walk plans (:func:`_plans_of`).
    #: Not part of the tape's identity or its payload.
    _pairing: "list[dict[int, tuple[int, int]]] | None" = field(
        default=None, repr=False, compare=False
    )
    _plans: "list[_RankPlan] | None" = field(
        default=None, repr=False, compare=False
    )


# ----------------------------------------------------------------------
# Recording


def _recording_program(program, tapes: list[list[tuple[Any, Any]]]):
    """Wrap a program factory so every (request, resume value) pair of
    every rank lands on its tape.  The wrapper is transparent: requests
    and values pass through unchanged, so the recording run is bitwise
    the run the event engine would execute without it."""

    def factory(comm):
        entries = tapes[comm.rank]
        gen = program(comm)
        value = None
        while True:
            try:
                request = gen.send(value)
            except StopIteration as stop:
                return stop.value
            value = yield request
            entries.append((request, value))

    return factory


def record_tape(
    cluster: ClusterSpec,
    workload: Workload,
    *,
    nodes: int,
    gear: int,
    fast_forward: "FastForwardConfig | None" = None,
) -> Tape:
    """Execute one recording run and build a certified tape.

    Raises:
        BatchUnsupported: the program's structure cannot be certified
            gear-invariant (see the class docstring for the rules).
    """
    workload.validate_nodes(nodes)
    cluster.validate_run(nodes, gear)
    entries: list[list[tuple[Any, Any]]] = [[] for _ in range(nodes)]
    world = World(
        cluster,
        _recording_program(workload.program, entries),
        nodes=nodes,
        gear=gear,
        fast_forward=fast_forward,
    )
    recording = world.run()
    ff = world._ff
    jumps: dict[tuple[int, int], tuple[int, int]] = {}
    if ff is not None:
        if ff.stats.deviations:
            raise BatchUnsupported(
                f"{ff.stats.deviations} signature deviation(s) during "
                "recording: the event structure is not iteration-stable"
            )
        jumps = {(r, idx): (jump, period) for r, idx, jump, period in ff.jump_log}
    tape = _build_tape(
        cluster,
        workload,
        nodes,
        gear,
        entries,
        jumps,
        recording,
        world.network.queued,
    )
    tape.recording_stats = recording.fast_forward
    return tape


def _build_tape(
    cluster: ClusterSpec,
    workload: Workload,
    nodes: int,
    gear: int,
    entries: list[list[tuple[Any, Any]]],
    jumps: dict[tuple[int, int], tuple[int, int]],
    recording: WorldResult,
    queued: int,
) -> Tape:
    """Convert raw (request, value) streams into the certified tape."""
    node_spec = cluster.node
    issue_rate = node_spec.cpu.issue_rate
    default_latency = node_spec.memory.effective_miss_latency
    disk_model = DiskModel(node_spec.disk) if node_spec.disk else None
    initial_speed = node_spec.disk.fastest if node_spec.disk else None
    initial_disk_idle = (
        disk_model.idle_power(initial_speed) if disk_model is not None else 0.0
    )

    ops_by_rank: list[list[tuple]] = []
    seg_uops: list[np.ndarray] = []
    seg_misses: list[np.ndarray] = []
    seg_stall: list[np.ndarray] = []
    seg_weight: list[np.ndarray] = []
    seg_reducible: list[np.ndarray] = []
    disk_excess: list[float] = []
    recv_slots: list[int] = []
    total_uops = 0.0
    total_misses = 0.0

    for rank in range(nodes):
        ops: list[tuple] = []
        uops: list[float] = []
        misses: list[float] = []
        stall: list[float] = []
        handle_map: dict[int, tuple[str, int]] = {}  # uid -> (kind, slot)
        slots = 0
        speed = initial_speed
        # Disk ops as (op position, excess joules) so window weights can
        # be applied after all jumps are known.
        disk_ops: list[tuple[int, float]] = []
        # Reducible-work walk state (structural twin of RankTrace's
        # reducible-work state machine over top-level spans in tape order).
        depth = 0
        seen_send = False
        pending: list[int] = []
        reducible: set[int] = set()
        # Mark bookkeeping: request index -> (op position, walk state).
        mark_info: dict[int, tuple[int, bool, bool, int]] = {}
        rank_jumps: list[tuple[int, int, int]] = []  # (mark idx, jump, period)
        # Positions of disk-speed *changes* (must stay outside windows).
        speed_changes: list[int] = []

        for request, value in entries[rank]:
            cls = request.__class__
            if cls is Compute:
                block = request.block
                seg = len(uops)
                latency = (
                    block.miss_latency
                    if block.miss_latency is not None
                    else default_latency
                )
                uops.append(block.uops)
                misses.append(block.l2_misses)
                stall.append(block.l2_misses * latency)
                ops.append((_OP_COMPUTE, seg))
                if depth == 0 and seen_send:
                    pending.append(seg)
            elif cls is Isend:
                dest = request.dest
                ops.append((_OP_SEND, dest, request.tag, request.nbytes, dest == rank))
                handle_map[value.uid] = ("send", -1)
                if depth == 0:
                    seen_send = True
                    pending = []
            elif cls is Irecv:
                if request.source == ANY_SOURCE or request.tag == ANY_TAG:
                    raise BatchUnsupported(
                        f"rank {rank}: wildcard receive — the message it "
                        "matches depends on arrival order"
                    )
                ops.append((_OP_RECV, request.source, request.tag, slots))
                handle_map[value.uid] = ("recv", slots)
                slots += 1
            elif cls is Exchange:
                # The ops of the Irecv, Isend and receive Wait it stands
                # for; its send's wait is dropped, as below.
                if request.source == ANY_SOURCE:
                    raise BatchUnsupported(
                        f"rank {rank}: wildcard receive — the message it "
                        "matches depends on arrival order"
                    )
                dest, tag = request.dest, request.tag
                ops.append((_OP_RECV, request.source, tag, slots))
                ops.append((_OP_SEND, dest, tag, request.nbytes, dest == rank))
                ops.append((_OP_WAIT, slots))
                slots += 1
                if depth == 0:
                    # A sendrecv's inner spans are nested, and its
                    # bracket is a blocking point.  A collective round's
                    # send restarts the walk, and its receive wait then
                    # banks nothing.
                    if request.sendrecv:
                        reducible.update(pending)
                    pending = []
                    seen_send = False
            elif cls is Wait:
                kind, slot = handle_map[request.handle.uid]
                if kind == "recv":
                    # Waits on sends never block (eager sends complete at
                    # inject, before the program can reach the wait) and
                    # are not blocking points for the reducible walk, so
                    # they are dropped from the tape entirely.
                    ops.append((_OP_WAIT, slot))
                    if depth == 0:
                        reducible.update(pending)
                        pending = []
                        seen_send = False
            elif cls is TraceMark:
                if request.phase == "begin":
                    depth += 1
                else:
                    depth -= 1
                    if depth == 0 and request.op in BLOCKING_OPS:
                        reducible.update(pending)
                        pending = []
                        seen_send = False
            elif cls is IterationMark:
                if depth != 0:
                    raise BatchUnsupported(
                        f"rank {rank}: iteration mark inside a collective"
                    )
                mark_info[request.index] = (
                    len(ops),
                    seen_send,
                    not pending,
                    request.index,
                )
                skipped = int(value or 0)
                if skipped:
                    jump = jumps.get((rank, request.index))
                    if jump is None or jump[0] != skipped:
                        raise BatchUnsupported(
                            f"rank {rank}: unaccounted macro-step at mark "
                            f"{request.index}"
                        )
                    period = jump[1]
                    ops.append((_OP_MARK, skipped, period))
                    rank_jumps.append((request.index, skipped, period))
                else:
                    ops.append((_OP_MARK, 0, 0))
            elif cls is Elapse:
                ops.append((_OP_ELAPSE, request.seconds))
            elif cls is DiskIO:
                assert disk_model is not None and speed is not None
                duration = disk_model.io_time(request.nbytes, speed)
                ops.append((_OP_DISK, duration))
                excess = duration * (
                    disk_model.io_power(speed) - disk_model.idle_power(speed)
                )
                disk_ops.append((len(ops) - 1, excess))
            elif cls is SetDiskSpeed:
                assert disk_model is not None
                target = disk_model.spec[request.speed_index]
                if speed is not None and target.index == speed.index:
                    continue  # no-op in the engine: zero time, no record
                speed = target
                speed_changes.append(len(ops))
                ops.append(
                    (
                        _OP_DSPEED,
                        disk_model.spec.transition_time,
                        disk_model.idle_power(target),
                    )
                )
            elif cls is Now or cls is SetGear:
                raise BatchUnsupported(
                    f"rank {rank}: {cls.__name__} request — structure may "
                    "depend on the gear"
                )
            else:
                raise BatchUnsupported(
                    f"rank {rank}: unsupported request {cls.__name__}"
                )

        # Replication weights: ops inside a jump's window (the `period`
        # marks preceding the jump mark) repeat 1 + copies times, exactly
        # as the event path's meter/trace/counter replication does.
        nsegs = len(uops)
        weight = np.ones(nsegs, dtype=np.float64)
        disk_w = {pos: 1.0 for pos, _ in disk_ops}
        for mark_idx, jump, period in rank_jumps:
            end = mark_info.get(mark_idx)
            start = mark_info.get(mark_idx - period)
            if end is None or start is None:
                raise BatchUnsupported(
                    f"rank {rank}: jump window at mark {mark_idx} has no "
                    f"recorded start (period {period})"
                )
            start_pos, start_send, start_clean, _ = start
            end_pos, end_send, end_clean, _ = end
            if not (start_clean and end_clean and start_send == end_send):
                raise BatchUnsupported(
                    f"rank {rank}: reducible-walk state differs across the "
                    f"jump window at mark {mark_idx}"
                )
            for pos in speed_changes:
                if start_pos <= pos < end_pos:
                    raise BatchUnsupported(
                        f"rank {rank}: disk-speed change inside a "
                        "replicated window"
                    )
            copies = jump // period
            for pos in range(start_pos, end_pos):
                op = ops[pos]
                code = op[0]
                if code == _OP_COMPUTE:
                    weight[op[1]] += copies
                elif code == _OP_DISK:
                    disk_w[pos] += copies

        uops_arr = np.asarray(uops, dtype=np.float64)
        misses_arr = np.asarray(misses, dtype=np.float64)
        red = np.zeros(nsegs, dtype=np.float64)
        if reducible:
            red[sorted(reducible)] = 1.0

        ops_by_rank.append(ops)
        seg_uops.append(uops_arr)
        seg_misses.append(misses_arr)
        seg_stall.append(np.asarray(stall, dtype=np.float64))
        seg_weight.append(weight)
        seg_reducible.append(red)
        disk_excess.append(
            math.fsum(disk_w[pos] * excess for pos, excess in disk_ops)
        )
        recv_slots.append(slots)
        total_uops += float(np.sum(weight * uops_arr))
        total_misses += float(np.sum(weight * misses_arr))

    return Tape(
        cluster=cluster,
        workload_name=workload.name,
        nodes=nodes,
        ops=ops_by_rank,
        seg_uops=seg_uops,
        seg_misses=seg_misses,
        seg_stall=seg_stall,
        seg_weight=seg_weight,
        seg_reducible=seg_reducible,
        disk_excess=disk_excess,
        recv_slots=recv_slots,
        total_uops=total_uops,
        total_misses=total_misses,
        initial_disk_idle=initial_disk_idle,
        recording_time=recording.elapsed,
        recording_energy=recording.total_energy,
        recording_active=recording.active_time,
        recording_reducible=recording.reducible_time(),
        recording_gear=gear,
        recording_queued=queued,
    )


# ----------------------------------------------------------------------
# Replay


def _replay_gear(
    tape: Tape, durations: list[list[float]]
) -> tuple[list[float], list[list[tuple[float, float]]]]:
    """Re-run the tape's interactions at one gear.

    Returns per-rank finish times and per-rank disk-speed phase
    boundaries ``(time, new disk idle watts)``.  The interpreter mirrors
    :class:`~repro.mpi.world.World`'s timeline exactly — same network
    server pool, same FIFO tie-breaking, the same heap entries pushed in
    the same order — without generators, traces or meters.  It keeps no
    matching index: each receive completes from the send the tape pairs
    it with (:func:`_pair_receives`), at ``max(post, arrival) +
    overhead`` as ``World._complete_recv`` computes it.  (The engine's
    third term, the time of the match, never wins: a match happens at
    the later of post and send, and no arrival precedes its send.)
    """
    nodes = tape.nodes
    network = tape.cluster.network_model()
    schedule_transfer = network.schedule_transfer
    overhead = network.endpoint_overhead()
    ops_by_rank = tape.ops
    pairing = _pairing_of(tape)
    nops = [len(ops) for ops in ops_by_rank]
    pos = [0] * nodes
    sent = [0] * nodes
    finish: list[float | None] = [None] * nodes
    heap: list[tuple[float, int, int]] = []
    seq = count()
    recv_post: list[list[float]] = [[0.0] * n for n in tape.recv_slots]
    # Send key (rank, send ordinal) -> its arrival, and -> the
    # (rank, slot) whose wait blocks on it.
    arrivals: dict[tuple[int, int], float] = {}
    waiting: dict[tuple[int, int], tuple[int, int]] = {}
    phases: list[list[tuple[float, float]]] = [[] for _ in range(nodes)]
    marks: list[list[float]] = [[] for _ in range(nodes)]

    def advance(rank: int, now: float) -> None:
        ops = ops_by_rank[rank]
        n = nops[rank]
        p = pos[rank]
        durs = durations[rank]
        while True:
            if p == n:
                pos[rank] = p
                finish[rank] = now
                return
            op = ops[p]
            p += 1
            code = op[0]
            if code == _OP_COMPUTE:
                d = durs[op[1]]
                if d != 0.0:
                    pos[rank] = p
                    heappush(heap, (now + d, next(seq), rank))
                    return
            elif code == _OP_SEND:
                key = (rank, sent[rank])
                sent[rank] += 1
                inject = now + overhead
                arrival = schedule_transfer(inject, op[3], same_node=op[4])
                arrivals[key] = arrival
                blocked = waiting.pop(key, None)
                if blocked is not None:
                    dest, slot = blocked
                    done = max(recv_post[dest][slot], arrival) + overhead
                    heappush(heap, (done, next(seq), dest))
                if overhead != 0.0:
                    pos[rank] = p
                    heappush(heap, (inject, next(seq), rank))
                    return
            elif code == _OP_RECV:
                recv_post[rank][op[3]] = now
            elif code == _OP_WAIT:
                slot = op[1]
                key = pairing[rank][slot]
                arrival = arrivals.get(key)
                pos[rank] = p
                if arrival is None:
                    waiting[key] = (rank, slot)
                    return
                done = max(recv_post[rank][slot], arrival) + overhead
                if done > now:
                    heappush(heap, (done, next(seq), rank))
                    return
            elif code == _OP_MARK:
                rank_marks = marks[rank]
                rank_marks.append(now)
                skipped = op[1]
                if skipped:
                    period = op[2]
                    copies = skipped // period
                    cycle = now - rank_marks[-1 - period]
                    pos[rank] = p
                    heappush(heap, (now + copies * cycle, next(seq), rank))
                    return
            elif code == _OP_ELAPSE or code == _OP_DISK:
                if op[1] != 0.0:
                    pos[rank] = p
                    heappush(heap, (now + op[1], next(seq), rank))
                    return
            else:  # _OP_DSPEED
                phases[rank].append((now, op[2]))
                if op[1] != 0.0:
                    pos[rank] = p
                    heappush(heap, (now + op[1], next(seq), rank))
                    return

    for rank in range(nodes):
        advance(rank, 0.0)
    while heap:
        now, _, rank = heappop(heap)
        advance(rank, now)
    if any(f is None for f in finish):
        stuck = [r for r, f in enumerate(finish) if f is None]
        raise BatchUnsupported(f"replay stalled on ranks {stuck}")
    return finish, phases  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Compilation: gear-axis replay plan

# Interaction kinds of the vectorized replay plan.  Everything that is
# not an interaction is a pure delay and is folded into the gaps.
_IN_WIRE = 0  # wire send through the (possibly pooled) backplane
_IN_LOCAL = 1  # rank-to-self memcpy send (stateless)
_IN_RECV = 2  # receive post (records the post-time vector)
_IN_WAIT = 3  # blocking wait on a receive slot (timeline boundary)
_IN_MARK = 4  # iteration mark / recorded macro-step jump
_IN_PHASE = 5  # disk-speed transition (idle-power phase boundary)
_IN_END = 6  # sentinel: apply the tail gap, record the finish time


@dataclass
class _RankPlan:
    """One rank's interaction schedule for the gear-axis walk, folded
    from its op tuples by :func:`_build_plan`.

    Everything between two interactions is a *gap*: a gear-independent
    constant (endpoint overheads, elapses, disk busy time, disk-speed
    transitions) plus a contiguous run ``[lo, hi)`` of compute segments
    whose durations scale with the gear.  ``steps[k]`` is ``(kind,
    *params)`` and gap ``k`` precedes it; the last step is the
    :data:`_IN_END` sentinel whose gap is the tape's tail.  Send steps
    carry their ``(rank, send ordinal)`` key and each WAIT step the key
    of the send that completes it (:func:`_pair_receives`), so the walk
    needs no matching state of its own.

    ``boundary_before[k]`` is 1 + the index of the last
    timeline-resetting interaction (a WAIT or a recorded jump) strictly
    before ``k``, or 0 at the start of the tape.  Between boundaries the
    timeline is an affine offset from the boundary's base time, so the
    walk precomputes every offset vector with two cumulative sums and
    touches Python only at the interactions — its cost is independent
    of the gear count.

    The receive-side endpoint overhead is pre-folded: a completion is
    ``max(post, arrival) + overhead``, which equals ``max(post +
    overhead, arrival + overhead)`` exactly (IEEE addition is
    monotone), so send steps carry ``overhead`` inside their arrival
    constants and ``recv_rows`` names the offset rows that get it added
    once per walk — the WAIT step then needs no addition of its own.
    Wire sends also carry their backplane occupancy, which the
    contention check (:func:`_contended_columns`) reads.
    """

    steps: list[tuple]
    gap_const: np.ndarray  # (K,) float64
    gap_lo: np.ndarray  # (K,) int64 segment-range starts
    gap_hi: np.ndarray  # (K,) int64 segment-range ends (exclusive)
    boundary_before: np.ndarray  # (K,) int64
    recv_rows: np.ndarray  # (R,) int64 indices of _IN_RECV steps


def _pair_receives(
    ops_by_rank: Sequence[Sequence[tuple]],
) -> list[dict[int, tuple[int, int]]]:
    """Pair every receive with the send that completes it, from the tape.

    Returns, per rank, ``{recv slot: (source rank, send ordinal)}``; the
    ordinal counts every SEND op of the source rank in tape order.  The
    k-th send on a (source, dest, tag) channel completes the k-th
    receive ``dest`` posts for that (source, tag): the engine matches
    each channel FIFO by posting and sending order, which no timing can
    reorder (certification admits no wildcard receive).  Receives no
    send ever completes are left out.  Both interpreters read the
    pairing through :func:`_pairing_of`, which computes it once per
    tape.
    """
    channels: dict[tuple[int, int, int], list[int]] = {}
    for rank, ops in enumerate(ops_by_rank):
        ordinal = 0
        for op in ops:
            if op[0] == _OP_SEND:
                key = (rank, op[1], op[2])
                channel = channels.get(key)
                if channel is None:
                    channels[key] = [ordinal]
                else:
                    channel.append(ordinal)
                ordinal += 1
    pairing: list[dict[int, tuple[int, int]]] = []
    for rank, ops in enumerate(ops_by_rank):
        posted: dict[tuple[int, int], int] = {}
        slots: dict[int, tuple[int, int]] = {}
        for op in ops:
            if op[0] == _OP_RECV:
                source, tag = op[1], op[2]
                k = posted.get((source, tag), 0)
                posted[(source, tag)] = k + 1
                channel = channels.get((source, rank, tag))
                if channel is not None and k < len(channel):
                    slots[op[3]] = (source, channel[k])
        pairing.append(slots)
    return pairing


def _build_plan(
    tape: Tape, rank: int, pairing: dict[int, tuple[int, int]]
) -> _RankPlan:
    """Fold one rank's op tuples and its receive pairing into a plan."""
    link = tape.cluster.network_model().spec
    overhead = link.software_overhead
    ops = tape.ops[rank]
    # Ranks with no recorded jump never read the mark history, so plain
    # marks compile to nothing at all (dense recordings have thousands).
    has_jump = any(op[0] == _OP_MARK and op[1] for op in ops)

    steps: list[tuple] = []
    gap_const: list[float] = []
    gap_lo: list[int] = []
    gap_hi: list[int] = []
    const = 0.0
    lo = 0
    hi = 0
    ordinal = 0

    def emit(step: tuple) -> None:
        nonlocal const, lo
        steps.append(step)
        gap_const.append(const)
        gap_lo.append(lo)
        gap_hi.append(hi)
        const = 0.0
        lo = hi

    for op in ops:
        code = op[0]
        if code == _OP_COMPUTE:
            # Segments are numbered in tape order (checked on load).
            hi += 1
        elif code == _OP_SEND:
            # The sender-side overhead precedes the injection, so folding
            # it into the gap makes the walk's time *be* the inject time;
            # the receiver-side overhead rides inside the arrival const.
            const += overhead
            key = (rank, ordinal)
            ordinal += 1
            if op[4]:
                copy = op[3] / link.memcpy_bandwidth
                emit((_IN_LOCAL, key, copy + overhead))
            else:
                occupancy = op[3] / link.bandwidth
                emit((_IN_WIRE, key, occupancy, link.latency + occupancy + overhead))
        elif code == _OP_RECV:
            emit((_IN_RECV, op[3]))
        elif code == _OP_WAIT:
            emit((_IN_WAIT, op[1], pairing[op[1]]))
        elif code in (_OP_ELAPSE, _OP_DISK):
            const += op[1]
        elif code == _OP_DSPEED:
            emit((_IN_PHASE, op[2]))
            const += op[1]
        else:  # _OP_MARK
            if has_jump:
                emit((_IN_MARK, op[1], op[2]))
    emit((_IN_END,))

    boundary = np.zeros(len(steps), dtype=np.int64)
    recv_rows: list[int] = []
    b = 0
    for k, step in enumerate(steps):
        boundary[k] = b
        kind = step[0]
        if kind == _IN_WAIT or (kind == _IN_MARK and step[1]):
            b = k + 1
        elif kind == _IN_RECV:
            recv_rows.append(k)
    return _RankPlan(
        steps=steps,
        gap_const=np.asarray(gap_const, dtype=np.float64),
        gap_lo=np.asarray(gap_lo, dtype=np.int64),
        gap_hi=np.asarray(gap_hi, dtype=np.int64),
        boundary_before=boundary,
        recv_rows=np.asarray(recv_rows, dtype=np.int64),
    )


def _pairing_of(tape: Tape) -> list[dict[int, tuple[int, int]]]:
    """The tape's send↔receive pairing, computed once and cached."""
    if tape._pairing is None:
        tape._pairing = _pair_receives(tape.ops)
    return tape._pairing


def _plans_of(tape: Tape) -> list[_RankPlan]:
    """The tape's walk plans, one per rank, built once and cached.

    The plans follow the tape's pairing and keep no backplane state;
    which gear columns that stateless walk may ship is decided per
    replay by the contention check.
    """
    if tape._plans is None:
        tape._plans = [
            _build_plan(tape, rank, slots)
            for rank, slots in enumerate(_pairing_of(tape))
        ]
    return tape._plans


def _duration_grid(
    tape: Tape, gear_indices: Sequence[int]
) -> list[np.ndarray]:
    """Per-rank ``(gears, segments)`` duration matrices.

    Engine-exact: each cell is the engine's own scalar division and
    addition, ``uops / (issue_rate · f) + misses · latency``.
    """
    cluster = tape.cluster
    cpu = cluster.node.cpu
    denom = np.asarray(
        [
            cpu.issue_rate * cluster.gears[g].frequency_hz
            for g in gear_indices
        ],
        dtype=np.float64,
    )
    return [
        tape.seg_uops[rank][None, :] / denom[:, None]
        + tape.seg_stall[rank][None, :]
        for rank in range(tape.nodes)
    ]


def _vector_walk(
    tape: Tape, plans: list[_RankPlan], dur_grid: list[np.ndarray]
) -> tuple[
    list[np.ndarray], list[list[tuple[np.ndarray, float]]], np.ndarray
]:
    """Walk every gear column's timeline at once.

    Each rank advances until it waits on a send not yet walked; the
    send wakes it.  Wire transfers arrive at ``inject + latency +
    occupancy`` — the walk keeps no backplane state — so the result is
    exact only for the columns the contention check certifies.

    Returns per-rank ``(gears,)`` finish-time vectors, per-rank
    disk-phase boundary lists, and a boolean mask over gear columns
    flagging those the check cannot certify (see
    :func:`_contended_columns`); flagged columns must be re-replayed by
    the scalar interpreter.

    Raises:
        BatchUnsupported: no rank can advance — some wait's send is
            never walked.
    """
    nodes = tape.nodes
    G = dur_grid[0].shape[0]
    link = tape.cluster.network_model().spec
    overhead = link.software_overhead

    # Precompute every interaction's offset from its block boundary:
    # gap vectors via one gather on the segment cumsum, then a blockwise
    # cumulative sum.  (K, G) layout so offs[k] is a contiguous row.
    offs: list[np.ndarray] = []
    zero_col = np.zeros((G, 1))
    for rank in range(nodes):
        plan = plans[rank]
        D = dur_grid[rank]
        segcum = np.concatenate([zero_col, np.cumsum(D, axis=1)], axis=1)
        gaps = plan.gap_const[None, :] + (
            segcum[:, plan.gap_hi] - segcum[:, plan.gap_lo]
        )
        cpad = np.concatenate([zero_col, np.cumsum(gaps, axis=1)], axis=1)
        off_mat = np.ascontiguousarray(
            (cpad[:, 1:] - cpad[:, plan.boundary_before]).T
        )
        if overhead != 0.0 and len(plan.recv_rows):
            # Receive posts carry the completion overhead (see
            # _RankPlan): max(post, arrival) + oh == max(post+oh, arr+oh).
            off_mat[plan.recv_rows] += overhead
        offs.append(off_mat)

    start_vec = np.zeros(G)
    base: list[np.ndarray] = [start_vec] * nodes
    ptr = [0] * nodes
    arrivals: dict[tuple[int, int], np.ndarray] = {}
    # Send key -> the rank blocked waiting for it.
    waiting: dict[tuple[int, int], int] = {}
    ready = deque(range(nodes))
    posts: list[list[np.ndarray | None]] = [
        [None] * n for n in tape.recv_slots
    ]
    phases: list[list[tuple[np.ndarray, float]]] = [[] for _ in range(nodes)]
    mark_hist: list[list[np.ndarray]] = [[] for _ in range(nodes)]
    finish: list[np.ndarray | None] = [None] * nodes
    injects: list[np.ndarray] = []
    occupancies: list[float] = []

    np_maximum = np.maximum

    def advance(rank: int) -> None:
        steps = plans[rank].steps
        off = offs[rank]
        rank_posts = posts[rank]
        b = base[rank]
        k = ptr[rank]
        while True:
            step = steps[k]
            kind = step[0]
            if kind == _IN_WAIT:
                arrival = arrivals.get(step[2])
                if arrival is None:
                    waiting[step[2]] = rank
                    break
                b = np_maximum(
                    b + off[k], np_maximum(rank_posts[step[1]], arrival)
                )
                k += 1
            elif kind == _IN_WIRE:
                inject = b + off[k]
                key = step[1]
                arrivals[key] = inject + step[3]
                injects.append(inject)
                occupancies.append(step[2])
                if key in waiting:
                    ready.append(waiting.pop(key))
                k += 1
            elif kind == _IN_RECV:
                rank_posts[step[1]] = b + off[k]
                k += 1
            elif kind == _IN_LOCAL:
                key = step[1]
                arrivals[key] = b + (off[k] + step[2])
                if key in waiting:
                    ready.append(waiting.pop(key))
                k += 1
            elif kind == _IN_MARK:
                t = b + off[k]
                hist = mark_hist[rank]
                hist.append(t)
                skipped = step[1]
                if skipped:
                    period = step[2]
                    cycle = t - hist[-1 - period]
                    b = t + (skipped // period) * cycle
                k += 1
            elif kind == _IN_PHASE:
                phases[rank].append((b + off[k], step[1]))
                k += 1
            else:  # _IN_END
                finish[rank] = b + off[k]
                k += 1
                break
        base[rank] = b
        ptr[rank] = k

    while ready:
        advance(ready.popleft())
    stuck = [rank for rank in range(nodes) if finish[rank] is None]
    if stuck:
        raise BatchUnsupported(f"vector walk stalled on ranks {stuck}")

    concurrency = link.concurrency
    if concurrency is None:
        contended = np.zeros(G, dtype=bool)
    else:
        contended = _contended_columns(injects, occupancies, concurrency, G)
    return finish, phases, contended  # type: ignore[return-value]


def _contended_columns(
    injects: list[np.ndarray],
    occupancies: list[float],
    concurrency: int,
    columns: int,
) -> np.ndarray:
    """Gear columns the stateless walk cannot certify as queue-free.

    A wire transfer is in flight over ``[inject, inject + occupancy)``:
    a server freed at ``t`` serves a transfer injected at ``t``, and a
    zero-byte transfer occupies no server over time but still needs a
    free one when injected.  A column is contended iff some transfer
    finds ``concurrency`` *other* transfers in flight at its injection
    time.  Otherwise the engine's server pool — which takes transfers
    in injection-time order — always has a server free at injection,
    so every transfer starts unqueued and arrives exactly where the
    walk put it, whatever the order among equal injection times.
    """
    contended = np.zeros(columns, dtype=bool)
    if len(injects) <= concurrency:
        return contended
    inject = np.stack(injects)
    end = inject + np.asarray(occupancies)[:, None]
    for col in range(columns):
        t = inject[:, col]
        e = end[:, col]
        # #(started by t) - #(ended by t) = #(in flight at t), itself
        # included when its interval is non-empty.
        in_flight = np.searchsorted(np.sort(t), t, side="right")
        in_flight -= np.searchsorted(np.sort(e), t, side="right")
        others = in_flight - (e > t)
        contended[col] = bool((others >= concurrency).any())
    return contended


@dataclass
class _GridRollup:
    """Per-gear-column measurement arrays from one vectorized rollup."""

    time: np.ndarray
    energy: np.ndarray
    active: np.ndarray
    reducible: np.ndarray
    upm: float


def _rollup_vector(
    tape: Tape,
    gear_indices: Sequence[int],
    dur_grid: list[np.ndarray],
    finish: list[np.ndarray],
    phases: list[list[tuple[np.ndarray, float]]],
) -> _GridRollup:
    """Energy/counter rollup for all gear columns in one pass.

    The only rollup: the walk passes its ``(gears,)`` timelines, the
    scalar interpreter a one-column grid (:func:`_measure_gear`).  The
    per-gear power terms are built from the same left-associated scalar
    prefixes as :class:`~repro.cluster.cpu.CPUPowerModel`, so they
    match the engine's floats exactly.
    """
    cluster = tape.cluster
    node_spec = cluster.node
    cpu = node_spec.cpu
    power_model = node_spec.power_model()
    cpu_model = power_model.cpu_model
    ref_bw = node_spec.memory.reference_miss_bandwidth
    upm = CounterBank(uops=tape.total_uops, l2_misses=tape.total_misses).upm

    G = len(gear_indices)
    k_active = np.empty(G)
    leak = np.empty(G)
    pm_idle = np.empty(G)
    for col, gear_index in enumerate(gear_indices):
        gear = cluster.gears[gear_index]
        scale = cpu_model.dynamic_scale(gear)
        g_leak = cpu_model.leakage_power(gear)
        leak[col] = g_leak
        k_active[col] = cpu.dynamic_power_full * scale * cpu.active_activity
        cpu_idle = (
            cpu.dynamic_power_full * scale * cpu.idle_activity + g_leak
        )
        pm_idle[col] = power_model.base_power + cpu_idle
    saf = cpu.stall_activity_fraction

    end_time = finish[0]
    for rank in range(1, tape.nodes):
        end_time = np.maximum(end_time, finish[rank])

    energy = np.zeros(G)
    active_time = np.zeros(G)
    reducible_time = np.zeros(G)
    for rank in range(tape.nodes):
        D = dur_grid[rank]
        w = tape.seg_weight[rank]
        if D.shape[1]:
            stall_frac = tape.seg_stall[rank][None, :] / D
            occupancy = (1.0 - stall_frac) + saf * stall_frac
            cpu_active = k_active[:, None] * occupancy + leak[:, None]
            intensity = np.minimum(
                1.0, (tape.seg_misses[rank][None, :] / D) / ref_bw
            )
            p_active = (
                power_model.base_power
                + cpu_active
                + power_model.memory_power_max * intensity
            )
            wd = w[None, :] * D
            energy += np.sum(wd * (p_active - pm_idle[:, None]), axis=1)
            rank_active = np.sum(wd, axis=1)
            rank_reducible = np.sum(
                tape.seg_reducible[rank][None, :] * wd, axis=1
            )
            active_time = np.maximum(active_time, rank_active)
            reducible_time = np.maximum(reducible_time, rank_reducible)
        # Idle baseline: the rank draws (CPU idle + disk idle) for the
        # whole run; disk-speed transitions split it into phases.
        t = np.zeros(G)
        disk_idle = tape.initial_disk_idle
        for boundary, new_idle in phases[rank]:
            energy += (pm_idle + disk_idle) * (boundary - t)
            t = boundary
            disk_idle = new_idle
        energy += (pm_idle + disk_idle) * (end_time - t)
        energy += tape.disk_excess[rank]

    return _GridRollup(
        time=end_time,
        energy=energy,
        active=active_time,
        reducible=reducible_time,
        upm=upm,
    )


def _column_measurement(
    tape: Tape, gear_index: int, rollup: _GridRollup, col: int
) -> RunMeasurement:
    end_time = float(rollup.time[col])
    active = float(rollup.active[col])
    return RunMeasurement(
        workload=tape.workload_name,
        cluster=tape.cluster.name,
        nodes=tape.nodes,
        gear=gear_index,
        time=end_time,
        energy=float(rollup.energy[col]),
        active_time=active,
        idle_time=max(0.0, end_time - active),
        reducible_time=float(rollup.reducible[col]),
        upm=rollup.upm,
    )


def _measure_gear(tape: Tape, gear_index: int) -> RunMeasurement:
    """Scalar reference path: one gear's timeline, the shared rollup.

    :func:`_replay_gear` computes the timeline and :func:`_rollup_vector`
    rolls it up as a one-column grid, so the scalar path and the walk
    differ only in how they find finish times and disk-phase
    boundaries.  The vectorized grid falls back to it per gear column
    the contention check cannot certify, and ``mode="scalar"`` runs it
    for every gear.
    """
    dur_grid = _duration_grid(tape, [gear_index])
    finish, phases = _replay_gear(tape, [d[0].tolist() for d in dur_grid])
    rollup = _rollup_vector(
        tape,
        [gear_index],
        dur_grid,
        [np.array([t]) for t in finish],
        [[(np.array([t]), idle) for t, idle in rank] for rank in phases],
    )
    measurement = _column_measurement(tape, gear_index, rollup, 0)
    if gear_index == tape.recording_gear:
        _self_check(tape, measurement)
    return measurement


def _replay_grid_scalar(
    tape: Tape, gear_indices: Sequence[int], stats: ReplayStats
) -> list[RunMeasurement]:
    if tape.recording_gear not in gear_indices:
        # Self-check only: the column is neither returned nor counted.
        _measure_gear(tape, tape.recording_gear)
    stats.scalar_gears += len(gear_indices)
    return [_measure_gear(tape, g) for g in gear_indices]


def replay_grid(
    tape: Tape,
    gear_indices: Sequence[int],
    *,
    mode: str = "grid",
    stats: ReplayStats | None = None,
) -> list[RunMeasurement]:
    """Revalue the tape at every gear of a grid.

    ``mode="grid"`` (the default) builds the tape's walk plans once
    (cached on the tape) and walks the whole grid as gear-axis vectors;
    gear columns the contention check cannot certify are re-replayed by
    the scalar interpreter — exact, counted in ``stats``, never silent.
    The walk is skipped, with its reason in ``stats``, where its result
    would be thrown away: a one-column grid, and a recording that
    queued on the backplane (its own column cannot be certified).
    ``mode="scalar"`` runs the reference interpreter per gear.  Both
    modes complete receives from the one pairing the tape defines.

    The recording gear is always revalued — appended to the grid when
    absent — and checked against the recording's own event-engine
    measurements at :data:`SELF_CHECK_RTOL`; a miss rejects the tape
    (:class:`BatchUnsupported`), so a defective replay can never
    silently ship wrong numbers for the *other* gears.  In grid mode
    the check runs against the *vectorized* column; if the contention
    check fails that column itself, the whole grid falls back to the
    scalar path so vectorized numbers never ship unchecked.
    """
    if mode not in ("grid", "scalar"):
        raise ConfigurationError(
            f"unknown replay mode {mode!r} (expected 'grid' or 'scalar')"
        )
    if stats is None:
        stats = ReplayStats()
    if mode == "scalar":
        return _replay_grid_scalar(tape, gear_indices, stats)
    if len(gear_indices) == 1:
        stats.fallback_reasons.append("single_column")
        return _replay_grid_scalar(tape, gear_indices, stats)
    if tape.recording_queued:
        stats.fallback_reasons.append(
            f"recording_queued({tape.recording_queued})"
        )
        return _replay_grid_scalar(tape, gear_indices, stats)

    extended = list(gear_indices)
    try:
        check_col = extended.index(tape.recording_gear)
    except ValueError:
        check_col = len(extended)
        extended.append(tape.recording_gear)
    dur_grid = _duration_grid(tape, extended)
    finish, phases, contended = _vector_walk(tape, _plans_of(tape), dur_grid)
    if contended[check_col]:
        stats.fallback_reasons.append(f"contention({tape.recording_gear})")
        return _replay_grid_scalar(tape, gear_indices, stats)
    rollup = _rollup_vector(tape, extended, dur_grid, finish, phases)
    # Validate the vectorized path itself before any column ships.
    _self_check(
        tape, _column_measurement(tape, tape.recording_gear, rollup, check_col)
    )

    out: list[RunMeasurement] = []
    for col, gear_index in enumerate(gear_indices):
        if contended[col]:
            stats.fallback_reasons.append(f"contention({gear_index})")
            stats.scalar_gears += 1
            out.append(_measure_gear(tape, gear_index))
        else:
            stats.vector_gears += 1
            out.append(_column_measurement(tape, gear_index, rollup, col))
    return out


def _self_check(tape: Tape, replay: RunMeasurement) -> None:
    """Reject the tape if replaying the recording gear disagrees with
    the recording's own event-engine measurements."""
    checks = (
        ("time", tape.recording_time, replay.time),
        ("energy", tape.recording_energy, replay.energy),
        ("active_time", tape.recording_active, replay.active_time),
        ("reducible_time", tape.recording_reducible, replay.reducible_time),
    )
    for name, expected, got in checks:
        denom = max(abs(expected), abs(got), 1e-300)
        if abs(expected - got) / denom > SELF_CHECK_RTOL:
            raise BatchUnsupported(
                f"self-check failed on {name}: recording {expected!r} vs "
                f"replay {got!r}"
            )


# ----------------------------------------------------------------------
# Tape serialization (persistent tape cache)

#: Scalar (JSON-native) tape fields, serialized verbatim.
_TAPE_SCALAR_FIELDS = (
    "workload_name",
    "nodes",
    "disk_excess",
    "recv_slots",
    "total_uops",
    "total_misses",
    "initial_disk_idle",
    "recording_time",
    "recording_energy",
    "recording_active",
    "recording_reducible",
    "recording_gear",
    "recording_queued",
)

#: Per-rank float64 array fields, serialized as lists.
_TAPE_ARRAY_FIELDS = (
    "seg_uops",
    "seg_misses",
    "seg_stall",
    "seg_weight",
    "seg_reducible",
)


def tape_to_payload(tape: Tape) -> dict:
    """Serialize a tape to a JSON-safe dict (exact round-trip).

    Ints and bools are JSON-native and float64 survives JSON's
    repr/parse round-trip bit-for-bit, so a deserialized tape replays
    bitwise-identically to the original.  The cluster spec is *not*
    serialized: a tape cache key already pins the cluster fingerprint
    and the caller re-injects the live spec on load.
    """
    payload: dict[str, Any] = {
        "format": TAPE_FORMAT_VERSION,
        "ops": [[list(op) for op in rank_ops] for rank_ops in tape.ops],
    }
    for name in _TAPE_SCALAR_FIELDS:
        payload[name] = getattr(tape, name)
    for name in _TAPE_ARRAY_FIELDS:
        payload[name] = [arr.tolist() for arr in getattr(tape, name)]
    return payload


#: Tuple length of each opcode's ops, opcode included.
_OP_ARITY = {
    _OP_COMPUTE: 2, _OP_SEND: 5, _OP_RECV: 4, _OP_WAIT: 2,
    _OP_ELAPSE: 2, _OP_DISK: 2, _OP_DSPEED: 3, _OP_MARK: 3,
}

#: Scalar tape fields that hold a count, and those that hold an amount
#: (a finite, non-negative time, energy, power or counter total).
_TAPE_COUNTS = ("nodes", "recording_gear", "recording_queued")
_TAPE_AMOUNTS = (
    "total_uops", "total_misses", "initial_disk_idle", "recording_time",
    "recording_energy", "recording_active", "recording_reducible",
)


def _is_count(value: Any) -> bool:
    """``value`` is a non-negative int (bools excluded)."""
    return type(value) is int and value >= 0


def tape_from_payload(cluster: ClusterSpec, payload: dict) -> Tape:
    """Rebuild a tape from :func:`tape_to_payload` output.

    A cached payload is untrusted input, so it is checked on the way in,
    and an entry that decodes but does not hold together can neither
    crash a replay nor ship a wrong number:

    - every field is present with its type: counts, ranks, slots, tags
      and byte sizes are non-negative ints, flags are bools, and every
      duration, power, total and per-rank array value is a finite,
      non-negative number;
    - every op has its opcode's length; compute segments and receive
      slots are numbered in tape order and match the per-rank arrays
      and ``recv_slots``;
    - sends and receives name an existing rank and a tag, so a wildcard
      receive is malformed;
    - every wait is on a slot already posted that some send completes,
      and every recorded jump has the marks its window needs.

    The pairing the wait check computes stays cached on the tape, so
    its replays do not compute it again.

    Raises:
        ValueError: the payload's format version is not the current
            one, or a field is missing, mistyped or inconsistent.
            Callers treat this as a cache miss and re-record —
            :data:`TAPE_FORMAT_VERSION` is part of every tape cache
            key, so a version mismatch only fires on hand-fed payloads.
    """
    if not isinstance(payload, dict):
        raise ValueError("tape payload is not a mapping")
    version = payload.get("format")
    if version != TAPE_FORMAT_VERSION:
        raise ValueError(f"tape format {version!r} != {TAPE_FORMAT_VERSION}")
    names = ("ops", *_TAPE_SCALAR_FIELDS, *_TAPE_ARRAY_FIELDS)
    missing = [name for name in names if name not in payload]
    if missing:
        raise ValueError(f"tape payload lacks {missing}")
    kwargs: dict[str, Any] = {name: payload[name] for name in _TAPE_SCALAR_FIELDS}
    bad = [name for name in _TAPE_COUNTS if not _is_count(kwargs[name])]
    bad += [name for name in _TAPE_AMOUNTS if not is_amount(kwargs[name])]
    if type(kwargs["workload_name"]) is not str:
        bad.append("workload_name")
    if bad:
        raise ValueError(f"bad tape field(s) {bad}")
    nodes = kwargs["nodes"]
    recv_slots = kwargs["recv_slots"]
    per_rank = [payload["ops"], recv_slots, kwargs["disk_excess"]]
    per_rank += [payload[name] for name in _TAPE_ARRAY_FIELDS]
    if any(type(values) is not list or len(values) != nodes for values in per_rank):
        raise ValueError(f"per-rank fields do not all have {nodes} entries")
    if not all(map(_is_count, recv_slots)) or not all(
        map(is_amount, kwargs["disk_excess"])
    ):
        raise ValueError("bad recv_slots or disk_excess")
    for name in _TAPE_ARRAY_FIELDS:
        arrays = [np.asarray(values) for values in payload[name]]
        for arr in arrays:
            if arr.dtype != np.float64 or arr.ndim != 1 or not np.all(
                (arr >= 0.0) & (arr < np.inf)
            ):
                raise ValueError(f"{name}: not finite non-negative floats")
        kwargs[name] = arrays
    ops: list[list[tuple]] = []
    waited: list[set[int]] = []
    for rank, rank_ops in enumerate(payload["ops"]):
        if type(rank_ops) is not list:
            raise ValueError(f"rank {rank}: ops are not a list")
        rank_tuples: list[tuple] = []
        segs = slots = marks = 0
        waits: set[int] = set()
        for raw in rank_ops:
            op = tuple(raw) if type(raw) is list else ()
            code = op[0] if op else None
            if type(code) is not int or _OP_ARITY.get(code) != len(op):
                raise ValueError(f"rank {rank}: malformed op {raw!r}")
            if code == _OP_COMPUTE:
                if type(op[1]) is not int or op[1] != segs:
                    raise ValueError(
                        f"rank {rank}: segment {op[1]!r} where {segs} is next"
                    )
                segs += 1
            elif code == _OP_SEND:
                _, dest, tag, nbytes, same = op
                ok = _is_count(dest) and dest < nodes and same is (dest == rank)
                if not (ok and _is_count(tag) and _is_count(nbytes)):
                    raise ValueError(f"rank {rank}: bad send {op!r}")
            elif code == _OP_RECV:
                _, source, tag, slot = op
                ok = _is_count(source) and source < nodes and _is_count(tag)
                if not (ok and type(slot) is int and slot == slots):
                    raise ValueError(f"rank {rank}: bad receive {op!r}")
                slots += 1
            elif code == _OP_WAIT:
                if type(op[1]) is not int or not 0 <= op[1] < slots:
                    raise ValueError(
                        f"rank {rank}: wait on slot {op[1]!r} with {slots} "
                        "posted"
                    )
                waits.add(op[1])
            elif code == _OP_MARK:
                _, skipped, period = op
                if not (_is_count(skipped) and _is_count(period)) or (
                    skipped and not 1 <= period <= marks
                ):
                    raise ValueError(f"rank {rank}: bad jump mark {op!r}")
                marks += 1
            elif not all(map(is_amount, op[1:])):
                # ELAPSE and DISK durations; DSPEED transition and watts.
                raise ValueError(f"rank {rank}: bad duration {op!r}")
            rank_tuples.append(op)
        if slots != recv_slots[rank]:
            raise ValueError(
                f"rank {rank}: {slots} receive(s), recv_slots says "
                f"{recv_slots[rank]}"
            )
        if any(len(kwargs[name][rank]) != segs for name in _TAPE_ARRAY_FIELDS):
            raise ValueError(
                f"rank {rank}: {segs} compute segment(s) do not match the "
                "segment arrays"
            )
        ops.append(rank_tuples)
        waited.append(waits)
    pairing = _pair_receives(ops)
    for rank, paired in enumerate(pairing):
        unpaired = waited[rank] - paired.keys()
        if unpaired:
            raise ValueError(
                f"rank {rank}: no send completes waited slot(s) "
                f"{sorted(unpaired)}"
            )
    return Tape(cluster=cluster, ops=ops, _pairing=pairing, **kwargs)


# ----------------------------------------------------------------------
# Public entry points


def batch_gear_grid(
    cluster: ClusterSpec,
    workload: Workload,
    *,
    nodes: int,
    gears: Sequence[int] | None = None,
    fast_forward: "FastForwardConfig | None" = None,
    stats: ReplayStats | None = None,
    tape: Tape | None = None,
) -> list[RunMeasurement]:
    """Measure a workload at every gear of a grid from one recording.

    The drop-in batch twin of running
    :func:`repro.core.run.run_workload` once per gear: one recording at
    the grid's first gear, then one vectorized replay of the whole
    grid.  Results agree with the event engine to ~1e-9 relative
    (exactly the fast-forward tolerance class).

    A pre-recorded ``tape`` (e.g. from the persistent tape cache)
    skips the recording; it must come from the same (cluster, workload,
    nodes, fast-forward) configuration — the tape cache key pins this.

    Raises:
        BatchUnsupported: the workload's structure cannot be certified
            gear-invariant; run the points on the event engine instead.
    """
    gear_indices = (
        list(gears) if gears is not None else list(cluster.gears.indices)
    )
    workload.validate_nodes(nodes)
    for g in gear_indices:
        cluster.validate_run(nodes, g)
    if tape is None:
        tape = record_tape(
            cluster,
            workload,
            nodes=nodes,
            gear=gear_indices[0],
            fast_forward=fast_forward,
        )
    elif tape.workload_name != workload.name or tape.nodes != nodes:
        raise ConfigurationError(
            f"tape records {tape.workload_name!r} on {tape.nodes} node(s), "
            f"not {workload.name!r} on {nodes}"
        )
    return replay_grid(tape, gear_indices, stats=stats)
