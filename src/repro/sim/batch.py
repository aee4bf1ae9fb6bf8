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
   transitions, and iteration marks (with the fast-forward jumps the
   recording itself took).  The fast-forward signature machinery runs
   during the recording — with the task's own config when set, else in
   an observe-only mode that never jumps — and any signature deviation
   disqualifies the tape.

2. **Certify.**  A tape is replayable only if its structure is provably
   gear-invariant.  Program logic can depend on the gear only through
   :class:`~repro.mpi.requests.Now` (timings leak into control flow) or
   :class:`~repro.mpi.requests.SetGear` (adaptive policies), so either
   request fails certification; everything else resumes with
   gear-invariant values (payloads, handles, skip counts), which makes
   the whole request stream gear-invariant by induction.  Recorded
   fast-forward jumps additionally require consistent reducible-walk
   state at the jump window's boundaries, and a disk-speed change
   inside a replicated window is rejected.

3. **Replay.**  Per-segment durations are revalued for *all* gears in
   one NumPy pass — ``t(f) = uops/(issue_rate · f) + misses · latency``
   elementwise over ``(gears × segments)`` matrices, bitwise-identical
   to the engine's scalar arithmetic — and the tape's *interactions*
   (message completions, the stateful network server pool, recorded
   macro-step jumps) are walked **once for the whole grid**: the tape is
   compiled to structure-of-arrays columns (:func:`compile_columns`)
   plus a gear-invariant schedule (the wire-send order and the
   send↔receive pairing observed by one instrumented scalar replay at
   the recording gear), and every gear's timeline advances in lockstep
   as ``(gears,)`` time vectors.  Stretches between interactions
   collapse to one cumulative-sum gap per gear; receive completions are
   pure ``max`` dataflow because the pairing is FIFO per (source, tag)
   channel and hence gear-invariant.  Two recorded properties *can*
   legitimately vary with the gear and are guarded per gear: a receive
   with a wildcard source/tag (matching order is time-dependent —
   the whole tape replays scalar), and the injection order of wire
   sends through the contended server pool (an inversion or a
   contended tie against the recorded order flags that gear, which is
   re-replayed by the scalar interpreter — exact, reported via
   :class:`ReplayStats`, never silent).  The scalar per-gear
   interpreter (:func:`_replay_gear`) remains the reference path,
   selectable via ``replay_mode="scalar"`` and equivalence-tested
   against the vectorized walk at 1e-9.

4. **Roll up.**  Energy decomposes exactly: each rank draws its idle
   power for the whole run plus a busy *excess* for compute and disk
   segments, so ``E(g) = Σ_phases P_idle(g)·Δt + Σ_seg w·(P_seg(g) −
   P_idle(g))·d_seg(g) + disk-excess`` with the per-segment excess
   vectorized over the grid.  Window weights ``w`` replicate skipped
   cycles exactly as the event path's meter/trace replication does.

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
from repro.core.curves import CurvePoint, EnergyTimeCurve
from repro.core.run import RunMeasurement
from repro.mpi.fastforward import FastForwardConfig
from repro.mpi.requests import (
    ANY_SOURCE,
    ANY_TAG,
    Compute,
    DiskIO,
    Elapse,
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
from repro.workloads.base import Workload

#: Relative tolerance of the recording-gear self-check: the replay of the
#: reference gear must reproduce the recording's own measurements this
#: closely or the whole tape is rejected.
SELF_CHECK_RTOL = 1e-9

#: A fast-forward config that observes signatures but can never jump —
#: used to certify recordings of tasks that carry no config of their own.
#: ``min_jump`` above any possible iteration count means marks always
#: resume with 0, so the recorded timeline is bitwise what a plain
#: (no fast-forward) event run produces.
_OBSERVE_ONLY = FastForwardConfig(min_jump=1_000_000_000)

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
TAPE_FORMAT_VERSION = 1


class BatchUnsupported(Exception):
    """The recorded run cannot be revalued across gears.

    Raised when certification fails (a ``Now`` or ``SetGear`` request,
    a signature deviation during the recording, inconsistent jump-window
    state) or when the replay self-check misses.  Callers fall back to
    the exact event engine, which handles every program.
    """


@dataclass
class ReplayStats:
    """How a :func:`replay_grid` call executed each gear column.

    The vectorized walk is conservative: any gear whose interaction
    order cannot be proven to match the recorded schedule is re-replayed
    by the exact scalar interpreter and counted here, so truncated
    vector coverage is visible, never silent.
    """

    #: Gear columns revalued by the vectorized gear-axis walk.
    vector_gears: int = 0
    #: Gear columns replayed by the scalar reference interpreter
    #: (``replay_mode="scalar"``, an ineligible tape, or a guard).
    scalar_gears: int = 0
    #: Scalar columns forced by an order-divergence guard specifically.
    divergent_gears: int = 0
    #: Why whole tapes were routed to the scalar path, when they were.
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
    #: at record time: the self-check compares four floats per replay
    #: instead of re-walking the recording's traces (``active_time`` and
    #: ``reducible_time`` are O(events) properties).
    recording_time: float
    recording_energy: float
    recording_active: float
    recording_reducible: float
    recording_gear: int
    #: Iterations the recording's fast-forward macro-stepped past.
    recorded_skips: int
    #: Lazily-built compiled form (SoA columns + replay schedule).
    #: Derived state: not part of the tape's identity or its payload.
    _compiled: "CompiledTape | None" = field(
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
    config = fast_forward if fast_forward is not None else _OBSERVE_ONLY
    world = World(
        cluster,
        _recording_program(workload.program, entries),
        nodes=nodes,
        gear=gear,
        fast_forward=config,
    )
    recording = world.run()
    ff = world._ff
    assert ff is not None
    if ff.stats.deviations:
        raise BatchUnsupported(
            f"{ff.stats.deviations} signature deviation(s) during recording: "
            "the event structure is not iteration-stable"
        )
    jumps = {(rank, idx): (jump, period) for rank, idx, jump, period in ff.jump_log}
    return _build_tape(cluster, workload, nodes, gear, entries, jumps, recording)


def _build_tape(
    cluster: ClusterSpec,
    workload: Workload,
    nodes: int,
    gear: int,
    entries: list[list[tuple[Any, Any]]],
    jumps: dict[tuple[int, int], tuple[int, int]],
    recording: WorldResult,
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
    recorded_skips = 0

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
        # Reducible-work walk state (structural twin of
        # RankTrace.reducible_time over top-level records in tape order).
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
                ops.append(
                    (
                        _OP_SEND,
                        request.dest,
                        request.tag,
                        request.nbytes,
                        request.dest == rank,
                    )
                )
                handle_map[value.uid] = ("send", -1)
                if depth == 0:
                    seen_send = True
                    pending = []
            elif cls is Irecv:
                ops.append((_OP_RECV, request.source, request.tag, slots))
                handle_map[value.uid] = ("recv", slots)
                slots += 1
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
                    recorded_skips += skipped
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
        recorded_skips=recorded_skips,
    )


# ----------------------------------------------------------------------
# Replay


@dataclass
class _ReplayTrace:
    """Schedule observed by one instrumented scalar replay.

    ``sends`` is the execution order of *wire* sends as ``(rank,
    ordinal)`` — the ordinal counts every SEND op of that rank in tape
    order — and ``pairing`` maps each ``(rank, recv slot)`` to the send
    that completed it.  Both are gear-invariant for wildcard-free tapes
    (FIFO per (source, tag) channel); the vector walk follows this
    schedule and guards the send order per gear.
    """

    sends: list[tuple[int, int]] = field(default_factory=list)
    pairing: dict[tuple[int, int], tuple[int, int]] = field(
        default_factory=dict
    )


def _replay_gear(
    tape: Tape,
    durations: list[list[float]],
    trace: _ReplayTrace | None = None,
) -> tuple[list[float], list[list[tuple[float, float]]]]:
    """Re-run the tape's interactions at one gear.

    Returns per-rank finish times and per-rank disk-speed phase
    boundaries ``(time, new disk idle watts)``.  The interpreter mirrors
    :class:`~repro.mpi.world.World` exactly — same matching algorithm,
    same network server pool, same FIFO tie-breaking — so the timeline
    is the event engine's, without generators, traces, or meters.
    With ``trace`` the replay additionally records the wire-send order
    and the send↔receive pairing (see :class:`_ReplayTrace`).
    """
    nodes = tape.nodes
    network = tape.cluster.network_model()
    schedule_transfer = network.schedule_transfer
    overhead = network.endpoint_overhead()
    ops_by_rank = tape.ops
    nops = [len(ops) for ops in ops_by_rank]
    pos = [0] * nodes
    finish: list[float | None] = [None] * nodes
    heap: list[tuple[float, int, int]] = []
    seq = count()
    msg_seq = count(1)
    recv_uid = count()
    recv_post: list[list[float]] = [[0.0] * n for n in tape.recv_slots]
    recv_done: list[list[float | None]] = [[None] * n for n in tape.recv_slots]
    recv_waiting: list[list[bool]] = [[False] * n for n in tape.recv_slots]
    posted: list[dict[tuple[int, int], deque]] = [{} for _ in range(nodes)]
    unexpected: list[dict[tuple[int, int], deque]] = [{} for _ in range(nodes)]
    phases: list[list[tuple[float, float]]] = [[] for _ in range(nodes)]
    marks: list[list[float]] = [[] for _ in range(nodes)]
    # Send ordinals: the k-th SEND op of a rank (any kind) is (rank, k).
    send_ord = [0] * nodes

    def complete(
        rank: int, slot: int, arrival: float, now: float, ident: tuple[int, int]
    ) -> None:
        # Mirrors World._complete_recv: ready + per-endpoint overhead.
        if trace is not None:
            trace.pairing[(rank, slot)] = ident
        ready = max(recv_post[rank][slot], arrival, now)
        done = ready + overhead
        recv_done[rank][slot] = done
        if recv_waiting[rank][slot]:
            recv_waiting[rank][slot] = False
            heappush(heap, (done, next(seq), rank))

    def route(
        dest: int,
        source: int,
        tag: int,
        arrival: float,
        now: float,
        ident: tuple[int, int],
    ) -> None:
        # Mirrors World._route (indexed FIFO, earliest-posted wins).
        pd = posted[dest]
        if pd:
            best_key = None
            best_uid = -1
            for key in (
                (source, tag),
                (ANY_SOURCE, tag),
                (source, ANY_TAG),
                (ANY_SOURCE, ANY_TAG),
            ):
                queue = pd.get(key)
                if queue:
                    uid = queue[0][0]
                    if best_key is None or uid < best_uid:
                        best_key, best_uid = key, uid
            if best_key is not None:
                queue = pd[best_key]
                _, slot = queue.popleft()
                if not queue:
                    del pd[best_key]
                complete(dest, slot, arrival, now, ident)
                return
        ud = unexpected[dest]
        key = (source, tag)
        queue = ud.get(key)
        if queue is None:
            ud[key] = deque(((arrival, next(msg_seq), ident),))
        else:
            queue.append((arrival, next(msg_seq), ident))

    def match_unexpected(rank: int, source: int, tag: int):
        # Mirrors World._match_unexpected (earliest-sent wins).
        ud = unexpected[rank]
        if not ud:
            return None
        if source != ANY_SOURCE and tag != ANY_TAG:
            queue = ud.get((source, tag))
            if not queue:
                return None
            message = queue.popleft()
            if not queue:
                del ud[(source, tag)]
            return message
        best_key = None
        best_seq = -1
        for key, queue in ud.items():
            if source != ANY_SOURCE and key[0] != source:
                continue
            if tag != ANY_TAG and key[1] != tag:
                continue
            mseq = queue[0][1]
            if best_key is None or mseq < best_seq:
                best_key, best_seq = key, mseq
        if best_key is None:
            return None
        queue = ud[best_key]
        message = queue.popleft()
        if not queue:
            del ud[best_key]
        return message

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
                _, dest, tag, nbytes, same = op
                ordinal = send_ord[rank]
                send_ord[rank] = ordinal + 1
                inject = now + overhead
                if trace is not None and not same:
                    trace.sends.append((rank, ordinal))
                arrival = schedule_transfer(inject, nbytes, same_node=same)
                route(dest, rank, tag, arrival, now, (rank, ordinal))
                if overhead != 0.0:
                    pos[rank] = p
                    heappush(heap, (inject, next(seq), rank))
                    return
            elif code == _OP_RECV:
                _, source, tag, slot = op
                recv_post[rank][slot] = now
                message = match_unexpected(rank, source, tag)
                if message is not None:
                    complete(rank, slot, message[0], now, message[2])
                else:
                    key = (source, tag)
                    queue = posted[rank].get(key)
                    entry = (next(recv_uid), slot)
                    if queue is None:
                        posted[rank][key] = deque((entry,))
                    else:
                        queue.append(entry)
            elif code == _OP_WAIT:
                done = recv_done[rank][op[1]]
                if done is not None:
                    if done <= now:
                        continue
                    pos[rank] = p
                    heappush(heap, (done, next(seq), rank))
                    return
                recv_waiting[rank][op[1]] = True
                pos[rank] = p
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
            elif code == _OP_ELAPSE:
                if op[1] != 0.0:
                    pos[rank] = p
                    heappush(heap, (now + op[1], next(seq), rank))
                    return
            elif code == _OP_DISK:
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
# Compilation: SoA columns + gear-axis replay plan

#: Parameter lanes of :class:`RankColumns` (fixed-width SoA layout).
_INT_LANES = 4
_FLOAT_LANES = 2


@dataclass
class RankColumns:
    """Structure-of-arrays form of one rank's op tape.

    ``codes[i]`` is the opcode of op ``i``; its parameters live in fixed
    lanes of ``ints``/``floats`` (layout in :func:`compile_columns`).
    The mapping is exact: :func:`columns_to_ops` reconstructs the tuple
    stream value-for-value, so the columns — not the tuples — are the
    form the vectorized replay plan is built from.
    """

    codes: np.ndarray  # (n,) int64 opcodes
    ints: np.ndarray  # (n, 4) int64 integer parameters
    floats: np.ndarray  # (n, 2) float64 parameters


def compile_columns(ops: Sequence[tuple]) -> RankColumns:
    """Compile one rank's op tuples into SoA columns.

    Lane layout (unused lanes are zero):

    ========  ======================================  =========================
    opcode    ``ints`` lanes                          ``floats`` lanes
    ========  ======================================  =========================
    COMPUTE   0: segment index                        —
    SEND      0: dest, 1: tag, 2: nbytes, 3: same     —
    RECV      0: source, 1: tag, 2: slot              —
    WAIT      0: slot                                 —
    ELAPSE    —                                       0: seconds
    DISK      —                                       0: duration
    DSPEED    —                                       0: transition, 1: idle W
    MARK      0: skipped, 1: period                   —
    ========  ======================================  =========================
    """
    n = len(ops)
    codes = np.zeros(n, dtype=np.int64)
    ints = np.zeros((n, _INT_LANES), dtype=np.int64)
    floats = np.zeros((n, _FLOAT_LANES), dtype=np.float64)
    for i, op in enumerate(ops):
        code = op[0]
        codes[i] = code
        if code == _OP_COMPUTE:
            ints[i, 0] = op[1]
        elif code == _OP_SEND:
            ints[i, 0] = op[1]
            ints[i, 1] = op[2]
            ints[i, 2] = op[3]
            ints[i, 3] = 1 if op[4] else 0
        elif code == _OP_RECV:
            ints[i, 0] = op[1]
            ints[i, 1] = op[2]
            ints[i, 2] = op[3]
        elif code == _OP_WAIT:
            ints[i, 0] = op[1]
        elif code == _OP_MARK:
            ints[i, 0] = op[1]
            ints[i, 1] = op[2]
        elif code in (_OP_ELAPSE, _OP_DISK):
            floats[i, 0] = op[1]
        else:  # _OP_DSPEED
            floats[i, 0] = op[1]
            floats[i, 1] = op[2]
    return RankColumns(codes=codes, ints=ints, floats=floats)


def columns_to_ops(columns: RankColumns) -> list[tuple]:
    """Reconstruct the op tuple stream from SoA columns (exact inverse)."""
    ops: list[tuple] = []
    codes = columns.codes
    ints = columns.ints
    floats = columns.floats
    for i in range(len(codes)):
        code = int(codes[i])
        if code == _OP_COMPUTE:
            ops.append((code, int(ints[i, 0])))
        elif code == _OP_SEND:
            ops.append(
                (
                    code,
                    int(ints[i, 0]),
                    int(ints[i, 1]),
                    int(ints[i, 2]),
                    bool(ints[i, 3]),
                )
            )
        elif code == _OP_RECV:
            ops.append(
                (code, int(ints[i, 0]), int(ints[i, 1]), int(ints[i, 2]))
            )
        elif code == _OP_WAIT:
            ops.append((code, int(ints[i, 0])))
        elif code == _OP_MARK:
            ops.append((code, int(ints[i, 0]), int(ints[i, 1])))
        elif code in (_OP_ELAPSE, _OP_DISK):
            ops.append((code, float(floats[i, 0])))
        else:  # _OP_DSPEED
            ops.append((code, float(floats[i, 0]), float(floats[i, 1])))
    return ops


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
    """One rank's interaction schedule for the gear-axis walk.

    Everything between two interactions is a *gap*: a gear-independent
    constant (endpoint overheads, elapses, disk busy time, disk-speed
    transitions) plus a contiguous run ``[lo, hi)`` of compute segments
    whose durations scale with the gear.  ``steps[k]`` is ``(kind,
    *params)`` and gap ``k`` precedes it; the last step is the
    :data:`_IN_END` sentinel whose gap is the tape's tail.

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
    """

    steps: list[tuple]
    gap_const: np.ndarray  # (K,) float64
    gap_lo: np.ndarray  # (K,) int64 segment-range starts
    gap_hi: np.ndarray  # (K,) int64 segment-range ends (exclusive)
    boundary_before: np.ndarray  # (K,) int64
    recv_rows: np.ndarray  # (R,) int64 indices of _IN_RECV steps


def _build_plan(
    tape: Tape, rank: int, columns: RankColumns, trace: _ReplayTrace
) -> _RankPlan:
    """Fold one rank's columns + the observed schedule into a plan."""
    link = tape.cluster.network_model().spec
    overhead = link.software_overhead
    pooled = link.concurrency is not None
    codes = columns.codes
    ints = columns.ints
    floats = columns.floats
    # Ranks with no recorded jump never read the mark history, so plain
    # marks compile to nothing at all (dense recordings have thousands).
    mark_rows = codes == _OP_MARK
    has_jump = bool(mark_rows.any()) and bool((ints[mark_rows, 0] > 0).any())

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

    for i in range(len(codes)):
        code = int(codes[i])
        if code == _OP_COMPUTE:
            seg = int(ints[i, 0])
            assert seg == hi, "segments must be contiguous in tape order"
            hi = seg + 1
        elif code == _OP_SEND:
            # The sender-side overhead precedes the injection, so folding
            # it into the gap makes the walk's time *be* the inject time;
            # the receiver-side overhead rides inside the arrival const.
            const += overhead
            nbytes = int(ints[i, 2])
            if ints[i, 3]:
                emit(
                    (
                        _IN_LOCAL,
                        ordinal,
                        nbytes / link.memcpy_bandwidth + overhead,
                    )
                )
            else:
                occupancy = nbytes / link.bandwidth
                emit(
                    (
                        _IN_WIRE,
                        ordinal,
                        occupancy,
                        link.latency + occupancy + overhead,
                    )
                )
            ordinal += 1
        elif code == _OP_RECV:
            emit((_IN_RECV, int(ints[i, 2])))
        elif code == _OP_WAIT:
            slot = int(ints[i, 0])
            src, sord = trace.pairing[(rank, slot)]
            emit((_IN_WAIT, slot, src, sord))
        elif code in (_OP_ELAPSE, _OP_DISK):
            const += float(floats[i, 0])
        elif code == _OP_DSPEED:
            emit((_IN_PHASE, float(floats[i, 1])))
            const += float(floats[i, 0])
        else:  # _OP_MARK
            if has_jump:
                emit((_IN_MARK, int(ints[i, 0]), int(ints[i, 1])))
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


@dataclass
class CompiledTape:
    """Derived form of a tape: SoA columns, plans, observed schedule.

    Built lazily by :func:`_compiled` and cached on the tape, so
    repeated grid replays of one tape pay only the vectorized walk.
    ``eligible`` is False when the tape cannot be walked vectorized at
    all (wildcard receives); ``reason`` says why.
    """

    eligible: bool
    reason: str | None
    columns: list[RankColumns]
    plans: list[_RankPlan]
    schedule: _ReplayTrace


def _vector_ineligible(tape: Tape) -> str | None:
    """A whole-tape reason the vectorized walk cannot run, or None.

    Wildcard receives make the matching order time-dependent, so the
    recorded pairing cannot be certified gear-invariant; such tapes
    replay through the scalar interpreter for every gear.
    """
    for rank, ops in enumerate(tape.ops):
        for op in ops:
            if op[0] == _OP_RECV and (
                op[1] == ANY_SOURCE or op[2] == ANY_TAG
            ):
                return (
                    f"rank {rank}: wildcard receive — matching order is "
                    "time-dependent"
                )
    return None


def _compile_tape(tape: Tape) -> CompiledTape:
    """Compile a tape: columns, one instrumented scalar replay, plans."""
    reason = _vector_ineligible(tape)
    if reason is not None:
        return CompiledTape(False, reason, [], [], _ReplayTrace())
    columns = [compile_columns(ops) for ops in tape.ops]
    trace = _ReplayTrace()
    durations = [
        d.tolist() for d in _segment_durations(tape, tape.recording_gear)
    ]
    _replay_gear(tape, durations, trace)
    plans = [
        _build_plan(tape, rank, columns[rank], trace)
        for rank in range(tape.nodes)
    ]
    return CompiledTape(True, None, columns, plans, trace)


def _compiled(tape: Tape) -> CompiledTape:
    if tape._compiled is None:
        tape._compiled = _compile_tape(tape)
    return tape._compiled


def _segment_durations(tape: Tape, gear_index: int) -> list[np.ndarray]:
    """Per-rank compute-segment durations at one gear, engine-exact."""
    cluster = tape.cluster
    cpu = cluster.node.cpu
    denom = cpu.issue_rate * cluster.gears[gear_index].frequency_hz
    return [
        tape.seg_uops[rank] / denom + tape.seg_stall[rank]
        for rank in range(tape.nodes)
    ]


def _duration_grid(
    tape: Tape, gear_indices: Sequence[int]
) -> list[np.ndarray]:
    """Per-rank ``(gears, segments)`` duration matrices.

    Elementwise identical to :func:`_segment_durations` per row: the
    broadcast performs the same scalar division and addition per cell.
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
    tape: Tape, compiled: CompiledTape, dur_grid: list[np.ndarray]
) -> tuple[
    list[np.ndarray], list[list[tuple[np.ndarray, float]]], np.ndarray
]:
    """Walk the recorded schedule once for every gear column.

    Returns per-rank ``(gears,)`` finish-time vectors, per-rank
    disk-phase boundary lists, and a boolean mask over gear columns
    flagging those whose wire-send order could not be certified against
    the recorded schedule — an injection-order inversion, or a tie
    (within noise) involving a contended transfer.  Flagged columns
    must be re-replayed by the scalar interpreter.
    """
    nodes = tape.nodes
    G = dur_grid[0].shape[0]
    link = tape.cluster.network_model().spec
    overhead = link.software_overhead
    conc = link.concurrency

    # Precompute every interaction's offset from its block boundary:
    # gap vectors via one gather on the segment cumsum, then a blockwise
    # cumulative sum.  (K, G) layout so offs[k] is a contiguous row.
    offs: list[np.ndarray] = []
    zero_col = np.zeros((G, 1))
    for rank in range(nodes):
        plan = compiled.plans[rank]
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
    posts: list[list[np.ndarray | None]] = [
        [None] * n for n in tape.recv_slots
    ]
    phases: list[list[tuple[np.ndarray, float]]] = [[] for _ in range(nodes)]
    mark_hist: list[list[np.ndarray]] = [[] for _ in range(nodes)]
    finish: list[np.ndarray | None] = [None] * nodes
    servers = np.zeros((conc, G)) if conc is not None else None
    gcols = np.arange(G)
    inj_rows: list[np.ndarray] = []
    start_rows: list[np.ndarray] = []

    np_maximum = np.maximum

    def advance(rank: int, upto: int | None) -> None:
        plan = compiled.plans[rank]
        steps = plan.steps
        off = offs[rank]
        rank_posts = posts[rank]
        b = base[rank]
        k = ptr[rank]
        while True:
            step = steps[k]
            kind = step[0]
            if kind == _IN_WAIT:
                done = np_maximum(
                    rank_posts[step[1]], arrivals[(step[2], step[3])]
                )
                b = np_maximum(b + off[k], done)
                k += 1
            elif kind == _IN_WIRE:
                inject = b + off[k]
                if servers is None:
                    arrivals[(rank, step[1])] = inject + step[3]
                else:
                    idx = servers.argmin(axis=0)
                    free_at = servers[idx, gcols]
                    start = np_maximum(inject, free_at)
                    servers[idx, gcols] = start + step[2]
                    arrivals[(rank, step[1])] = start + step[3]
                    inj_rows.append(inject)
                    start_rows.append(start)
                k += 1
                if step[1] == upto:
                    break
            elif kind == _IN_RECV:
                rank_posts[step[1]] = b + off[k]
                k += 1
            elif kind == _IN_LOCAL:
                arrivals[(rank, step[1])] = b + (off[k] + step[2])
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

    # Wire sends drive the walk in the recorded schedule order (the
    # pooled backplane is the only stateful cross-rank resource); the
    # drain then runs every rank to its end — all remaining waits pair
    # with sends already scheduled.
    for rank, ordinal in compiled.schedule.sends:
        advance(rank, ordinal)
    for rank in range(nodes):
        if finish[rank] is None:
            advance(rank, None)

    divergent = np.zeros(G, dtype=bool)
    if servers is not None and len(inj_rows) > 1:
        inj = np.stack(inj_rows)
        starts = np.stack(start_rows)
        contended = starts > inj
        diffs = inj[1:] - inj[:-1]
        tie_tol = 1e-9 * max(1.0, float(np.max(np.abs(inj))))
        near = np.abs(diffs) <= tie_tol
        divergent = (diffs < 0).any(axis=0) | (
            near & (contended[1:] | contended[:-1])
        ).any(axis=0)
    return finish, phases, divergent  # type: ignore[return-value]


def _measure_gear(tape: Tape, gear_index: int) -> RunMeasurement:
    """Scalar reference path: replay + roll up one gear exactly.

    This is PR 7's per-gear loop body, unchanged float-for-float; the
    vectorized grid falls back to it per gear column when the send-order
    guard fires, and ``replay_mode="scalar"`` runs it for every gear.
    """
    cluster = tape.cluster
    node_spec = cluster.node
    cpu = node_spec.cpu
    power_model = node_spec.power_model()
    cpu_model = power_model.cpu_model
    ref_bw = node_spec.memory.reference_miss_bandwidth
    upm = CounterBank(uops=tape.total_uops, l2_misses=tape.total_misses).upm

    gear = cluster.gears[gear_index]
    scale = cpu_model.dynamic_scale(gear)
    leak = cpu_model.leakage_power(gear)
    # Scalar prefixes mirror CPUPowerModel's left-associated products
    # so the vectorized power matches the engine's floats exactly.
    k_active = cpu.dynamic_power_full * scale * cpu.active_activity
    cpu_idle = cpu.dynamic_power_full * scale * cpu.idle_activity + leak
    pm_idle = power_model.base_power + cpu_idle
    saf = cpu.stall_activity_fraction

    dur_arrays = _segment_durations(tape, gear_index)
    durations = [d.tolist() for d in dur_arrays]

    finish, phases = _replay_gear(tape, durations)
    end_time = max(finish) if finish else 0.0

    energy = 0.0
    active_time = 0.0
    reducible_time = 0.0
    for rank in range(tape.nodes):
        d = dur_arrays[rank]
        w = tape.seg_weight[rank]
        if len(d):
            stall_frac = tape.seg_stall[rank] / d
            occupancy = (1.0 - stall_frac) + saf * stall_frac
            cpu_active = k_active * occupancy + leak
            intensity = np.minimum(
                1.0, (tape.seg_misses[rank] / d) / ref_bw
            )
            p_active = (
                power_model.base_power
                + cpu_active
                + power_model.memory_power_max * intensity
            )
            wd = w * d
            energy += float(np.sum(wd * (p_active - pm_idle)))
            rank_active = float(np.sum(wd))
            rank_reducible = float(np.sum(tape.seg_reducible[rank] * wd))
        else:
            rank_active = 0.0
            rank_reducible = 0.0
        if rank_active > active_time:
            active_time = rank_active
        if rank_reducible > reducible_time:
            reducible_time = rank_reducible
        # Idle baseline: the rank draws (CPU idle + disk idle) for
        # the whole run; disk-speed transitions split it into phases.
        t = 0.0
        disk_idle = tape.initial_disk_idle
        for boundary, new_idle in phases[rank]:
            energy += (pm_idle + disk_idle) * (boundary - t)
            t = boundary
            disk_idle = new_idle
        energy += (pm_idle + disk_idle) * (end_time - t)
        energy += tape.disk_excess[rank]

    measurement = RunMeasurement(
        workload=tape.workload_name,
        cluster=cluster.name,
        nodes=tape.nodes,
        gear=gear_index,
        time=end_time,
        energy=energy,
        active_time=active_time,
        idle_time=max(0.0, end_time - active_time),
        reducible_time=reducible_time,
        upm=upm,
    )
    if gear_index == tape.recording_gear:
        _self_check(tape, measurement)
    return measurement


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

    Mirrors :func:`_measure_gear`'s arithmetic elementwise over the gear
    axis: every per-gear scalar becomes a ``(gears,)`` vector built from
    the same left-associated scalar prefixes, and the per-segment matrix
    ops reduce along the segment axis exactly as the per-gear rows do.
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

    ``mode="grid"`` (the default) compiles the tape once (cached on the
    tape) and walks the whole grid as gear-axis vectors; gear columns
    the send-order guard cannot certify are re-replayed by the scalar
    interpreter — exact, counted in ``stats``, never silent.
    ``mode="scalar"`` runs the PR 7 reference interpreter per gear.

    The recording gear is always revalued — appended to the grid when
    absent — and checked against the recording's own event-engine
    measurements at :data:`SELF_CHECK_RTOL`; a miss rejects the tape
    (:class:`BatchUnsupported`), so a defective replay can never
    silently ship wrong numbers for the *other* gears.  In grid mode
    the check runs against the *vectorized* column; if that column
    itself diverges, the whole grid falls back to the scalar path so
    vectorized numbers never ship unchecked.
    """
    if mode not in ("grid", "scalar"):
        raise ConfigurationError(
            f"unknown replay mode {mode!r} (expected 'grid' or 'scalar')"
        )
    if stats is None:
        stats = ReplayStats()
    if mode == "scalar":
        return _replay_grid_scalar(tape, gear_indices, stats)

    compiled = _compiled(tape)
    if not compiled.eligible:
        assert compiled.reason is not None
        stats.fallback_reasons.append(compiled.reason)
        return _replay_grid_scalar(tape, gear_indices, stats)

    extended = list(gear_indices)
    try:
        check_col = extended.index(tape.recording_gear)
    except ValueError:
        check_col = len(extended)
        extended.append(tape.recording_gear)
    dur_grid = _duration_grid(tape, extended)
    finish, phases, divergent = _vector_walk(tape, compiled, dur_grid)
    if divergent[check_col]:
        stats.fallback_reasons.append(
            "recording-gear column diverged from the recorded send order; "
            "scalar replay for the whole grid"
        )
        return _replay_grid_scalar(tape, gear_indices, stats)
    rollup = _rollup_vector(tape, extended, dur_grid, finish, phases)
    # Validate the vectorized path itself before any column ships.
    _self_check(
        tape, _column_measurement(tape, tape.recording_gear, rollup, check_col)
    )

    out: list[RunMeasurement] = []
    for col, gear_index in enumerate(gear_indices):
        if divergent[col]:
            stats.divergent_gears += 1
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
    "recorded_skips",
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


def tape_from_payload(cluster: ClusterSpec, payload: dict) -> Tape:
    """Rebuild a tape from :func:`tape_to_payload` output.

    Raises:
        ValueError: the payload's format version is not the current
            one.  Callers treat this as a cache miss and re-record —
            :data:`TAPE_FORMAT_VERSION` is part of every tape cache
            key, so this only fires on hand-fed payloads.
    """
    version = payload.get("format")
    if version != TAPE_FORMAT_VERSION:
        raise ValueError(
            f"tape format {version!r} != {TAPE_FORMAT_VERSION}"
        )
    kwargs: dict[str, Any] = {
        name: payload[name] for name in _TAPE_SCALAR_FIELDS
    }
    for name in _TAPE_ARRAY_FIELDS:
        kwargs[name] = [
            np.asarray(values, dtype=np.float64)
            for values in payload[name]
        ]
    ops = [[tuple(op) for op in rank_ops] for rank_ops in payload["ops"]]
    return Tape(cluster=cluster, ops=ops, **kwargs)


# ----------------------------------------------------------------------
# Public entry points


def batch_gear_grid(
    cluster: ClusterSpec,
    workload: Workload,
    *,
    nodes: int,
    gears: Sequence[int] | None = None,
    fast_forward: "FastForwardConfig | None" = None,
    replay_mode: str = "grid",
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
    return replay_grid(tape, gear_indices, mode=replay_mode, stats=stats)


def batch_gear_sweep(
    cluster: ClusterSpec,
    workload: Workload,
    *,
    nodes: int,
    gears: Sequence[int] | None = None,
    fast_forward: "FastForwardConfig | None" = None,
    replay_mode: str = "grid",
    stats: ReplayStats | None = None,
    tape: Tape | None = None,
) -> EnergyTimeCurve:
    """One energy-time curve from one recording (batch twin of
    :func:`repro.core.run.gear_sweep`)."""
    measurements = batch_gear_grid(
        cluster,
        workload,
        nodes=nodes,
        gears=gears,
        fast_forward=fast_forward,
        replay_mode=replay_mode,
        stats=stats,
        tape=tape,
    )
    return EnergyTimeCurve(
        workload=workload.name,
        nodes=nodes,
        points=tuple(
            CurvePoint(gear=m.gear, time=m.time, energy=m.energy)
            for m in measurements
        ),
    )
