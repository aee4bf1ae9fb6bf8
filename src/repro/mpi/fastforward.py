"""Steady-state fast-forward: macro-step the simulator past periodic iterations.

Every workload in the paper is iterative — Jacobi, the NAS kernels, and
the synthetic benchmark repeat a fixed compute/halo-exchange/allreduce
cycle.  Event-driven simulation replays each of the ~100+ iterations,
so run cost grows linearly with iteration count even though the run is
in a perfect steady state after the first few iterations.  COUNTDOWN
(Cesarini et al.) exploits exactly this per-iteration regularity of MPI
applications at runtime; this module exploits it in simulation.

Mechanism
---------

Programs declare iteration boundaries with
:meth:`repro.mpi.comm.Comm.iteration_mark`.  Between consecutive marks
the runtime feeds every yielded request into a per-rank *iteration
signature* — a running hash of the payload-independent event structure:
op kinds, peers, tags (collective tags normalised, since their sequence
numbers advance every iteration), byte counts, the gear compute blocks
run at, and the compute quanta themselves.  Simulated times and message
payloads are deliberately excluded: the signature captures *structure*.

Structural stability alone is not enough to extrapolate: contention on
the shared fabric settles into *limit cycles* whose period can exceed
one iteration (CG on four nodes cycles with period 3, on eight nodes
with period 7, even though every iteration is structurally identical).
Each rank therefore also keeps a window of inter-mark clock deltas and
detects the smallest period ``p <= max_period`` under which the whole
window is ``delta_rtol``-periodic.  The window must be full
(``2 * max_period`` deltas beyond the warmup iteration) before any
period is trusted, so a rare per-cycle blip cannot masquerade as a
shorter period — which means jumps can engage only on runs longer than
about ``2 * max_period + 3`` iterations.

A macro-step replays the last observed cycle analytically:

- the power-meter intervals of the last ``p`` iterations are replicated
  with shifted timestamps
  (:meth:`repro.cluster.power.PowerMeter.replicate_window`),
- the trace span pattern likewise
  (:meth:`repro.mpi.tracing.RankTrace.replicate_rows`),
- hardware counters are charged the per-cycle delta times the number of
  replicated cycles,
- and the rank resumes at ``t + copies * cycle`` with the skip count,
  so the program advances its loop counter (and replays any
  per-iteration payload recurrence exactly).

The ``reserve`` epilogue iterations (plus any remainder that is not a
whole number of cycles) then run event-by-event, so run tails (final
reductions, result collection) stay exact.

Coordination
------------

Communicating ranks must jump all-or-none in the same round: skipped
iterations skip collective-tag sequence increments, so a lone holdout
would deadlock against peers whose tag space moved on.  The decision is
therefore made one round ahead and committed by unanimous vote:

1. *Arm.*  When the last rank of round ``i`` reaches its mark — i.e.
   every rank has processed exactly marks ``0..i`` — and every rank is
   individually ready (stable signatures, confirmed period, clean
   message queues, identical totals), the round ``i + 1`` is armed with
   a jump of ``J`` iterations, where ``J`` is the largest multiple of
   the ranks' combined cycle length that leaves the reserve epilogue.
   At arming time every rank sits strictly before mark ``i + 1``, so
   no rank can pass the armed round unseen.
2. *Vote.*  Each rank reaching the armed mark validates the iteration
   it just finished (signature still matches the reference, latest
   delta still on-cycle, queues still clean) and parks itself.  Parked
   ranks execute nothing, so the arrival times recorded for the
   remaining ranks are exactly those of an undisturbed run.
3. *Commit.*  When the last rank votes, every parked rank is macro-
   stepped from its *own* recorded arrival state and woken at its own
   ``t + copies * cycle`` — bitwise identical to the times an exact
   per-rank periodic run would produce.
4. *Veto.*  If any rank fails validation (a signature deviation or an
   off-cycle delta landed exactly in the armed round), the round is
   disarmed and already-parked ranks are released immediately with a
   skip count of zero; no iteration is ever extrapolated from an
   unverified cycle.  A veto can only follow a deviation, so runs that
   honour the steady-state contract never pay it.

Ranks whose reference iteration has no communication (EP's compute-only
loop, any single-rank world) skip the protocol and macro-step
independently; single-rank worlds also jump the engine clock itself
(:meth:`repro.sim.engine.Simulator.jump_to`).

A signature deviation anywhere (adaptive gear policies, checkpoint
bursts under per-iteration marks, data-dependent communication)
permanently disables jumping for the run, which silently falls back to
full event-driven simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import TYPE_CHECKING, Any

from repro.mpi.comm import COLLECTIVE_TAG_BASE
from repro.mpi.requests import (
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
from repro.sim.process import BLOCKED
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.mpi.world import World, _RankRuntime


@dataclass(frozen=True)
class FastForwardConfig:
    """Tuning knobs for steady-state detection.

    Attributes:
        k: consecutive identical iteration signatures (after the warmup
            iteration) required before a jump is considered.
        reserve: trailing iterations always simulated event-by-event.
        min_jump: smallest number of iterations worth macro-stepping.
        delta_rtol: relative tolerance for inter-mark clock-delta
            periodicity (steady state must hold in time, not just in
            event structure).
        max_period: largest limit-cycle period, in iterations, the
            detector will consider.  Jumps require ``2 * max_period``
            post-warmup deltas of history, so smaller values engage
            earlier while larger values tolerate longer contention
            cycles (CG needs ``nodes - 1``).
    """

    k: int = 3
    reserve: int = 1
    min_jump: int = 2
    delta_rtol: float = 1e-9
    max_period: int = 16
    #: Cross-run accumulator: every :class:`~repro.mpi.world.World` run
    #: folds its per-run stats in here, so one config threaded through a
    #: sweep doubles as the sweep's fast-forward ledger.  Mutable state,
    #: excluded from equality/hashing/``describe()``.
    aggregate: "FastForwardStats" = field(
        default_factory=lambda: FastForwardStats(), compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError(f"fast-forward k must be >= 1, got {self.k}")
        if self.reserve < 0:
            raise ConfigurationError(
                f"fast-forward reserve must be >= 0, got {self.reserve}"
            )
        if self.min_jump < 1:
            raise ConfigurationError(
                f"fast-forward min_jump must be >= 1, got {self.min_jump}"
            )
        if self.delta_rtol < 0:
            raise ConfigurationError(
                f"fast-forward delta_rtol must be >= 0, got {self.delta_rtol}"
            )
        if self.max_period < 1:
            raise ConfigurationError(
                f"fast-forward max_period must be >= 1, got {self.max_period}"
            )

    def describe(self) -> dict:
        """Stable mapping for cache keys and reports."""
        return {
            "k": self.k,
            "reserve": self.reserve,
            "min_jump": self.min_jump,
            "delta_rtol": self.delta_rtol,
            "max_period": self.max_period,
        }


@dataclass
class FastForwardStats:
    """What the fast-forward layer did during one run.

    Attributes:
        marks: iteration marks processed (all ranks).
        jumps: macro-steps executed (one per rank per jump round).
        skipped_iterations: iterations extrapolated instead of simulated,
            summed over ranks.
        deviations: signature mismatches observed (each permanently
            disables jumping for the run).
        armed_rounds: coordinated jump rounds armed by the rank
            consensus check.
        vetoed_rounds: armed rounds abandoned because a rank failed
            last-moment validation at the jump mark.
    """

    marks: int = 0
    jumps: int = 0
    skipped_iterations: int = 0
    deviations: int = 0
    armed_rounds: int = 0
    vetoed_rounds: int = 0

    def merge(self, other: "FastForwardStats") -> None:
        """Fold another run's counters into this one."""
        self.marks += other.marks
        self.jumps += other.jumps
        self.skipped_iterations += other.skipped_iterations
        self.deviations += other.deviations
        self.armed_rounds += other.armed_rounds
        self.vetoed_rounds += other.vetoed_rounds


class _RankState:
    """Signature history and steady-state bookkeeping for one rank."""

    __slots__ = (
        "sig",
        "saw_comm",
        "last_index",
        "total",
        "ordinal",
        "ref_sig",
        "ref_comm",
        "stable",
        "prefix_ok",
        "deltas",
        "hist",
        "clean",
        "period",
        "marks_seen",
    )

    def __init__(self) -> None:
        self.sig = 0
        self.saw_comm = False
        self.last_index: int | None = None
        self.total = 0
        self.ordinal = 0
        self.ref_sig: int | None = None
        self.ref_comm = False
        self.stable = 0
        self.prefix_ok = True
        #: Inter-mark clock deltas, oldest first, capped at 2 * max_period.
        self.deltas: list[float] = []
        #: Per-mark snapshots (time, trace rows, counter totals), capped
        #: at max_period + 1 — enough to replicate any detectable cycle.
        self.hist: list[tuple[float, int, tuple[float, float, float, float]]] = []
        self.clean = True
        self.period = 0
        self.marks_seen = 0


def _norm_tag(tag: int) -> int | str:
    """Collective tags carry a per-rank sequence number that advances
    every iteration; fold them to a constant so the signature sees the
    structure, not the counter."""
    return "coll" if tag >= COLLECTIVE_TAG_BASE else tag


def _enc_compute(rt: "_RankRuntime", r: Compute) -> tuple[tuple, bool]:
    b = r.block
    return ("C", b.uops, b.l2_misses, b.miss_latency, rt.node.gear.index), False


def _enc_isend(rt: "_RankRuntime", r: Isend) -> tuple[tuple, bool]:
    return ("S", r.dest, _norm_tag(r.tag), r.nbytes), True


def _enc_irecv(rt: "_RankRuntime", r: Irecv) -> tuple[tuple, bool]:
    return ("R", r.source, _norm_tag(r.tag)), True


def _enc_wait(rt: "_RankRuntime", r: Wait) -> tuple[tuple, bool]:
    h = r.handle
    return ("W", h.kind, h.peer, _norm_tag(h.tag)), True


def _enc_set_gear(rt: "_RankRuntime", r: SetGear) -> tuple[tuple, bool]:
    return ("G", r.gear_index), False


def _enc_elapse(rt: "_RankRuntime", r: Elapse) -> tuple[tuple, bool]:
    return ("E", r.seconds), False


def _enc_disk_io(rt: "_RankRuntime", r: DiskIO) -> tuple[tuple, bool]:
    return ("D", r.nbytes), False


def _enc_set_disk_speed(rt: "_RankRuntime", r: SetDiskSpeed) -> tuple[tuple, bool]:
    return ("DS", r.speed_index), False


def _enc_now(rt: "_RankRuntime", r: Now) -> tuple[tuple, bool]:
    return ("N",), False


def _enc_trace_mark(rt: "_RankRuntime", r: TraceMark) -> tuple[tuple, bool]:
    return ("T", r.op, r.phase, r.nbytes), False


#: Request class -> (signature tuple, counts as communication).
#: IterationMark is deliberately absent: its index varies per iteration.
_ENCODERS = {
    Compute: _enc_compute,
    Isend: _enc_isend,
    Irecv: _enc_irecv,
    Wait: _enc_wait,
    SetGear: _enc_set_gear,
    Elapse: _enc_elapse,
    DiskIO: _enc_disk_io,
    SetDiskSpeed: _enc_set_disk_speed,
    Now: _enc_now,
    TraceMark: _enc_trace_mark,
}


def _detect_period(cfg: FastForwardConfig, deltas: list[float]) -> int:
    """Smallest period consistent with the *full* delta window (0 = none).

    The window must be full before any period is trusted: a shorter
    confirmation span would let a mostly-constant delta sequence with a
    once-per-cycle blip (CG's contention cycles) pass as period 1 and
    extrapolate the wrong cycle time.
    """
    window = 2 * cfg.max_period
    if len(deltas) < window:
        return 0
    rtol = cfg.delta_rtol
    for p in range(1, cfg.max_period + 1):
        for i in range(1, window - p + 1):
            a, b = deltas[-i], deltas[-i - p]
            if a <= 0 or abs(a - b) > rtol * max(a, b):
                break
        else:
            return p
    return 0


class FastForward:
    """Per-:class:`~repro.mpi.world.World` fast-forward engine."""

    def __init__(self, config: FastForwardConfig, nranks: int) -> None:
        self.config = config
        self.stats = FastForwardStats()
        self.ranks = [_RankState() for _ in range(nranks)]
        self.any_deviation = False
        #: One ``(rank, mark_index, jump, period)`` entry per executed
        #: macro-step, in commit order.  The record/replay batch backend
        #: reads this to locate each jump's replicated window on the
        #: recorded tape; the event path itself never consults it.
        self.jump_log: list[tuple[int, int, int, int]] = []
        #: (mark index, jump iterations) of the round armed for a
        #: coordinated macro-step, if any.
        self.armed: tuple[int, int] | None = None
        #: Ranks parked at the armed mark awaiting unanimity.
        self.votes: list[tuple["_RankRuntime", _RankState]] = []

    # ------------------------------------------------------------------

    def feed(self, rt: "_RankRuntime", request: Any) -> None:
        """Fold one yielded request into the rank's iteration signature."""
        encode = _ENCODERS.get(request.__class__)
        if encode is None:
            return
        st = self.ranks[rt.rank]
        tup, is_comm = encode(rt, request)
        st.sig = hash((st.sig, tup))
        if is_comm:
            st.saw_comm = True

    def on_mark(
        self, world: "World", rt: "_RankRuntime", request: IterationMark
    ) -> Any:
        """Handle one iteration boundary.

        Returns the iterations skipped (the mark's resume value), or
        :data:`~repro.sim.process.BLOCKED` when the rank parks or jumps.
        """
        st = self.ranks[rt.rank]
        self.stats.marks += 1
        st.marks_seen += 1
        now = world.engine._now
        idx = request.index
        counters = rt.counters
        snap = (
            now,
            len(rt.trace),
            (
                counters.uops,
                counters.l2_misses,
                counters.cycles,
                counters.compute_seconds,
            ),
        )
        contiguous = st.last_index is not None and idx == st.last_index + 1
        st.last_index = idx
        st.total = request.total
        sig = st.sig
        saw_comm = st.saw_comm
        st.sig = 0
        st.saw_comm = False
        clean = not world._unexpected[rt.rank] and not world._posted[rt.rank]
        st.clean = clean

        if not contiguous:
            # First mark of a loop, or the first mark after a jump:
            # signature history restarts here.
            st.ordinal = 0
            st.ref_sig = None
            st.ref_comm = False
            st.stable = 0
            st.prefix_ok = True
            st.deltas = []
            st.hist = [snap]
            st.period = 0
            return 0

        st.ordinal += 1
        if st.ordinal == 1:
            # Warmup iteration: first-touch effects (initial gear shifts,
            # disk spin-up, cold collective trees) are excluded from the
            # signature reference, and its delta from the time window.
            st.hist = [snap]
            return 0
        if st.ordinal == 2:
            st.ref_sig = sig
            st.ref_comm = saw_comm
            st.stable = 1
        elif st.prefix_ok:
            if sig != st.ref_sig:
                # A deviation while a round is armed is resolved by the
                # veto in _vote (the next mark this rank reaches *is* the
                # armed one), which also releases any parked peers.
                st.prefix_ok = False
                self.any_deviation = True
                self.stats.deviations += 1
            else:
                st.stable += 1

        st.deltas.append(now - st.hist[-1][0])
        if len(st.deltas) > 2 * self.config.max_period:
            del st.deltas[0]
        st.hist.append(snap)
        if len(st.hist) > self.config.max_period + 1:
            del st.hist[0]

        armed = self.armed
        if armed is not None and armed[0] == idx:
            return self._vote(world, rt, st, armed[1], clean)
        if not st.ref_comm:
            jump = self._solo_jump(world, rt, st, idx, request.total)
            if jump:
                return self._execute_solo(world, rt, st, jump)
            return 0
        self._try_arm(idx, request.total)
        return 0

    # ------------------------------------------------------------------

    def _try_arm(self, idx: int, total: int) -> None:
        """Arm round ``idx + 1`` for a coordinated jump if every rank is
        ready.  Only the last rank of round ``idx`` can pass the
        ``marks_seen`` equality, so arming happens while every rank sits
        strictly before the armed mark — no rank can slip past unseen."""
        cfg = self.config
        if self.armed is not None or self.any_deviation:
            return
        nxt = idx + 1
        lcm = 1
        for st in self.ranks:
            if (
                st.marks_seen != nxt
                or st.total != total
                or not st.prefix_ok
                or st.stable < cfg.k
                or not st.ref_comm
                or not st.clean
            ):
                return
            period = _detect_period(cfg, st.deltas)
            if not period:
                return
            st.period = period
            lcm = lcm * period // gcd(lcm, period)
            if lcm > cfg.max_period:
                return
        remaining = total - cfg.reserve - nxt
        jump = (remaining // lcm) * lcm
        if jump < cfg.min_jump:
            return
        self.armed = (nxt, jump)
        self.stats.armed_rounds += 1

    def _vote(
        self,
        world: "World",
        rt: "_RankRuntime",
        st: _RankState,
        jump: int,
        clean: bool,
    ) -> Any:
        """One rank arrives at the armed mark: validate, park, commit."""
        if not (clean and self._on_cycle(st)):
            # The iteration between arming and jumping deviated (the only
            # way validation can fail); abandon the round and release any
            # already-parked peers with a zero skip count.
            self.armed = None
            self.stats.vetoed_rounds += 1
            self._release(world)
            return 0
        self.votes.append((rt, st))
        if len(self.votes) == len(self.ranks):
            self._commit(world, jump)
        rt.process.block("fast-forward")
        return BLOCKED

    def _on_cycle(self, st: _RankState) -> bool:
        """Is the rank's latest iteration still on its detected cycle?"""
        period = st.period
        deltas = st.deltas
        if not st.prefix_ok or period == 0 or len(deltas) < period + 1:
            return False
        a, b = deltas[-1], deltas[-1 - period]
        return a > 0 and abs(a - b) <= self.config.delta_rtol * max(a, b)

    def _commit(self, world: "World", jump: int) -> None:
        """Unanimity: macro-step every parked rank from its own recorded
        arrival state.  Parked ranks executed nothing since arriving, so
        those states are exactly an undisturbed run's."""
        for rt, st in self.votes:
            target = self._replicate(rt, st, jump)
            world._resume_later(rt, target, jump)
        self.votes = []
        self.armed = None

    def _release(self, world: "World") -> None:
        """Veto: wake parked ranks with nothing skipped."""
        now = world.engine._now
        for rt, _st in self.votes:
            world._resume_later(rt, now, 0)
        self.votes = []

    # ------------------------------------------------------------------

    def _solo_jump(
        self,
        world: "World",
        rt: "_RankRuntime",
        st: _RankState,
        idx: int,
        total: int,
    ) -> int:
        """Iterations a communication-free rank may jump alone (0 = none)."""
        cfg = self.config
        if not st.prefix_ok or st.stable < cfg.k or not st.clean:
            return 0
        period = _detect_period(cfg, st.deltas)
        if not period:
            return 0
        remaining = total - cfg.reserve - idx
        jump = (remaining // period) * period
        if jump < cfg.min_jump:
            return 0
        st.period = period
        return jump

    def _execute_solo(
        self, world: "World", rt: "_RankRuntime", st: _RankState, jump: int
    ) -> Any:
        """Macro-step one rank that needs no peer coordination."""
        target = self._replicate(rt, st, jump)
        if world.nodes == 1:
            # Nothing else is running: move the clock itself.
            world.engine.jump_to(target)
            return jump
        world._resume_later(rt, target, jump)
        rt.process.block("fast-forward")
        return BLOCKED

    def _replicate(
        self, rt: "_RankRuntime", st: _RankState, jump: int
    ) -> float:
        """Replay ``jump`` iterations as copies of the rank's last cycle;
        returns the simulated time the rank resumes at."""
        period = st.period
        copies = jump // period
        t0, rows0, counters0 = st.hist[-1 - period]
        t1 = st.hist[-1][0]
        cycle = t1 - t0
        rt.meter.replicate_window(t0, t1, cycle, copies)
        rt.trace.replicate_rows(rows0, cycle, copies)
        counters = rt.counters
        counters.charge(
            (counters.uops - counters0[0]) * copies,
            (counters.l2_misses - counters0[1]) * copies,
            (counters.cycles - counters0[2]) * copies,
            (counters.compute_seconds - counters0[3]) * copies,
        )
        self.stats.jumps += 1
        self.stats.skipped_iterations += jump
        assert st.last_index is not None
        self.jump_log.append((rt.rank, st.last_index, jump, period))
        return t1 + copies * cycle
