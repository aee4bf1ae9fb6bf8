"""Cluster-wide power-cap redistribution: PowerBudgetPolicy + BudgetArbiter.

Medhat et al.'s power-redistribution result (PAPERS.md): under a fixed
cluster power cap, shifting watts toward the critical path beats scaling
every node uniformly.  The structure here is a coordinator/worker split:

- :class:`BudgetArbiter` owns the cap.  It prices each gear at its
  *worst-case* node power (full CPU activity, zero stall, DRAM flat
  out), keeps a per-rank charge ledger against the cap, and every
  cluster-round of observations redistributes: one-step upgrades go to
  the ranks with the longest smoothed compute spans (the critical path,
  as seen from MPI blocking), one-step claw-backs hit ranks whose slack
  fraction shows them chronically early.
- :class:`PowerBudgetPolicy` is the user-facing template.  Attaching it
  to a run (:meth:`PowerBudgetPolicy.prepare`) builds one arbiter and
  one :class:`_BudgetRank` per rank; the rank policies fetch their
  granted gear on every compute phase and feed their blocking spans
  back as the arbiter's priority signal.

Cap safety is structural, not statistical.  The ledger charges
asymmetrically around the grant/apply handshake:

- an *upgrade* is charged at grant time — before the rank has fetched
  the faster gear, so the watts are reserved while the node still draws
  less;
- a *claw-back* keeps charging the old (faster) price until the rank
  actually fetches and applies the slower gear — the watts are only
  released once the node can no longer draw them.

Since a rank's true draw never exceeds the worst-case price of the
fastest gear it could currently be running (its applied gear, or a
just-granted faster one), the ledger total bounds true cluster power in
*every* instant, hence in every coalesced power-meter window — the
property the conformance harness audits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.policy.base import GearPolicy, _check_gear_range
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.cluster.cluster import ClusterSpec


def gear_power_envelope(cluster: "ClusterSpec") -> dict[int, float]:
    """Worst-case node watts per gear index, for pricing against a cap.

    Full CPU activity (zero stall), DRAM at full intensity, plus the
    hungriest disk speed when the node has a multi-speed disk.  Idle and
    blocked states draw strictly less at every gear, so a ledger priced
    from this envelope bounds true draw in every window.
    """
    model = cluster.node.power_model()
    disk_w = 0.0
    if cluster.node.disk is not None:
        disk_w = max(s.active_power for s in cluster.node.disk)
    return {
        g.index: model.active_power(g, 0.0, 1.0) + disk_w
        for g in cluster.gears
    }


class BudgetArbiter:
    """Redistributes a fixed cluster power cap across ranks.

    One instance is shared by all of a run's :class:`_BudgetRank`
    policies.  The simulation engine is single-threaded and
    deterministic, so the arbiter needs no locking and its decisions
    replay identically under any executor dispatch mode.
    """

    def __init__(
        self,
        cluster: "ClusterSpec",
        nodes: int,
        *,
        cap_w: float,
        ewma: float = 0.3,
        claw_threshold: float = 0.5,
        idle_gear: int,
    ):
        envelope = gear_power_envelope(cluster)
        slowest = cluster.gears.slowest.index
        floor = nodes * envelope[slowest]
        if cap_w < floor:
            raise ConfigurationError(
                f"power cap {cap_w:.1f} W is infeasible: {nodes} nodes need "
                f">= {floor:.1f} W even at gear {slowest} "
                f"({envelope[slowest]:.1f} W/node worst case)"
            )
        self.cap_w = cap_w
        self.ewma = ewma
        self.claw_threshold = claw_threshold
        self.idle_gear = idle_gear
        self.nodes = nodes
        self._watts = envelope
        self._fastest = cluster.gears.fastest.index
        self._slowest = slowest
        self._ewma_rest = 1.0 - ewma
        # Grant = the gear a rank is entitled to; applied = the gear it
        # last fetched.  The ledger charges the fastest of the two.
        self._grant = [slowest] * nodes
        self._applied = [slowest] * nodes
        self._span = [0.0] * nodes  # smoothed compute span, seconds
        self._slack = [0.0] * nodes  # smoothed blocked fraction
        self._seen = [False] * nodes
        self._reports_since = 0
        # Rebalancing is a pure function of (grant, applied, seen,
        # slack-vs-threshold) plus the span ordering — and the ordering
        # only matters once an upgrade is feasible at all.  After a
        # round that changed nothing, the outcome cannot change until
        # one of those inputs does, so rounds are skipped until a fetch
        # releases watts or a rank crosses the claw threshold.
        self._elig = [False] * nodes  # slack > claw_threshold, per rank
        self._settled = False
        #: Telemetry: rebalance rounds, one-step grants each way.
        self.rebalances = 0
        self.upgrades = 0
        self.downgrades = 0
        # Distribute the initial headroom before the run starts so the
        # first compute phases are not needlessly pinned to the floor.
        self._rebalance()

    def _charge(self, rank: int) -> float:
        """Ledger price of one rank: worst case of grant vs applied."""
        return self._watts[min(self._grant[rank], self._applied[rank])]

    def total_charge(self) -> float:
        """Current ledger total, watts (always <= the cap)."""
        return sum(self._charge(r) for r in range(self.nodes))

    def granted_gears(self) -> list[int]:
        """Current per-rank grants (for inspection/telemetry)."""
        return list(self._grant)

    def fetch_gear(self, rank: int) -> int:
        """A rank applies its grant; releases any clawed-back watts."""
        gear = self._grant[rank]
        if self._applied[rank] != gear:
            self._applied[rank] = gear
            self._settled = False
        return gear

    def report(self, rank: int, waited: float, elapsed: float) -> None:
        """Feed one blocking span; rebalances once per cluster round."""
        span = elapsed - waited
        if span < 0.0:
            span = 0.0
        slack = waited / elapsed if elapsed > 0.0 else 0.0
        spans, slacks = self._span, self._slack
        if self._seen[rank]:
            w = self.ewma
            rest = self._ewma_rest
            spans[rank] = w * span + rest * spans[rank]
            slacks[rank] = w * slack + rest * slacks[rank]
        else:
            spans[rank] = span
            slacks[rank] = slack
            self._seen[rank] = True
            self._settled = False
        eligible = slacks[rank] > self.claw_threshold
        if eligible != self._elig[rank]:
            self._elig[rank] = eligible
            self._settled = False
        count = self._reports_since + 1
        if count >= self.nodes:
            self._reports_since = 0
            self.rebalances += 1
            if not self._settled:
                self._rebalance()
        else:
            self._reports_since = count

    def _rebalance(self) -> None:
        changed = False
        # Claw-back first: chronically-early ranks lose one step.  Their
        # watts stay charged until they apply the slower gear, so this
        # never frees budget within the same round by itself.
        for rank in range(self.nodes):
            if (
                self._seen[rank]
                and self._slack[rank] > self.claw_threshold
                and self._grant[rank] < self._slowest
            ):
                self._grant[rank] += 1
                self.downgrades += 1
                changed = True
        # Upgrades: longest smoothed compute span first (rank order as
        # the deterministic tiebreak), one step per rank per pass, more
        # passes while budget keeps flowing.  Upgrades are charged here,
        # at grant time, before any rank can run faster.
        order = sorted(
            range(self.nodes), key=lambda r: (-self._span[r], r)
        )
        total = self.total_charge()
        progressed = True
        while progressed:
            progressed = False
            for rank in order:
                if self._grant[rank] <= self._fastest:
                    continue
                if (
                    self._seen[rank]
                    and self._slack[rank] > self.claw_threshold
                ):
                    # Chronically early ranks never receive upgrades —
                    # without this, a claw-back would be undone for free
                    # in the same round (the ledger still charges the
                    # old fast gear until the rank applies the slow one,
                    # so re-granting it costs nothing).
                    continue
                faster = self._grant[rank] - 1
                old = self._charge(rank)
                new = self._watts[min(faster, self._applied[rank])]
                if total - old + new <= self.cap_w:
                    self._grant[rank] = faster
                    total += new - old
                    self.upgrades += 1
                    progressed = True
                    changed = True
        self._settled = not changed


class _BudgetRank(GearPolicy):
    """One rank's view of a shared :class:`BudgetArbiter`."""

    def __init__(self, arbiter: BudgetArbiter, rank: int):
        self.arbiter = arbiter
        self.rank = rank

    def compute_gear(self) -> int:
        return self.arbiter.fetch_gear(self.rank)

    def blocked_gear(self) -> int:
        return self.arbiter.idle_gear

    def observe_wait(self, waited: float, elapsed: float) -> None:
        self.arbiter.report(self.rank, waited, elapsed)

    def describe(self) -> dict:
        return {"policy": "power-budget-rank", "rank": self.rank}

    def clone(self) -> "GearPolicy":
        raise ConfigurationError(
            "budget-managed rank policies share an arbiter and cannot be "
            "cloned; clone the PowerBudgetPolicy template instead"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"_BudgetRank(rank={self.rank}, "
            f"grant={self.arbiter.granted_gears()[self.rank]})"
        )


class PowerBudgetPolicy(GearPolicy):
    """Run under a fixed cluster-wide power cap, watts to the critical path.

    This is a *template*: it holds the knobs and builds the coordinated
    per-rank policies at attach time (:meth:`prepare`).  It cannot make
    gear decisions itself — attach it through
    ``run_workload(..., policy=...)`` (:func:`repro.core.run.run_workload`).

    Args:
        cap_w: cluster-wide cap, watts, priced against the worst-case
            per-gear node envelope.  Must be at least ``nodes`` times
            the slowest gear's envelope or :meth:`prepare` raises.
        ewma: weight of the newest observation in the per-rank compute
            span and slack smoothers.
        claw_threshold: smoothed slack fraction above which a rank is
            deemed chronically early and loses one gear step per round.
        idle_gear: gear while blocked in MPI; ``None`` means the
            cluster's slowest gear, resolved at attach time.
    """

    def __init__(
        self,
        cap_w: float,
        *,
        ewma: float = 0.3,
        claw_threshold: float = 0.5,
        idle_gear: int | None = None,
    ):
        if cap_w <= 0:
            raise ConfigurationError(f"cap_w must be > 0, got {cap_w}")
        if not 0.0 < ewma <= 1.0:
            raise ConfigurationError(f"ewma must be in (0, 1], got {ewma}")
        if not 0.0 < claw_threshold <= 1.0:
            raise ConfigurationError(
                f"claw_threshold must be in (0, 1], got {claw_threshold}"
            )
        if idle_gear is not None and idle_gear < 1:
            raise ConfigurationError("gears must be >= 1")
        self.cap_w = float(cap_w)
        self.ewma = ewma
        self.claw_threshold = claw_threshold
        self.idle_gear = idle_gear

    def _unbound(self) -> ConfigurationError:
        return ConfigurationError(
            "PowerBudgetPolicy is a template; attach it to a run via "
            "run_workload(policy=...) (prepare builds the shared arbiter)"
        )

    def compute_gear(self) -> int:
        raise self._unbound()

    def blocked_gear(self) -> int:
        raise self._unbound()

    def describe(self) -> dict:
        return {
            "policy": "power-budget",
            "cap_w": self.cap_w,
            "ewma": self.ewma,
            "claw_threshold": self.claw_threshold,
            "idle_gear": self.idle_gear,
        }

    def validate_gears(self, gear_count: int) -> None:
        if self.idle_gear is not None:
            _check_gear_range("idle gear", self.idle_gear, gear_count)

    def clone(self) -> "PowerBudgetPolicy":
        return PowerBudgetPolicy(
            self.cap_w,
            ewma=self.ewma,
            claw_threshold=self.claw_threshold,
            idle_gear=self.idle_gear,
        )

    def prepare(self, cluster: "ClusterSpec", nodes: int) -> list[GearPolicy]:
        """Build the shared arbiter and one coordinated policy per rank."""
        self.validate_gears(len(cluster.gears))
        idle = (
            self.idle_gear
            if self.idle_gear is not None
            else cluster.gears.slowest.index
        )
        arbiter = BudgetArbiter(
            cluster,
            nodes,
            cap_w=self.cap_w,
            ewma=self.ewma,
            claw_threshold=self.claw_threshold,
            idle_gear=idle,
        )
        return [_BudgetRank(arbiter, rank) for rank in range(nodes)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PowerBudgetPolicy(cap={self.cap_w:g}W)"
