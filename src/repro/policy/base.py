"""Gear policy protocol and the static baseline."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.cluster.cluster import ClusterSpec


class GearPolicy:
    """Decides which gear a rank should run, per phase.

    The policy is consulted by the gear governor of
    :class:`repro.mpi.world.World` (attached by
    ``run_workload(..., policy=...)``):

    - :meth:`compute_gear` — the gear for application compute, asked
      before every compute block and at the end of every blocking span;
    - :meth:`blocked_gear` — the gear while blocked inside MPI, asked as
      each blocking span opens;
    - :meth:`observe_wait` — called after every blocking span with the
      time spent blocked, so adaptive policies can learn.

    Policies are per-rank objects: each rank gets its own instance via
    :meth:`clone`.  A run attaches a policy through :meth:`prepare`,
    which validates the configured gears against the target cluster and
    hands out one independent instance per rank; coordinated policies
    (the power-budget family) override it to weave their rank instances
    together through a shared arbiter.
    """

    def compute_gear(self) -> int:
        """Gear for the next compute phase."""
        raise NotImplementedError

    def blocked_gear(self) -> int:
        """Gear while blocked in MPI."""
        raise NotImplementedError

    def observe_wait(self, waited: float, elapsed: float) -> None:
        """Feed back one blocking span.

        Args:
            waited: seconds spent blocked in this span.
            elapsed: seconds since the previous observation (compute +
                blocked), the denominator for slack fractions.
        """

    def clone(self) -> "GearPolicy":
        """Fresh, independent instance for one rank."""
        raise NotImplementedError

    def describe(self) -> dict[str, Any]:
        """Canonical configuration knobs (scalar JSON values only).

        Two policies with equal descriptions must make identical gear
        decisions on identical observation sequences: the scenario-spec
        fingerprints and executor cache keys of policy-managed runs are
        hashed from exactly this mapping, so every knob that can change
        behaviour must appear here.
        """
        raise NotImplementedError

    def validate_gears(self, gear_count: int) -> None:
        """Check every configured gear against a cluster's gear count.

        Called at attach time (:meth:`prepare`), *before* any simulation
        runs, so a policy configured for a deeper gear table than the
        target cluster fails fast instead of mid-run.

        Raises:
            ConfigurationError: a configured gear exceeds ``gear_count``.
        """

    def prepare(self, cluster: "ClusterSpec", nodes: int) -> list["GearPolicy"]:
        """Attach this policy to a run: one independent instance per rank.

        The default validates the configured gears against the cluster
        and clones; coordinated policies override to build their shared
        per-run state (e.g. a cluster-wide power-budget arbiter).
        """
        self.validate_gears(len(cluster.gears))
        return [self.clone() for _ in range(nodes)]


def _check_gear_range(name: str, gear: int, gear_count: int) -> None:
    """Shared attach-time range check for a single configured gear."""
    if gear > gear_count:
        raise ConfigurationError(
            f"{name} {gear} exceeds the cluster's gear count {gear_count}"
        )


class StaticPolicy(GearPolicy):
    """Run everything at one fixed gear — the paper's measured baseline."""

    def __init__(self, gear: int = 1):
        if gear < 1:
            raise ConfigurationError(f"gear must be >= 1, got {gear}")
        self.gear = gear

    def compute_gear(self) -> int:
        return self.gear

    def blocked_gear(self) -> int:
        return self.gear

    def describe(self) -> dict:
        return {"policy": "static", "gear": self.gear}

    def validate_gears(self, gear_count: int) -> None:
        _check_gear_range("static gear", self.gear, gear_count)

    def clone(self) -> "StaticPolicy":
        return StaticPolicy(self.gear)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StaticPolicy(gear={self.gear})"
