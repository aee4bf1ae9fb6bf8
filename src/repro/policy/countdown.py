"""COUNTDOWN-style slack-threshold policies.

COUNTDOWN (and its Slack refinement — see PAPERS.md) observed that the
performance-neutral way to harvest MPI slack is *not* to scale compute:
keep application code at full speed and drop to the lowest gear **only
inside MPI blocking spans that are long enough to be worth it**.  Short
waits never downshift — shifting for a microsecond-scale wait buys
nothing and, on hardware with a non-zero DVFS transition stall, costs
real time.

:class:`SlackThresholdPolicy` reproduces that structure against the
hooks of the runtime's gear governor (:class:`repro.mpi.world.World`,
which acts where COUNTDOWN's MPI prologue and epilogue do):

- :meth:`compute_gear` is pinned to ``compute_gear`` (gear 1 by
  default) — the policy never touches application compute;
- :meth:`blocked_gear` returns ``idle_gear`` only when the *predicted*
  wait (an exponentially weighted average of the observed blocking
  spans, the stand-in for COUNTDOWN's per-callsite timers) exceeds
  ``threshold_s``;
- the timer-based hysteresis variant (``hysteresis > 0``) additionally
  demands that many *consecutive* observed waits above the threshold
  before ever downshifting, and a single short wait re-arms the timer —
  so bursts of short waits can never drag the blocked gear down, no
  matter what the running average says.
"""

from __future__ import annotations

from repro.policy.base import GearPolicy, _check_gear_range
from repro.util.errors import ConfigurationError


class SlackThresholdPolicy(GearPolicy):
    """Downshift during MPI blocking only above a learned wait threshold.

    Args:
        threshold_s: predicted waits longer than this select the idle
            gear for the next blocking span; shorter predicted waits
            keep the compute gear (the COUNTDOWN criterion).
        compute_gear: gear for application compute (1 = full speed).
        idle_gear: gear used inside qualifying blocking spans.
        ewma: weight of the newest observation in the wait predictor
            (1.0 = trust only the last wait; smaller = smoother).
        hysteresis: consecutive above-threshold waits required before
            the first downshift (0 disables the timer variant).  Any
            wait at or below the threshold resets the streak *and*
            re-arms the timer, so short waits never downshift.
    """

    def __init__(
        self,
        *,
        threshold_s: float = 1e-3,
        compute_gear: int = 1,
        idle_gear: int = 6,
        ewma: float = 0.5,
        hysteresis: int = 0,
    ):
        if threshold_s < 0:
            raise ConfigurationError(
                f"threshold_s must be >= 0, got {threshold_s}"
            )
        if compute_gear < 1 or idle_gear < 1:
            raise ConfigurationError("gears must be >= 1")
        if not 0.0 < ewma <= 1.0:
            raise ConfigurationError(f"ewma must be in (0, 1], got {ewma}")
        if hysteresis < 0:
            raise ConfigurationError(
                f"hysteresis must be >= 0, got {hysteresis}"
            )
        self.threshold_s = threshold_s
        self._compute_gear = compute_gear
        self._idle_gear = idle_gear
        self.ewma = ewma
        self.hysteresis = hysteresis
        #: Predicted duration of the next blocking span, seconds.
        self.predicted_wait = 0.0
        self._streak = 0
        #: Observed blocking spans (for inspection/telemetry).
        self.observations = 0
        #: Blocking spans entered at the idle gear.
        self.downshifts = 0

    def compute_gear(self) -> int:
        return self._compute_gear

    def _armed(self) -> bool:
        """True when the next blocking span may run at the idle gear."""
        if self.predicted_wait <= self.threshold_s:
            return False
        return self._streak >= self.hysteresis

    def blocked_gear(self) -> int:
        if self._armed():
            self.downshifts += 1
            return self._idle_gear
        return self._compute_gear

    def observe_wait(self, waited: float, elapsed: float) -> None:
        self.observations += 1
        if self.observations == 1:
            self.predicted_wait = waited
        else:
            self.predicted_wait = (
                self.ewma * waited + (1.0 - self.ewma) * self.predicted_wait
            )
        if waited > self.threshold_s:
            self._streak += 1
        else:
            # A short wait re-arms the hysteresis timer: the next
            # downshift needs a full above-threshold streak again.
            self._streak = 0

    def describe(self) -> dict:
        return {
            "policy": "slack-threshold",
            "threshold_s": self.threshold_s,
            "compute_gear": self._compute_gear,
            "idle_gear": self._idle_gear,
            "ewma": self.ewma,
            "hysteresis": self.hysteresis,
        }

    def validate_gears(self, gear_count: int) -> None:
        _check_gear_range("compute gear", self._compute_gear, gear_count)
        _check_gear_range("idle gear", self._idle_gear, gear_count)

    def clone(self) -> "SlackThresholdPolicy":
        return SlackThresholdPolicy(
            threshold_s=self.threshold_s,
            compute_gear=self._compute_gear,
            idle_gear=self._idle_gear,
            ewma=self.ewma,
            hysteresis=self.hysteresis,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SlackThresholdPolicy(threshold={self.threshold_s:g}s, "
            f"hysteresis={self.hysteresis}, "
            f"predicted={self.predicted_wait:g}s)"
        )
