"""Whole-node power synthesis and the wall-outlet power meter.

The paper measures *system* power at the wall with precision multimeters
and integrates samples taken "several tens of times a second" on a
separate machine.  :class:`NodePowerModel` composes CPU power (gear- and
occupancy-dependent) with a constant platform base and a DRAM term;
:class:`PowerMeter` integrates node power over simulated time, either
exactly (piecewise-constant integral) or through a finite-rate sampler
that mimics the paper's instrument.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

from repro.cluster.cpu import CPUPowerModel, CPUSpec
from repro.cluster.gears import Gear
from repro.util.errors import ConfigurationError, SimulationError


@dataclass(frozen=True)
class PowerSample:
    """One (time, watts) reading, as the paper's sampler would record."""

    time: float
    watts: float


class NodePowerModel:
    """System power of one node: base platform + CPU + DRAM.

    Attributes:
        base_power: watts drawn by everything that does not scale with the
            CPU gear — board, fans, disk, NIC, PSU loss.
        memory_power_max: watts drawn by DRAM at full miss bandwidth.
    """

    def __init__(
        self,
        cpu: CPUSpec,
        *,
        base_power: float,
        memory_power_max: float,
    ):
        if base_power < 0 or memory_power_max < 0:
            raise ConfigurationError("power constants must be non-negative")
        self.cpu_model = CPUPowerModel(cpu)
        self.base_power = float(base_power)
        self.memory_power_max = float(memory_power_max)

    def active_power(
        self, gear: Gear, stall_fraction: float = 0.0, memory_intensity: float = 0.0
    ) -> float:
        """System power while application code runs.

        Args:
            gear: CPU operating point.
            stall_fraction: fraction of cycles stalled on memory.
            memory_intensity: DRAM utilisation in [0, 1].
        """
        if not 0.0 <= memory_intensity <= 1.0:
            raise ConfigurationError(
                f"memory_intensity must be in [0, 1], got {memory_intensity}"
            )
        return (
            self.base_power
            + self.cpu_model.active_power(gear, stall_fraction)
            + self.memory_power_max * memory_intensity
        )

    def idle_power(self, gear: Gear) -> float:
        """System power while the node is idle or blocked in MPI.

        This is the paper's ``I_g``: the same platform base, the CPU in its
        idle-activity state at the gear's frequency/voltage, DRAM quiet.
        """
        return self.base_power + self.cpu_model.idle_power(gear)


class PowerMeter:
    """Integrates one node's piecewise-constant power profile to energy.

    The simulator reports contiguous intervals of constant power via
    :meth:`record`.  Energy is then available two ways:

    - :meth:`energy` — the exact integral (sum of ``P * dt``);
    - :meth:`sampled_energy` — what the paper's finite-rate sampling rig
      would report: power is read at a fixed period and integrated with
      the rectangle rule.  Tests and the metering ablation quantify the
      difference.

    Per-event intervals at the same power level (a rank idling between
    events at one gear) are accumulated lazily into one open segment and
    flushed to the interval store only when the power level changes —
    typically at a gear shift or compute transition — or when the
    profile is queried.  Energy itself accumulates incrementally per
    :meth:`record` call, so the integral is bit-identical to unmerged
    recording; only the segmentation of :attr:`intervals` is coarser
    (equal-power contiguous spans appear as one interval).
    """

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._watts: list[float] = []
        # The open (not yet flushed) segment; None start means empty.
        self._seg_start: float | None = None
        self._seg_end = 0.0
        self._seg_watts = 0.0
        self._energy = 0.0

    def record(self, start: float, end: float, watts: float) -> None:
        """Record that power was ``watts`` over ``[start, end)``.

        Intervals must be appended in non-decreasing time order and must
        not overlap; zero-length intervals are ignored.
        """
        if end < start:
            raise SimulationError(f"interval ends before it starts: [{start}, {end})")
        if watts < 0:
            raise SimulationError(f"negative power recorded: {watts}")
        seg_start = self._seg_start
        last_end = self._seg_end if seg_start is not None else (
            self._ends[-1] if self._ends else None
        )
        if last_end is not None and start < last_end - 1e-12:
            raise SimulationError(
                f"interval [{start}, {end}) overlaps previous end {last_end}"
            )
        if end == start:
            return
        if seg_start is not None and watts == self._seg_watts and start == self._seg_end:
            # Same power level, contiguous: extend the open segment.
            self._seg_end = end
        else:
            if seg_start is not None:
                self._flush_segment()
            self._seg_start = start
            self._seg_end = end
            self._seg_watts = watts
        self._energy += watts * (end - start)

    def replicate_window(
        self, start: float, end: float, period: float, copies: int
    ) -> None:
        """Replay the intervals covering ``[start, end)`` ``copies`` times.

        Copy ``k`` (1-based) is the window shifted by ``k * period``.
        The steady-state fast-forward layer uses this to extrapolate one
        stable iteration's power profile over the iterations it skips:
        replicated intervals keep :meth:`energy`, :meth:`power_at`, and
        :meth:`sampled_energy` consistent with having simulated them.

        Appends are direct (no overlap re-validation): shifted copies of
        a contiguous window stay ordered by construction, and re-deriving
        ``k * period`` offsets would trip the exact-overlap check on
        float-ulp noise long before any real inconsistency.
        """
        if copies < 1 or end <= start:
            return
        if period <= 0:
            raise SimulationError(
                f"replication period must be positive, got {period}"
            )
        self._flush_segment()
        starts = self._starts
        ends = self._ends
        watts = self._watts
        lo = bisect.bisect_left(starts, start)
        hi = bisect.bisect_left(starts, end)
        window = list(zip(starts[lo:hi], ends[lo:hi], watts[lo:hi]))
        if lo > 0 and ends[lo - 1] > start:
            # An equal-power span coalesced across the window start;
            # include only its in-window portion.
            window.insert(0, (start, min(ends[lo - 1], end), watts[lo - 1]))
        if not window:
            return
        added = 0.0
        for k in range(1, copies + 1):
            shift = k * period
            for s, e, w in window:
                starts.append(s + shift)
                ends.append(e + shift)
                watts.append(w)
                added += w * (e - s)
        self._energy += added

    def _flush_segment(self) -> None:
        """Move the open segment into the interval store."""
        if self._seg_start is None:
            return
        self._starts.append(self._seg_start)
        self._ends.append(self._seg_end)
        self._watts.append(self._seg_watts)
        self._seg_start = None

    @property
    def intervals(self) -> Sequence[tuple[float, float, float]]:
        """All recorded ``(start, end, watts)`` intervals."""
        self._flush_segment()
        return list(zip(self._starts, self._ends, self._watts))

    @property
    def duration(self) -> float:
        """Span from first interval start to last interval end."""
        self._flush_segment()
        if not self._starts:
            return 0.0
        return self._ends[-1] - self._starts[0]

    def energy(self) -> float:
        """Exact integral of power over all recorded intervals, joules."""
        return self._energy

    def average_power(self) -> float:
        """Energy divided by covered (non-gap) time, watts."""
        self._flush_segment()
        covered = sum(e - s for s, e in zip(self._starts, self._ends))
        if covered == 0:
            return 0.0
        return self._energy / covered

    def power_at(self, t: float) -> float:
        """Instantaneous power at time ``t`` (0.0 inside gaps/outside)."""
        self._flush_segment()
        idx = bisect.bisect_right(self._starts, t) - 1
        if idx < 0:
            return 0.0
        if t < self._ends[idx]:
            return self._watts[idx]
        return 0.0

    def samples(self, rate_hz: float) -> list[PowerSample]:
        """Read the profile at ``rate_hz``, like the paper's multimeter rig."""
        if rate_hz <= 0:
            raise ConfigurationError(f"sample rate must be positive, got {rate_hz}")
        self._flush_segment()
        if not self._starts:
            return []
        period = 1.0 / rate_hz
        t = self._starts[0]
        end = self._ends[-1]
        out: list[PowerSample] = []
        while t < end:
            out.append(PowerSample(t, self.power_at(t)))
            t += period
        return out

    def sampled_energy(self, rate_hz: float) -> float:
        """Rectangle-rule integral of finite-rate samples, joules."""
        samples = self.samples(rate_hz)
        if not samples:
            return 0.0
        period = 1.0 / rate_hz
        total = sum(s.watts for s in samples) * period
        # Trim the final rectangle to the profile end so the estimate
        # covers exactly the recorded span.
        overshoot = (samples[-1].time + period) - self._ends[-1]
        if overshoot > 0:
            total -= samples[-1].watts * overshoot
        return total
