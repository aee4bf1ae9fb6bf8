"""Chrome ``trace_event`` export of simulation runs.

Converts a :class:`repro.mpi.world.WorldResult` — per-rank
:class:`~repro.mpi.tracing.TraceRecord` streams, gear-change events, and
wall-outlet power profiles — into the Chrome trace-event JSON format, so
any simulated run opens as a per-rank timeline in ``chrome://tracing``
or https://ui.perfetto.dev:

- every rank becomes a named thread (``tid`` = rank) of one process;
- every trace record with nonzero duration becomes a complete (``X``)
  slice; zero-duration records (posts, already-satisfied waits) become
  thread-scoped instant (``i``) events;
- nested records (messages inside a collective) are emitted as slices
  too — they sit fully inside the collective's bracket, so viewers
  render them as a nested flame;
- gear changes become instant markers *and* a per-rank ``gear`` counter
  track; power profiles become a per-rank ``power`` counter track.

Timestamps are microseconds (the format's unit), straight from the
simulated clock.  Event order and JSON encoding are deterministic, so
two identical runs export byte-identical traces — the property the
golden-trace snapshot test pins.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.mpi.world import WorldResult


@dataclass(frozen=True)
class GearChange:
    """One gear transition on one rank (``old`` is None at run start)."""

    rank: int
    time: float
    gear: int
    old: int | None = None


def _us(seconds: float) -> float:
    """Simulated seconds to trace microseconds."""
    return seconds * 1e6


def _slice_args(record: Any) -> dict[str, Any]:
    args: dict[str, Any] = {}
    if record.nbytes:
        args["nbytes"] = record.nbytes
    if record.peer is not None:
        args["peer"] = record.peer
    if record.nested:
        args["nested"] = True
    return args


def trace_events(
    result: WorldResult,
    *,
    gear_changes: Sequence[GearChange] = (),
    label: str | None = None,
    include_power: bool = True,
    include_nested: bool = True,
) -> list[dict[str, Any]]:
    """Flatten one run into a list of Chrome trace-event dictionaries.

    Args:
        result: the simulated run to export.  It must come from an
            observed run (``World(..., observer=...)``), whose traces
            keep every row; other runs raise ``SimulationError``.
        gear_changes: gear transitions captured by an observer during the
            run (the result object alone does not retain them).
        label: process name shown in the viewer (default: workload-free
            generic name).
        include_power: also emit per-rank power counter tracks.
        include_nested: also emit records marked nested (constituent
            messages inside collectives).
    """
    events: list[dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 0,
            "tid": 0,
            "args": {"name": label or "repro simulated cluster"},
        }
    ]
    for rank_result in result.ranks:
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": rank_result.rank,
                "args": {"name": f"rank {rank_result.rank}"},
            }
        )
    ff = result.fast_forward
    if ff is not None and ff.jumps:
        # Steady-state stretches were macro-stepped, so the timeline
        # between a jump's bracketing marks holds replicated (not
        # simulated) slices; flag that prominently in the viewer.
        events.append(
            {
                "ph": "i",
                "s": "g",
                "name": f"fast-forward: {ff.skipped_iterations} iterations "
                f"macro-stepped in {ff.jumps} jump(s)",
                "cat": "fast_forward",
                "pid": 0,
                "tid": 0,
                "ts": 0.0,
                "args": {
                    "jumps": ff.jumps,
                    "skipped_iterations": ff.skipped_iterations,
                    "deviations": ff.deviations,
                },
            }
        )
    for rank_result in result.ranks:
        for record in rank_result.trace.records:
            if record.nested and not include_nested:
                continue
            base = {
                "name": record.op,
                "cat": record.category,
                "pid": 0,
                "tid": record.rank,
                "ts": _us(record.t_enter),
                "args": _slice_args(record),
            }
            if record.duration > 0:
                events.append({**base, "ph": "X", "dur": _us(record.duration)})
            else:
                events.append({**base, "ph": "i", "s": "t"})
    for change in gear_changes:
        events.append(
            {
                "ph": "i",
                "s": "t",
                "name": f"gear -> {change.gear}",
                "cat": "gear",
                "pid": 0,
                "tid": change.rank,
                "ts": _us(change.time),
                "args": {"gear": change.gear, "from": change.old},
            }
        )
        events.append(
            {
                "ph": "C",
                "name": f"gear rank {change.rank}",
                "pid": 0,
                "tid": change.rank,
                "ts": _us(change.time),
                "args": {"gear": change.gear},
            }
        )
    if include_power:
        for rank_result in result.ranks:
            name = f"power rank {rank_result.rank} (W)"
            last_end = None
            for start, end, watts in rank_result.meter.intervals:
                events.append(
                    {
                        "ph": "C",
                        "name": name,
                        "pid": 0,
                        "tid": rank_result.rank,
                        "ts": _us(start),
                        "args": {"watts": watts},
                    }
                )
                last_end = end
            if last_end is not None:
                events.append(
                    {
                        "ph": "C",
                        "name": name,
                        "pid": 0,
                        "tid": rank_result.rank,
                        "ts": _us(last_end),
                        "args": {"watts": 0.0},
                    }
                )
    return events


def render_chrome_trace(events: Sequence[dict[str, Any]]) -> str:
    """The trace document as canonical JSON text (byte-stable)."""
    document = {"displayTimeUnit": "ms", "traceEvents": list(events)}
    return json.dumps(document, indent=1, sort_keys=True)


def write_chrome_trace(path: str | Path, events: Sequence[dict[str, Any]]) -> Path:
    """Write a trace-event document to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_chrome_trace(events))
    return path
