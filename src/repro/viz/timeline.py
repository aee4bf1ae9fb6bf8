"""Per-rank execution timelines from simulation traces.

Turns a :class:`repro.mpi.world.WorldResult` into Gantt-style strips —
one row per rank, characters marking compute (``#``), MPI/blocked
(``-``), and post-finish idling (``.``) — the visual the paper's
active/idle decomposition describes.

The strips are drawn from the trace's stored rows, which a
:class:`~repro.mpi.world.World` keeps only when an observer is
attached: run with ``observer=RunObserver()`` (from :mod:`repro.obs`).
On a run without one, both functions raise
:class:`~repro.util.errors.SimulationError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mpi.tracing import CATEGORY_COMPUTE
from repro.mpi.world import WorldResult
from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class Segment:
    """One homogeneous interval of a rank's life."""

    start: float
    end: float
    kind: str  # 'compute' | 'mpi' | 'done'

    @property
    def duration(self) -> float:
        """Seconds covered."""
        return self.end - self.start


def timeline_segments(result: WorldResult, rank: int) -> list[Segment]:
    """Reconstruct one rank's compute/mpi/done segments from its trace.

    Compute intervals come from the trace's compute records; everything
    between them until the rank's finish is MPI/blocked; the remainder
    until the run's end is post-finish idling.  ``result`` must come
    from an observed run, whose traces keep every row.
    """
    if not 0 <= rank < len(result.ranks):
        raise ConfigurationError(f"rank {rank} out of range")
    rank_result = result.ranks[rank]
    segments: list[Segment] = []
    cursor = 0.0
    for record in rank_result.trace.records:
        if record.category != CATEGORY_COMPUTE or record.duration == 0:
            continue
        if record.t_enter > cursor + 1e-12:
            segments.append(Segment(cursor, record.t_enter, "mpi"))
        segments.append(Segment(record.t_enter, record.t_exit, "compute"))
        cursor = record.t_exit
    if rank_result.finish_time > cursor + 1e-12:
        segments.append(Segment(cursor, rank_result.finish_time, "mpi"))
    if result.end_time > rank_result.finish_time + 1e-12:
        segments.append(Segment(rank_result.finish_time, result.end_time, "done"))
    return segments


_GLYPHS = {"compute": "#", "mpi": "-", "done": "."}


def render_timeline(result: WorldResult, *, width: int = 72) -> str:
    """Render all ranks' timelines as aligned character strips.

    ``result`` must come from an observed run (see
    :func:`timeline_segments`); the ``% active`` figure is the trace's
    streamed ``active_time``.
    """
    if width < 10:
        raise ConfigurationError(f"width must be >= 10, got {width}")
    if result.end_time <= 0:
        raise ConfigurationError("cannot render an empty run")
    lines = [
        f"timeline: 0 .. {result.end_time:.4g} s   (#=compute, -=MPI/blocked, .=finished)"
    ]
    scale = width / result.end_time
    for rank_result in result.ranks:
        cells = ["-"] * width
        for segment in timeline_segments(result, rank_result.rank):
            lo = int(segment.start * scale)
            hi = max(int(segment.end * scale), lo + 1)
            for i in range(lo, min(hi, width)):
                cells[i] = _GLYPHS[segment.kind]
        busy = rank_result.trace.active_time / result.end_time
        lines.append(
            f"rank {rank_result.rank:>2} |{''.join(cells)}| {busy:5.1%} active"
        )
    return "\n".join(lines)
