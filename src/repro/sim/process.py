"""Generator-coroutine rank processes.

A rank's program is a Python generator that yields *requests* (compute,
send, receive, ...) to its runtime and receives resume values back.  The
process wrapper tracks lifecycle state and normalises termination.
"""

from __future__ import annotations

import enum
from typing import Any, Generator

from repro.util.errors import SimulationError

#: The request/resume protocol type of a rank program.
RankProgram = Generator[Any, Any, Any]


class ProcessState(enum.Enum):
    """Lifecycle of a rank process."""

    READY = "ready"
    BLOCKED = "blocked"
    DONE = "done"
    FAILED = "failed"


class _Stop:
    """Sentinel returned by :meth:`RankProcess.resume` on termination."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<process finished>"


STOP = _Stop()


class _Blocked:
    """Sentinel a request handler returns when its process blocked."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<process blocked>"


#: What a runtime's request handler returns instead of a resume value
#: when the request blocked the process (its resume is scheduled, or
#: armed on a handle).
BLOCKED = _Blocked()


class RankProcess:
    """Wraps one rank's generator with state tracking.

    Attributes:
        rank: the MPI rank this process plays.
        state: current :class:`ProcessState`.
        result: the generator's return value once DONE.
        blocked_on: what the process is blocked on, for deadlock
            diagnostics: a description, or the blocking request itself,
            which is only formatted if the run deadlocks.
    """

    def __init__(self, rank: int, program: RankProgram):
        if not hasattr(program, "send"):
            raise SimulationError(
                f"rank {rank} program must be a generator, got {type(program).__name__}"
            )
        self.rank = rank
        self._gen = program
        self.state = ProcessState.READY
        self.result: Any = None
        self.blocked_on: object = None

    def resume(self, value: Any = None) -> Any:
        """Advance the generator; return its next request or ``STOP``.

        The first resume must pass ``None`` (generator protocol).  On
        generator exceptions the process is marked FAILED and the
        exception propagates.
        """
        if self.state is ProcessState.DONE:
            raise SimulationError(f"rank {self.rank} resumed after completion")
        self.state = ProcessState.READY
        self.blocked_on = None
        try:
            return self._gen.send(value)
        except StopIteration as stop:
            self.state = ProcessState.DONE
            self.result = stop.value
            return STOP
        except Exception:
            self.state = ProcessState.FAILED
            raise

    def block(self, blocked_on: object) -> None:
        """Mark the process blocked (for diagnostics only).

        ``blocked_on`` is a description, or the request the process
        blocked on; a request is kept as is, so building its deadlock
        text costs nothing unless the run deadlocks.
        """
        self.state = ProcessState.BLOCKED
        self.blocked_on = blocked_on

    @property
    def done(self) -> bool:
        """True once the generator has returned."""
        return self.state is ProcessState.DONE
