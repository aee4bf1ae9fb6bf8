"""The request vocabulary rank programs yield to the runtime.

A rank program is a generator.  Each ``yield`` hands the runtime one of
the request objects below; the runtime performs it, advances simulated
time as needed, and resumes the generator with the request's result:

============  =============================================  ==============
request       effect                                         resume value
============  =============================================  ==============
Compute       run a compute block at the current gear        None
Elapse        idle for a fixed duration                      None
SetGear       shift the node's energy gear                   None
Now           read the simulated clock                       float seconds
Isend         post an eager asynchronous send                Handle
Irecv         post a receive                                 Handle
Wait          block until a handle completes                 recv payload
Waitall       block until every handle completes, in order   list of payloads
Exchange      receive and send at once, waiting on both      recv payload
TraceMark     bracket a logical (collective) operation       None
IterationMark declare an iteration boundary (fast-forward)   int skipped
============  =============================================  ==============

Workload code normally goes through :class:`repro.mpi.comm.Comm` instead
of yielding these directly.  ``Comm.sendrecv`` and every round of the
exchanging collectives (barrier, recursive-doubling allreduce, the
allgathers, alltoall) are one :class:`Exchange` each; it performs
exactly the ``Irecv``/``Isend``/``Wait``/``TraceMark`` sequence the
runtime would otherwise be handed one request at a time.  Likewise
``Comm.waitall`` is one :class:`Waitall`, run as the ``Wait`` on each
of its handles in turn.
"""

from __future__ import annotations

import itertools
from typing import Any, NamedTuple

from repro.cluster.memory import ComputeBlock
from repro.util.errors import ConfigurationError

#: Wildcard receive source (matches any sender).
ANY_SOURCE = -2
#: Wildcard receive tag (matches any tag).
ANY_TAG = -1

_handle_ids = itertools.count()


class _Blocked:
    """Sentinel a request handler returns when its rank blocked."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<rank blocked>"


#: What a runtime's request handler returns instead of a resume value
#: when the request blocked the rank (its resume is scheduled, or armed
#: on a handle).
BLOCKED = _Blocked()


class Handle:
    """Completion handle for a non-blocking operation.

    Attributes:
        kind: ``'send'`` or ``'recv'``.
        rank: owning rank.
        peer: destination (send) or source (recv; may be ANY_SOURCE).
        tag: message tag (recv may be ANY_TAG).
        nbytes: message size; for receives filled in at match time.
        post_time: when the operation was posted.
        complete_at: simulated completion time, or None while unmatched.
        payload: received payload once complete (recv only).
        uid: process-wide unique id, increasing in creation order.
    """

    __slots__ = (
        "kind",
        "rank",
        "peer",
        "tag",
        "nbytes",
        "post_time",
        "complete_at",
        "payload",
        "uid",
        "_waiter",
    )

    def __init__(
        self,
        kind: str,
        rank: int,
        peer: int,
        tag: int,
        nbytes: int = 0,
        post_time: float = 0.0,
        complete_at: float | None = None,
        payload: Any = None,
    ) -> None:
        self.kind = kind
        self.rank = rank
        self.peer = peer
        self.tag = tag
        self.nbytes = nbytes
        self.post_time = post_time
        self.complete_at = complete_at
        self.payload = payload
        self.uid = next(_handle_ids)
        # The blocked rank's runtime waiting on this handle, if any.
        self._waiter: Any = None

    @property
    def complete(self) -> bool:
        """True once a completion time has been assigned."""
        return self.complete_at is not None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f"done@{self.complete_at:.6f}" if self.complete else "pending"
        return f"<{self.kind} handle #{self.uid} rank={self.rank} peer={self.peer} {state}>"


# The requests are immutable tuple records: one is built for every
# operation a rank performs, and a tuple builds several times faster than
# a frozen dataclass.  Records that validate their fields do it in
# ``__new__``.  Like any tuple, records compare and hash by their field
# values alone.


class Compute(NamedTuple):
    """Execute a compute block at the node's current gear."""

    block: ComputeBlock


class Elapse(NamedTuple("Elapse", [("seconds", float)])):
    """Idle (at idle power) for a fixed duration — gear-independent work."""

    __slots__ = ()

    def __new__(cls, seconds: float) -> "Elapse":
        if seconds < 0:
            raise ConfigurationError(f"Elapse needs seconds >= 0, got {seconds}")
        return tuple.__new__(cls, (seconds,))


class SetGear(NamedTuple):
    """Shift this rank's node to another energy gear (instantaneous)."""

    gear_index: int


class Now(NamedTuple):
    """Read the simulated clock; resumes with the current time."""


class DiskIO(NamedTuple("DiskIO", [("nbytes", int)])):
    """One local disk burst (read or write — symmetric cost model).

    Requires the node to have a disk configured; the CPU idles while
    the transfer runs (blocking I/O, as the NAS BT-IO style checkpoints
    behave).
    """

    __slots__ = ()

    def __new__(cls, nbytes: int) -> "DiskIO":
        if nbytes < 0:
            raise ConfigurationError(f"I/O size must be >= 0, got {nbytes}")
        return tuple.__new__(cls, (nbytes,))


class SetDiskSpeed(NamedTuple):
    """Shift the node's disk to another spindle speed (DRPM-style).

    Real multi-speed disks take a substantial fraction of a second to
    settle; the transition time comes from the node's disk spec.
    """

    speed_index: int


class Isend(
    NamedTuple(
        "Isend", [("dest", int), ("tag", int), ("nbytes", int), ("payload", Any)]
    )
):
    """Post an eager asynchronous send.

    The paper assumes sends are asynchronous (footnote 4); the runtime
    buffers eagerly, so the send handle completes after the sender-side
    software overhead regardless of whether a receive is posted.
    """

    __slots__ = ()

    def __new__(
        cls, dest: int, tag: int, nbytes: int, payload: Any = None
    ) -> "Isend":
        if nbytes < 0:
            raise ConfigurationError(f"nbytes must be >= 0, got {nbytes}")
        if tag < 0:
            raise ConfigurationError(f"send tag must be >= 0, got {tag}")
        return tuple.__new__(cls, (dest, tag, nbytes, payload))


class Irecv(NamedTuple):
    """Post a receive for a matching message (wildcards allowed)."""

    source: int
    tag: int


class Wait(NamedTuple):
    """Block until the handle completes; resumes with its payload."""

    handle: Handle


class Waitall(NamedTuple):
    """Block until every handle completes; resumes with their payloads.

    The runtime waits on the handles in order, exactly as one ``Wait``
    request per handle would: the same trace spans, meter records and
    resumes.  It exists so a blocking ``waitall`` reaches the runtime as
    one operation (a gear governor brackets it as one observation).
    """

    handles: tuple[Handle, ...]


class Exchange(
    NamedTuple(
        "Exchange",
        [
            ("dest", int),
            ("source", int),
            ("tag", int),
            ("nbytes", int),
            ("payload", Any),
            ("sendrecv", bool),
        ],
    )
):
    """Post a receive, inject an eager send, and wait on both.

    The receive is from ``source`` (``ANY_SOURCE`` allowed) and the send
    of ``nbytes`` carries ``payload`` to ``dest``; both use ``tag``.  The
    rank resumes once, with the received payload, and its trace, meter
    and timing are those of the equivalent raw requests: ``Irecv``,
    ``Isend``, then a ``Wait`` on each handle.  Two shapes exist:

    - ``sendrecv=True``, for ``Comm.sendrecv``: its own ``"sendrecv"``
      call, bracketed like a ``TraceMark`` pair, waiting on the receive
      and then the send;
    - ``sendrecv=False`` (the default), for a collective round: nested
      in its collective's bracket, waiting on the send and then the
      receive.

    The order matters to the trace: the send's zero-length wait lands at
    the inject time in a round and at the receive's completion in a
    ``sendrecv``.
    """

    __slots__ = ()

    def __new__(
        cls,
        dest: int,
        source: int,
        tag: int,
        nbytes: int,
        payload: Any = None,
        sendrecv: bool = False,
    ) -> "Exchange":
        if nbytes < 0:
            raise ConfigurationError(f"nbytes must be >= 0, got {nbytes}")
        if tag < 0:
            raise ConfigurationError(f"exchange tag must be >= 0, got {tag}")
        return tuple.__new__(cls, (dest, source, tag, nbytes, payload, sendrecv))


class IterationMark(NamedTuple("IterationMark", [("index", int), ("total", int)])):
    """Declare an iteration boundary for steady-state fast-forward.

    Emitted by iterative programs at the *top* of each main-loop
    iteration (via :meth:`repro.mpi.comm.Comm.iteration_mark`).  The
    runtime resumes the program with the number of iterations it
    macro-stepped past (0 when fast-forward is off or no jump fired);
    the program must advance its loop counter — and any per-iteration
    payload recurrence — by that count.

    Emitting a mark asserts the remaining ``total - index`` iterations
    all share the event structure of the ones already observed; programs
    with a periodic sub-structure (e.g. a checkpoint every C iterations)
    must mark the enclosing uniform macro-unit instead.
    """

    __slots__ = ()

    def __new__(cls, index: int, total: int) -> "IterationMark":
        if total < 0:
            raise ConfigurationError(f"iteration total must be >= 0, got {total}")
        if not 0 <= index < max(total, 1):
            raise ConfigurationError(
                f"iteration index {index} out of range 0..{total - 1}"
            )
        return tuple.__new__(cls, (index, total))


class TraceMark(NamedTuple):
    """Bracket a logical operation in the trace (zero simulated time).

    ``phase`` is ``'begin'`` or ``'end'``; records emitted between the
    brackets are marked nested so trace analysis sees one logical
    collective instead of its constituent point-to-point messages.
    """

    op: str
    phase: str
    nbytes: int = 0
