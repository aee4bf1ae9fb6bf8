"""Simulated MPI: a message-passing runtime over the discrete-event engine.

The public surface mirrors mpi4py's lower-case object API (``send``,
``recv``, ``isend``, ``irecv``, ``bcast``, ``reduce``, ``allreduce``,
``barrier``, ...) except that every operation is a generator the rank
program drives with ``yield from`` — the idiom that lets a plain Python
function act as one MPI rank inside the simulator.

Collectives are built from point-to-point messages (binomial trees,
recursive doubling), so their cost scales with node count exactly the way
the paper's communication classifier expects.
"""

from repro.mpi.requests import (
    ANY_SOURCE,
    ANY_TAG,
    Compute,
    Elapse,
    Exchange,
    Handle,
    Irecv,
    Isend,
    Now,
    SetGear,
    TraceMark,
    Wait,
    Waitall,
)
from repro.mpi.fastforward import FastForwardConfig, FastForwardStats
from repro.mpi.tracing import TraceRecord, RankTrace
from repro.mpi.comm import Comm
from repro.mpi.world import World, WorldResult, RankResult

__all__ = [
    "FastForwardConfig",
    "FastForwardStats",
    "ANY_SOURCE",
    "ANY_TAG",
    "Compute",
    "Elapse",
    "Exchange",
    "Handle",
    "Irecv",
    "Isend",
    "Now",
    "SetGear",
    "TraceMark",
    "Wait",
    "Waitall",
    "TraceRecord",
    "RankTrace",
    "Comm",
    "World",
    "WorldResult",
    "RankResult",
]
