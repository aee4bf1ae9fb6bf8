"""Deterministic discrete-event simulation engine.

The engine is MPI-agnostic: it provides a simulated clock, an event heap
with FIFO tie-breaking, and generator-coroutine processes.  The MPI
runtime in :mod:`repro.mpi` interprets the requests those processes yield.
"""

from repro.sim.engine import Simulator
from repro.sim.process import RankProcess, ProcessState

__all__ = ["Simulator", "RankProcess", "ProcessState"]

# repro.sim.batch (the record/replay batch backend) is imported lazily by
# its users — it pulls in the cluster/mpi/core layers, which would make
# `import repro.sim` circular if re-exported here.
