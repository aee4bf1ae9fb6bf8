"""Deterministic discrete-event simulation engine.

The engine is MPI-agnostic: it provides a simulated clock and an event
heap with FIFO tie-breaking.  The MPI runtime in :mod:`repro.mpi` drives
each rank's generator on it and interprets the requests it yields.
"""

from repro.sim.engine import Simulator

__all__ = ["Simulator"]

# repro.sim.batch (the record/replay batch backend) is imported lazily by
# its users — it pulls in the cluster/mpi/core layers, which would make
# `import repro.sim` circular if re-exported here.
