"""repro — reproduction of Freeh et al., "Exploring the Energy-Time
Tradeoff in MPI Programs on a Power-Scalable Cluster" (IPPS 2005).

The package simulates a power-scalable cluster (frequency/voltage-scalable
CPUs, wall-outlet energy metering, 100 Mb/s fabric), runs NAS-like MPI
workloads on it, and implements the paper's measurement methodology and
five-step prediction model.

Quickstart::

    from repro import athlon_cluster, gear_sweep
    from repro.workloads import CG

    curve = gear_sweep(athlon_cluster(), CG(scale=0.2), nodes=1)
    for gear, delay, energy in curve.relative():
        print(f"gear {gear}: {delay:+.1%} time, {energy:.1%} energy")
"""

from repro.cluster import (
    ATHLON64_GEARS,
    ClusterSpec,
    Gear,
    GearTable,
    NodeSpec,
    athlon_cluster,
    reference_cluster,
)
from repro.core import (
    Advisor,
    CurveFamily,
    EnergyTimeCurve,
    EnergyTimeModel,
    SpeedupCase,
    classify_family,
    classify_pair,
    gear_sweep,
    node_sweep,
    run_workload,
)
from repro.core.model import gather_inputs
from repro.exec import Executor, ResultCache
from repro.mpi import Comm, World
from repro.policy import IdleLowPolicy, SlackPolicy, StaticPolicy
from repro.workloads import (
    BT,
    CG,
    EP,
    FT,
    IS,
    LU,
    MG,
    SP,
    Jacobi,
    SyntheticMemoryPressure,
    Workload,
    nas_suite,
)

__version__ = "1.0.0"

__all__ = [
    "ATHLON64_GEARS",
    "ClusterSpec",
    "Gear",
    "GearTable",
    "NodeSpec",
    "athlon_cluster",
    "reference_cluster",
    "Advisor",
    "CurveFamily",
    "EnergyTimeCurve",
    "EnergyTimeModel",
    "SpeedupCase",
    "classify_family",
    "classify_pair",
    "gear_sweep",
    "node_sweep",
    "run_workload",
    "gather_inputs",
    "Executor",
    "ResultCache",
    "Comm",
    "World",
    "IdleLowPolicy",
    "SlackPolicy",
    "StaticPolicy",
    "BT",
    "CG",
    "EP",
    "FT",
    "IS",
    "LU",
    "MG",
    "SP",
    "Jacobi",
    "SyntheticMemoryPressure",
    "Workload",
    "nas_suite",
    "__version__",
]
