"""Parallel, cached experiment execution.

Every paper artifact decomposes into independent *simulation points*
(one :class:`~repro.exec.tasks.SimTask` per gear sweep, measurement or
calibration), and every point into the simulated runs it is assembled
from (:class:`~repro.exec.tasks.RunTask`).  :func:`~repro.exec.sweep.sweep`
fans the runs out across a process pool and merges the results
deterministically; :class:`~repro.exec.cache.ResultCache` memoises each
run on disk, keyed by a content fingerprint of the full
cluster/workload configuration plus a package code-version token, so
re-running an experiment whose inputs have not changed costs one JSON
read per run, and a point that repeats another's run reuses it.

:class:`~repro.exec.executor.Executor` bundles the two into the object
the experiment harness (``repro.experiments``) passes around.
"""

from repro.exec.batch_sweep import tape_key
from repro.exec.cache import (
    CacheStats,
    ResultCache,
    TapeCache,
    default_cache_dir,
    default_tape_dir,
)
from repro.exec.executor import Executor
from repro.exec.fingerprint import code_version_token, fingerprint, jsonable
from repro.exec.record import RunRecord
from repro.exec.sweep import sweep
from repro.exec.tasks import (
    CalibrationTask,
    GearSweepTask,
    MeasurementTask,
    PolicyMeasurementTask,
    RunTask,
    SimTask,
)

__all__ = [
    "CacheStats",
    "CalibrationTask",
    "Executor",
    "GearSweepTask",
    "MeasurementTask",
    "PolicyMeasurementTask",
    "ResultCache",
    "RunRecord",
    "RunTask",
    "SimTask",
    "TapeCache",
    "code_version_token",
    "default_cache_dir",
    "default_tape_dir",
    "fingerprint",
    "jsonable",
    "sweep",
    "tape_key",
]
