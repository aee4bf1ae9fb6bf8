"""The executor the experiment harness passes around.

An :class:`Executor` bundles a worker count, an optional result cache,
and an optional observability policy into one object, so every
experiment function takes a single ``executor=`` keyword instead of
separate knobs, and keeps one :class:`~repro.exec.record.RunRecord`
across every sweep it runs.  The default executor (``Executor()``) is
serial, uncached, and unobserved — exactly the behaviour of the
pre-executor harness — so library callers opt in explicitly and test
behaviour never changes behind anyone's back.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

from repro.exec.cache import CacheStats, ResultCache, TapeCache
from repro.exec.record import RunRecord
from repro.exec.sweep import check_backend, sweep
from repro.exec.tasks import SimTask

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.mpi.fastforward import FastForwardConfig
    from repro.obs.observer import RunObserver


class Executor:
    """Runs simulation points with a fixed parallelism/cache policy.

    Args:
        jobs: worker processes per sweep (1 = inline, serial).
        cache: ``None`` for no caching, a :class:`ResultCache` to reuse
            one, or ``True`` to build the default on-disk cache
            (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``).
        observer: optional :class:`repro.obs.observer.RunObserver` that
            rides along every simulated run.  Observed sweeps execute
            inline and uncached (a replayed run produces no events),
            but results are unchanged — simulation is deterministic.
        chunk_size: units dispatched per worker call in parallel
            sweeps — a unit is one run under the event backend, one
            batch group or passthrough run under the batch backend.
            ``None`` (the default) auto-sizes to about four chunks per
            worker.  Chunking amortizes pickling/IPC and never changes
            results.
        fast_forward: optional
            :class:`repro.mpi.fastforward.FastForwardConfig` stamped
            onto every task this executor runs (tasks that already carry
            their own config keep it).  Fast-forwarded runs cache
            under distinct keys, so the same cache can hold both exact
            and macro-stepped results.
        backend: ``"event"`` (the default) simulates every run
            independently; ``"batch"`` records gear-groupable runs
            once and replays their whole gear grid in one vectorized
            pass (see :mod:`repro.exec.batch_sweep`).  Batch results
            agree with event results to ~1e-9 and cache under distinct
            keys; the :attr:`record` keeps a row per batch group, with
            its fallback reason, tape-cache hit and stage seconds.  With
            a result cache, batch recordings persist in a
            :class:`repro.exec.cache.TapeCache` under the cache's root
            (``<cache root>/tapes``), so later sweeps and invocations
            skip re-recording.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache: ResultCache | bool | None = None,
        observer: "RunObserver | None" = None,
        chunk_size: int | None = None,
        fast_forward: "FastForwardConfig | None" = None,
        backend: str = "event",
    ):
        check_backend(backend)
        if cache is True:
            cache = ResultCache()
        elif cache is False:
            cache = None
        self.jobs = jobs
        self.cache: ResultCache | None = cache
        self.observer = observer
        self.chunk_size = chunk_size
        self.fast_forward = fast_forward
        self.backend = backend
        #: Persistent batch-recording store; None when caching is off or
        #: the backend is "event".
        self.tape_cache: TapeCache | None = None
        if backend == "batch" and cache is not None:
            self.tape_cache = TapeCache(Path(cache.root) / "tapes")
        #: Every run and batch group this executor's sweeps returned.
        self.record = RunRecord()

    def _with_fast_forward(self, task: SimTask) -> SimTask:
        """Stamp this executor's fast-forward config onto a task.

        Tasks that already carry a config, or kinds without a
        ``fast_forward`` field, pass through unchanged.
        """
        if not dataclasses.is_dataclass(task):
            return task
        names = {f.name for f in dataclasses.fields(task)}
        if "fast_forward" not in names or getattr(task, "fast_forward") is not None:
            return task
        return dataclasses.replace(task, fast_forward=self.fast_forward)

    def run(self, tasks: Iterable[SimTask]) -> list[Any]:
        """Sweep the points under this executor's policy."""
        ordered = list(tasks)
        if self.fast_forward is not None:
            ordered = [self._with_fast_forward(task) for task in ordered]
        return sweep(
            ordered,
            jobs=self.jobs,
            cache=self.cache,
            observer=self.observer,
            chunk_size=self.chunk_size,
            backend=self.backend,
            tape_cache=self.tape_cache,
            record=self.record,
        )

    @property
    def batch_report(self) -> RunRecord | None:
        """The :attr:`record` under the batch backend, else None.

        A read-only alias kept for perfbench's tracer, which reads
        ``fallback_points`` through it.
        """
        return self.record if self.backend == "batch" else None

    @property
    def stats(self) -> CacheStats:
        """Cache counters (all zeros when caching is off)."""
        if self.cache is None:
            return CacheStats()
        return self.cache.stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = self.cache.root if self.cache is not None else "off"
        extras = ""
        if self.observer is not None:
            extras += " observed"
        return f"<Executor jobs={self.jobs} cache={where}{extras}>"
