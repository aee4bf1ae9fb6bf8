"""Per-layer tracing for the benchmark's traced runs.

:class:`Tracer` patches wrappers around the public functions that form
each layer's boundary, records one span per call (name, start, end,
parent) in memory, and derives the per-layer metrics from those spans
and from counts the program's own return values already carry.  Nothing
here runs in a timed run: the worker installs a tracer only when it is
asked for the per-layer numbers, and removes every wrapper afterwards.

Only boundaries that fire at most a few thousand times per run are
timed.  The hot paths underneath (``PowerMeter.record``,
``RankTrace.add_span``, per-request dispatch) are counted from the
objects ``World.run`` returns; ``Comm`` methods get wrappers that only
count.

A function boundary may be bound under several names: ``repro.exec``
re-exports ``fingerprint``, and ``exec.sweep``, ``exec.batch_sweep`` and
``scenarios.spec`` each bind it by name.  Patching one module attribute
would leave the others calling the original, so :meth:`Tracer.install`
imports the whole package first and replaces every binding of the
function object in every ``repro`` module.
"""

from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Attribute that marks a wrapper installed by a tracer.
MARK = "_perfbench_original"

#: The span that covers a workload's measured window.
WINDOW = "bench.workload"

#: Public ``Comm`` methods whose calls are counted (``mpi.comm.<name>``).
COMM_METHODS = (
    "compute",
    "compute_block",
    "elapse",
    "set_gear",
    "now",
    "iteration_mark",
    "disk_write",
    "disk_read",
    "set_disk_speed",
    "isend",
    "irecv",
    "wait",
    "waitall",
    "send",
    "recv",
    "sendrecv",
    "barrier",
    "bcast",
    "reduce",
    "allreduce",
    "gather",
    "scatter",
    "allgather",
    "alltoall",
)

#: Task kinds with a ``exec.task.<Kind>.calls`` metric.
TASK_KINDS = (
    "GearSweepTask",
    "MeasurementTask",
    "PolicyMeasurementTask",
    "CalibrationTask",
)

#: Cache layers and the counts each reports.
CACHE_LAYERS = ("exec.cache", "exec.tape_cache")
CACHE_COUNTS = ("hits", "misses", "stores", "evicted")


def _metric_table() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    table = [
        ("sim.engine.run.self_s", "s", "lower"),
        ("sim.engine.events", "count", "lower"),
        ("sim.engine.us_per_event", "us", "lower"),
        ("mpi.world.runs", "count", "lower"),
        ("mpi.world.init.self_s", "s", "lower"),
        ("mpi.world.run.self_s", "s", "lower"),
    ]
    table += [(f"mpi.comm.{m}", "count", "lower") for m in COMM_METHODS]
    table += [
        ("mpi.comm.requests", "count", "lower"),
        ("sim.engine.us_per_request", "us", "lower"),
        ("cluster.power.intervals", "count", "lower"),
        ("mpi.tracing.rows", "count", "lower"),
        ("mpi.fastforward.jumps", "count", "higher"),
        ("mpi.fastforward.skipped_iterations", "count", "higher"),
        ("mpi.fastforward.deviations", "count", "lower"),
        ("mpi.fastforward.skip_share", "ratio", "higher"),
        ("sim.batch.record_tape.calls", "count", "lower"),
        ("sim.batch.record_tape.self_s", "s", "lower"),
        ("sim.batch.replay_grid.calls", "count", "lower"),
        ("sim.batch.replay_grid.self_s", "s", "lower"),
        ("sim.batch.vector_columns", "count", "higher"),
        ("sim.batch.scalar_columns", "count", "lower"),
        ("sim.batch.vector_coverage", "ratio", "higher"),
        ("sim.batch.fallback_points", "count", "lower"),
        ("sim.batch.tape_to_payload.self_s", "s", "lower"),
        ("sim.batch.tape_from_payload.self_s", "s", "lower"),
        ("sim.batch.max_rel_err", "ratio", "lower"),
        ("exec.points", "count", "lower"),
        ("exec.executor.run.calls", "count", "lower"),
        ("exec.executor.run.self_s", "s", "lower"),
    ]
    table += [(f"exec.task.{k}.calls", "count", "lower") for k in TASK_KINDS]
    table += [
        ("exec.fingerprint.calls", "count", "lower"),
        ("exec.fingerprint.self_s", "s", "lower"),
        ("exec.us_per_point", "us", "lower"),
    ]
    for layer in CACHE_LAYERS:
        table += [
            (f"{layer}.{op}.self_s", "s", "lower")
            for op in ("load", "store", "prune")
        ]
        table += [
            (f"{layer}.hits", "count", "higher"),
            (f"{layer}.misses", "count", "lower"),
            (f"{layer}.stores", "count", "lower"),
            (f"{layer}.evicted", "count", "lower"),
            (f"{layer}.hit_rate", "ratio", "higher"),
            (f"{layer}.bytes_written", "bytes", "lower"),
        ]
    table += [
        ("scenarios.packs.validation_pack.self_s", "s", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return table


#: (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = _metric_table()


# ----------------------------------------------------------------------
# Span arithmetic


def ratio(numerator: float, base: float) -> float:
    """``numerator / base``, or 0.0 when the base is zero."""
    return numerator / base if base else 0.0


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    ``spans`` holds ``[name, start, end, parent]`` rows where ``parent``
    is the index of the enclosing span (-1 for a root).  Children of one
    span never overlap: every call ran on the one thread.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [
        end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)
    ]


def by_name(spans: list[list]) -> dict[str, tuple[int, float, float]]:
    """Per span name: (calls, summed self time, summed duration)."""
    out: dict[str, tuple[int, float, float]] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        calls, self_s, total_s = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, self_s + own, total_s + end - start)
    return out


def layer_metrics(
    spans: list[list],
    counts: Counter,
    *,
    fallback_points: int = 0,
    max_rel_err: float = 0.0,
) -> dict[str, float]:
    """The per-layer metrics of one traced run, except ``trace.overhead_s``.

    ``trace.overhead_s`` compares a traced and an untraced run, so the
    caller that ran both fills it in.
    """
    spans_by_name = by_name(spans)

    def calls(name: str) -> int:
        return spans_by_name.get(name, (0, 0.0, 0.0))[0]

    def self_s(name: str) -> float:
        return spans_by_name.get(name, (0, 0.0, 0.0))[1]

    engine_s = self_s("sim.engine.run")
    events = counts["sim.engine.events"]
    requests = sum(counts[f"mpi.comm.{m}"] for m in COMM_METHODS)
    skipped = counts["mpi.fastforward.skipped_iterations"]
    vector = counts["sim.batch.vector_columns"]
    scalar = counts["sim.batch.scalar_columns"]
    points = counts["exec.points"]
    _, window_self, window_s = spans_by_name.get(WINDOW, (0, 0.0, 0.0))

    m: dict[str, float] = {
        "sim.engine.run.self_s": engine_s,
        "sim.engine.events": events,
        "sim.engine.us_per_event": ratio(1e6 * engine_s, events),
        "mpi.world.runs": counts["mpi.world.runs"],
        "mpi.world.init.self_s": self_s("mpi.world.init"),
        "mpi.world.run.self_s": self_s("mpi.world.run"),
    }
    for method in COMM_METHODS:
        m[f"mpi.comm.{method}"] = counts[f"mpi.comm.{method}"]
    m.update(
        {
            "mpi.comm.requests": requests,
            "sim.engine.us_per_request": ratio(1e6 * engine_s, requests),
            "cluster.power.intervals": counts["cluster.power.intervals"],
            "mpi.tracing.rows": counts["mpi.tracing.rows"],
            "mpi.fastforward.jumps": counts["mpi.fastforward.jumps"],
            "mpi.fastforward.skipped_iterations": skipped,
            "mpi.fastforward.deviations": counts["mpi.fastforward.deviations"],
            # Rank-iterations extrapolated, over those extrapolated plus
            # those simulated up to an iteration mark.
            "mpi.fastforward.skip_share": ratio(
                skipped, skipped + counts["mpi.fastforward.marks"]
            ),
            "sim.batch.record_tape.calls": calls("sim.batch.record_tape"),
            "sim.batch.record_tape.self_s": self_s("sim.batch.record_tape"),
            "sim.batch.replay_grid.calls": calls("sim.batch.replay_grid"),
            "sim.batch.replay_grid.self_s": self_s("sim.batch.replay_grid"),
            "sim.batch.vector_columns": vector,
            "sim.batch.scalar_columns": scalar,
            "sim.batch.vector_coverage": ratio(vector, vector + scalar),
            "sim.batch.fallback_points": fallback_points,
            "sim.batch.tape_to_payload.self_s": self_s(
                "sim.batch.tape_to_payload"
            ),
            "sim.batch.tape_from_payload.self_s": self_s(
                "sim.batch.tape_from_payload"
            ),
            "sim.batch.max_rel_err": max_rel_err,
            "exec.points": points,
            "exec.executor.run.calls": calls("exec.executor.run"),
            "exec.executor.run.self_s": self_s("exec.executor.run"),
        }
    )
    for kind in TASK_KINDS:
        m[f"exec.task.{kind}.calls"] = calls(f"exec.task.{kind}")
    m.update(
        {
            "exec.fingerprint.calls": calls("exec.fingerprint"),
            "exec.fingerprint.self_s": self_s("exec.fingerprint"),
            "exec.us_per_point": ratio(
                1e6 * self_s("exec.executor.run"), points
            ),
        }
    )
    for layer in CACHE_LAYERS:
        for op in ("load", "store", "prune"):
            m[f"{layer}.{op}.self_s"] = self_s(f"{layer}.{op}")
        hits, misses = counts[f"{layer}.hits"], counts[f"{layer}.misses"]
        for count in CACHE_COUNTS:
            m[f"{layer}.{count}"] = counts[f"{layer}.{count}"]
        m[f"{layer}.hit_rate"] = ratio(hits, hits + misses)
        m[f"{layer}.bytes_written"] = counts[f"{layer}.bytes_written"]
    m["scenarios.packs.validation_pack.self_s"] = self_s(
        "scenarios.packs.validation_pack"
    )
    # The share of the measured window spent inside some layer boundary:
    # the summed self times of every span in it, over its duration.
    m["trace.coverage"] = ratio(window_s - window_self, window_s)
    return m


# ----------------------------------------------------------------------
# Wrappers


def _repro_modules() -> list[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _import_package(name: str) -> None:
    """Import every module of a package, so every binding exists."""
    package = importlib.import_module(name)
    for info in pkgutil.walk_packages(package.__path__, f"{name}."):
        importlib.import_module(info.name)


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _resolve(module_name: str, name: str) -> Any:
    """``module_name.name``, or None when the program no longer has it."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, name, None)


def installed_wrappers() -> list[str]:
    """Every tracer wrapper still bound in a ``repro`` module or class."""
    found = []
    for module in _repro_modules():
        for name, value in list(vars(module).items()):
            if hasattr(value, MARK):
                found.append(f"{module.__name__}.{name}")
            if inspect.isclass(value) and value.__module__ == module.__name__:
                found += [
                    f"{module.__name__}.{name}.{attr}"
                    for attr, member in vars(value).items()
                    if hasattr(member, MARK)
                ]
    return found


class Tracer:
    """Spans and counts of one traced run; see the module docstring."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent]`` rows in call order.
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._batch_reports: dict[int, Any] = {}
        #: Boundaries :meth:`install` did not find; their metrics read 0.
        self.missing: list[str] = []

    # -- spans ---------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the body, nested in the open one."""
        row = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(row)
        row[1] = time.perf_counter()
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._open.pop()

    def metrics(self, *, max_rel_err: float = 0.0) -> dict[str, float]:
        """:func:`layer_metrics` over what this tracer recorded."""
        fallback = sum(
            getattr(report, "fallback_points", 0)
            for report in self._batch_reports.values()
        )
        return layer_metrics(
            self.spans,
            self.counts,
            fallback_points=fallback,
            max_rel_err=max_rel_err,
        )

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary; see the module docstring.

        A boundary the program no longer has is skipped and named in
        :attr:`missing`, so a refactored program still runs traced.
        """
        _import_package("repro")
        self._method("repro.exec.executor", "Executor", "run", self._executor_run)
        for kind in self._family("repro.exec.tasks", "SimTask")[1:]:
            if "run" in vars(kind):
                self._patch(kind, "run", self._timed(f"exec.task.{kind.__name__}"))
        self._method("repro.mpi.world", "World", "__init__", self._timed("mpi.world.init"))
        self._method("repro.mpi.world", "World", "run", self._world_run)
        self._method("repro.sim.engine", "Simulator", "run", self._engine_run)
        for cache_class in self._family("repro.exec.cache", "ResultCache"):
            for op in ("load", "store", "prune"):
                if op in vars(cache_class):
                    self._patch(cache_class, op, self._cache_op(op))
        for comm_class in self._family("repro.mpi.comm", "Comm"):
            for name in COMM_METHODS:
                if inspect.isfunction(vars(comm_class).get(name)):
                    self._patch(comm_class, name, self._counting(comm_class, name))
        self._function("repro.exec.fingerprint", "fingerprint", self._timed("exec.fingerprint"))
        for name in ("record_tape", "tape_to_payload", "tape_from_payload"):
            self._function("repro.sim.batch", name, self._timed(f"sim.batch.{name}"))
        self._function("repro.sim.batch", "replay_grid", self._replay_grid)
        self._function(
            "repro.scenarios.packs",
            "validation_pack",
            self._timed("scenarios.packs.validation_pack"),
        )

    def uninstall(self) -> None:
        """Restore every original binding, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _family(self, module_name: str, name: str) -> list[type]:
        """A class and all its subclasses, or [] when it is gone."""
        base = _resolve(module_name, name)
        if not inspect.isclass(base):
            self.missing.append(f"{module_name}.{name}")
            return []
        return [base, *_subclasses(base)]

    def _method(self, module_name: str, class_name: str, name: str, make: Callable) -> None:
        cls = _resolve(module_name, class_name)
        if not inspect.isclass(cls) or name not in vars(cls):
            self.missing.append(f"{module_name}.{class_name}.{name}")
            return
        self._patch(cls, name, make)

    def _patch(self, cls: type, name: str, make: Callable) -> None:
        original = vars(cls)[name]
        wrapper = make(original)
        setattr(wrapper, MARK, original)
        setattr(cls, name, wrapper)
        self._patches.append((cls, name, original))

    def _function(self, module_name: str, name: str, make: Callable) -> None:
        original = _resolve(module_name, name)
        if not callable(original):
            self.missing.append(f"{module_name}.{name}")
            return
        wrapper = make(original)
        setattr(wrapper, MARK, original)
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    # -- wrapper factories ---------------------------------------------

    def _timed(self, name: str) -> Callable:
        def make(fn: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with self.span(name):
                    return fn(*args, **kwargs)

            return wrapper

        return make

    def _executor_run(self, fn: Callable) -> Callable:
        def run(executor: Any, tasks: Any, *args: Any, **kwargs: Any) -> Any:
            tasks = list(tasks)
            self.counts["exec.points"] += len(tasks)
            report = getattr(executor, "batch_report", None)
            if report is not None:
                self._batch_reports[id(report)] = report
            with self.span("exec.executor.run"):
                return fn(executor, tasks, *args, **kwargs)

        return run

    def _world_run(self, fn: Callable) -> Callable:
        counts = self.counts

        def run(world: Any, *args: Any, **kwargs: Any) -> Any:
            with self.span("mpi.world.run"):
                result = fn(world, *args, **kwargs)
            counts["mpi.world.runs"] += 1
            for rank in getattr(result, "ranks", ()):
                meter = getattr(rank, "meter", None)
                counts["cluster.power.intervals"] += len(getattr(meter, "intervals", ()))
                counts["mpi.tracing.rows"] += len(getattr(rank, "trace", ()))
            ff = getattr(result, "fast_forward", None)
            for name in ("jumps", "skipped_iterations", "deviations", "marks"):
                counts[f"mpi.fastforward.{name}"] += getattr(ff, name, 0)
            return result

        return run

    def _engine_run(self, fn: Callable) -> Callable:
        def run(engine: Any, *args: Any, **kwargs: Any) -> Any:
            before = getattr(engine, "processed", 0)
            try:
                with self.span("sim.engine.run"):
                    return fn(engine, *args, **kwargs)
            finally:
                self.counts["sim.engine.events"] += (
                    getattr(engine, "processed", 0) - before
                )

        return run

    def _cache_op(self, op: str) -> Callable:
        tape_cache = _resolve("repro.exec.cache", "TapeCache") or ()
        counts = self.counts

        def make(fn: Callable) -> Callable:
            def wrapper(cache: Any, *args: Any, **kwargs: Any) -> Any:
                layer = "exec.tape_cache" if isinstance(cache, tape_cache) else "exec.cache"
                stats = getattr(cache, "stats", None)
                before = [getattr(stats, c, 0) for c in CACHE_COUNTS]
                with self.span(f"{layer}.{op}"):
                    result = fn(cache, *args, **kwargs)
                for count, old in zip(CACHE_COUNTS, before):
                    counts[f"{layer}.{count}"] += getattr(stats, count, 0) - old
                if op == "store" and isinstance(result, (str, os.PathLike)):
                    counts[f"{layer}.bytes_written"] += os.path.getsize(result)
                return result

            return wrapper

        return make

    def _replay_grid(self, fn: Callable) -> Callable:
        counts = self.counts
        stats_class = _resolve("repro.sim.batch", "ReplayStats")
        if stats_class is None or "stats" not in inspect.signature(fn).parameters:
            return self._timed("sim.batch.replay_grid")(fn)

        def replay_grid(*args: Any, stats: Any = None, **kwargs: Any) -> Any:
            # The function builds and drops its own stats object when
            # given none; hand it one so the column counts survive.
            if stats is None:
                stats = stats_class()
            vector = getattr(stats, "vector_gears", 0)
            scalar = getattr(stats, "scalar_gears", 0)
            with self.span("sim.batch.replay_grid"):
                result = fn(*args, stats=stats, **kwargs)
            counts["sim.batch.vector_columns"] += getattr(stats, "vector_gears", 0) - vector
            counts["sim.batch.scalar_columns"] += getattr(stats, "scalar_gears", 0) - scalar
            return result

        return replay_grid

    def _counting(self, cls: type, name: str) -> Callable:
        """A wrapper that only counts calls resolved to ``cls.name``.

        A subclass override that delegates through ``super()`` reaches
        the base class's wrapper too; the owner check counts each call
        once, at the class the instance's own lookup resolves to.
        """
        counts = self.counts
        key = f"mpi.comm.{name}"
        owners: dict[type, type] = {}

        def make(fn: Callable) -> Callable:
            def method(comm: Any, *args: Any, **kwargs: Any) -> Any:
                kind = type(comm)
                owner = owners.get(kind)
                if owner is None:
                    owner = owners[kind] = next(
                        c for c in kind.__mro__ if name in vars(c)
                    )
                if owner is cls:
                    counts[key] += 1
                return fn(comm, *args, **kwargs)

            return method

        return make
