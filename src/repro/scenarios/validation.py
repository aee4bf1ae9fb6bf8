"""The validation sweep: soak the executor stack, prove its contracts.

:func:`run_validation` drives a scenario-spec list through the cached
chunked executor and checks, at sweep scale, the three guarantees the
smaller unit suites check point by point:

1. **Deterministic merge** — a cold, chunked, parallel sweep and a
   serial recheck of sampled points produce byte-identical encoded
   payloads (canonical JSON of ``task.encode(result)``).
2. **Cache-eviction correctness** — the cache is pruned to a byte bound
   between waves, forcing evictions mid-sweep; rechecked points must
   agree whether they come back as cache hits or as recomputations of
   evicted entries.
3. **Fast-forward equivalence** — specs tagged ``ff-eligible`` are
   re-run with steady-state fast-forward enabled and their
   time/energy must match exact simulation to a relative tolerance
   (1e-9 by default), with the macro-stepping demonstrably engaged.
4. **Batch-backend equivalence** — specs tagged ``batch-eligible`` are
   re-run through the record/replay batch backend
   (:mod:`repro.sim.batch` via ``Executor(backend="batch")``) and must
   match exact simulation to the same tolerance, with the grouping
   demonstrably engaged (points actually folded into shared-tape
   groups, fallbacks to the event engine counted and reported).

The result is a :class:`ValidationReport` — JSON-serializable, so the
nightly CI job can archive it as ``VALIDATION_sweep.json``.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.exec.cache import ResultCache
from repro.exec.executor import Executor
from repro.exec.record import CACHE
from repro.exec.tasks import MeasurementTask, SimTask
from repro.scenarios.packs import BATCH_ELIGIBLE_TAG, FF_ELIGIBLE_TAG, FF_KNOBS
from repro.scenarios.spec import ScenarioSpec, _pairs
from repro.util.errors import ConfigurationError

#: Default relative tolerance for fast-forward equivalence.
FF_RTOL = 1e-9

#: Default relative tolerance for batch-backend equivalence.
BATCH_RTOL = 1e-9


def canonical_payload(task: SimTask, result: Any) -> str:
    """The canonical JSON text of a point's encoded result.

    This is exactly what the cache would store as the entry payload
    (sorted keys), so byte-comparing two of these is the strongest
    equality the stack can express.
    """
    return json.dumps(task.encode(result), sort_keys=True)


def _rel_err(a: float, b: float) -> float:
    """Relative error, safe at zero."""
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


@dataclass(frozen=True)
class Mismatch:
    """One validation failure, attributable to its scenario and point."""

    check: str
    scenario: str
    point: str
    detail: str


@dataclass
class ValidationReport:
    """What a validation sweep ran and what it found.

    ``mismatches`` empty means every contract held; :attr:`ok` also
    demands the sweep exercised what it claims to exercise (evictions
    actually happened when a cache bound was set, fast-forward actually
    skipped iterations when twins ran).
    """

    scenarios: int = 0
    points: int = 0
    waves: int = 0
    elapsed_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0
    cache_evicted: int = 0
    cache_invalidated: int = 0
    rechecked: int = 0
    recheck_hits: int = 0
    recheck_recomputed: int = 0
    ff_twins: int = 0
    ff_points: int = 0
    ff_skipped_iterations: int = 0
    ff_max_rel_err: float = 0.0
    ff_rtol: float = FF_RTOL
    batch_twins: int = 0
    batch_points: int = 0
    batch_groups: int = 0
    batch_grouped_points: int = 0
    batch_fallback_points: int = 0
    batch_tape_hits: int = 0
    batch_tape_misses: int = 0
    batch_max_rel_err: float = 0.0
    batch_rtol: float = BATCH_RTOL
    cache_bound_bytes: int | None = None
    mismatches: list[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every contract held *and* was actually exercised."""
        if self.mismatches:
            return False
        if self.cache_bound_bytes is not None and self.cache_evicted == 0:
            return False
        if self.ff_twins and self.ff_skipped_iterations == 0:
            return False
        if self.batch_twins and self.batch_grouped_points == 0:
            return False
        return True

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready mapping (``ok`` included for artifact readers)."""
        data = asdict(self)
        data["ok"] = self.ok
        return data

    def write(self, path: str | Path) -> Path:
        """Write the report as an indented JSON document."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))
        return path

    def render(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"validation: {self.points} points across {self.scenarios} "
            f"scenarios in {self.waves} waves ({self.elapsed_s:.1f}s)",
            f"  cache: {self.cache_hits} hits, {self.cache_misses} misses, "
            f"{self.cache_stores} stores, {self.cache_evicted} evicted",
            f"  recheck: {self.rechecked} points "
            f"({self.recheck_hits} from cache, "
            f"{self.recheck_recomputed} recomputed after eviction)",
            f"  fast-forward: {self.ff_points} points across {self.ff_twins} "
            f"twins, {self.ff_skipped_iterations} iterations skipped, "
            f"max rel err {self.ff_max_rel_err:.3e} (tol {self.ff_rtol:.0e})",
            f"  batch: {self.batch_points} points across {self.batch_twins} "
            f"twins, {self.batch_grouped_points} grouped into "
            f"{self.batch_groups} recordings, {self.batch_fallback_points} "
            f"fell back, tape cache {self.batch_tape_hits} hits / "
            f"{self.batch_tape_misses} misses, "
            f"max rel err {self.batch_max_rel_err:.3e} "
            f"(tol {self.batch_rtol:.0e})",
        ]
        if self.mismatches:
            lines.append(f"  MISMATCHES: {len(self.mismatches)}")
            for m in self.mismatches[:20]:
                lines.append(f"    [{m.check}] {m.scenario} {m.point}: {m.detail}")
            if len(self.mismatches) > 20:
                lines.append(f"    ... and {len(self.mismatches) - 20} more")
        elif not self.ok:
            if self.cache_bound_bytes is not None and self.cache_evicted == 0:
                lines.append(
                    "  NOT EXERCISED: cache bound set but nothing was evicted"
                )
            if self.ff_twins and self.ff_skipped_iterations == 0:
                lines.append(
                    "  NOT EXERCISED: fast-forward twins never skipped ahead"
                )
            if self.batch_twins and self.batch_grouped_points == 0:
                lines.append(
                    "  NOT EXERCISED: batch twins never formed a group"
                )
        else:
            lines.append("  all contracts held")
        return "\n".join(lines)


def _compare_twin(
    report: ValidationReport,
    check: str,
    scenario: str,
    twin_tasks: Sequence[SimTask],
    exact_results: Sequence[Any],
    twin_results: Sequence[Any],
    rtol: float,
) -> float:
    """Compare a twin spec's time and energy with its exact spec's.

    Adds a ``check`` mismatch to ``report`` for every point that is not
    a measurement or whose relative error exceeds ``rtol``; returns the
    largest relative error seen.
    """
    max_rel_err = 0.0
    for exact, task, twin in zip(exact_results, twin_tasks, twin_results):
        point = str(task.key)
        if not isinstance(task, MeasurementTask):
            kind = type(task).__name__
            detail = f"{check} twins must be measurement kind, got {kind}"
            report.mismatches.append(Mismatch(check, scenario, point, detail))
            continue
        for quantity in ("time", "energy"):
            err = _rel_err(getattr(exact, quantity), getattr(twin, quantity))
            max_rel_err = max(max_rel_err, err)
            if err > rtol:
                detail = f"{quantity} rel err {err:.3e} exceeds {rtol:.0e}"
                report.mismatches.append(Mismatch(check, scenario, point, detail))
    return max_rel_err


def _ff_twin(spec: ScenarioSpec, knobs: Mapping[str, Any]) -> ScenarioSpec:
    """The fast-forwarded twin of an exact spec."""
    return replace(
        spec, name=f"{spec.name}+ff", fast_forward=_pairs(dict(knobs))
    )


def run_validation(
    specs: Sequence[ScenarioSpec],
    *,
    jobs: int = 1,
    chunk_size: int | None = None,
    cache: ResultCache | None = None,
    max_cache_bytes: int | None = None,
    waves: int = 4,
    recheck_stride: int = 7,
    ff_knobs: Mapping[str, Any] = FF_KNOBS,
    ff_rtol: float = FF_RTOL,
    batch_rtol: float = BATCH_RTOL,
    progress=None,
) -> ValidationReport:
    """Run the validation sweep over ``specs``; see the module docstring.

    Args:
        specs: the scenario specs to validate (scenario names must be
            unique — :func:`repro.scenarios.packs.validation_pack`
            output qualifies).
        jobs: worker processes for the cold sweep and the twins.
        chunk_size: executor chunk size (None = auto).
        cache: result cache to use; ``None`` builds the default
            (``$REPRO_CACHE_DIR``) — tests pass a tmp-dir cache.
        max_cache_bytes: prune the cache to this bound between waves,
            forcing mid-sweep evictions (``None`` falls back to
            ``$REPRO_CACHE_MAX_MB``; no bound means no forced pruning).
        waves: how many contiguous slices the cold sweep runs in
            (pruning happens at wave boundaries).
        recheck_stride: serially re-verify every Nth point (1 = all).
        ff_knobs: fast-forward settings for the equivalence twins.
        ff_rtol: relative tolerance for twin time/energy agreement.
        batch_rtol: relative tolerance for batch-backend twin agreement.
        progress: optional callable taking one status string per phase
            step (the CLI wires this to stderr).

    Returns:
        The :class:`ValidationReport`.
    """
    if waves < 1:
        raise ConfigurationError(f"waves must be >= 1, got {waves}")
    if recheck_stride < 1:
        raise ConfigurationError(
            f"recheck_stride must be >= 1, got {recheck_stride}"
        )
    if cache is None:
        cache = ResultCache()

    def say(text: str) -> None:
        if progress is not None:
            progress(text)

    start = time.perf_counter()
    report = ValidationReport(
        scenarios=len(specs),
        ff_rtol=ff_rtol,
        batch_rtol=batch_rtol,
        cache_bound_bytes=max_cache_bytes,
    )

    # ------------------------------------------------------------------
    # Phase A: cold sweep in waves, pruning the cache at wave boundaries.
    tasks: list[SimTask] = []
    for spec in specs:
        tasks.extend(spec.tasks())
    report.points = len(tasks)
    baseline: list[str] = []
    executor = Executor(jobs=jobs, cache=cache, chunk_size=chunk_size)
    wave_size = max(1, -(-len(tasks) // waves))
    for lo in range(0, len(tasks), wave_size):
        wave = tasks[lo : lo + wave_size]
        report.waves += 1
        say(
            f"wave {report.waves}: {len(wave)} points "
            f"({lo + len(wave)}/{len(tasks)})"
        )
        for task, result in zip(wave, executor.run(wave)):
            baseline.append(canonical_payload(task, result))
        cache.prune(max_bytes=max_cache_bytes)

    # ------------------------------------------------------------------
    # Phase B: serial recheck of sampled points against the pruned cache.
    # A sampled point either hits the cache (decode path) or was evicted
    # and recomputes (run path); both must reproduce the cold sweep's
    # payload byte for byte.
    sample = list(range(0, len(tasks), recheck_stride))
    say(f"recheck: {len(sample)} of {len(tasks)} points, serial")
    serial = Executor(jobs=1, cache=cache)
    sampled = [tasks[index] for index in sample]
    results = serial.run(sampled)
    # The record has one row per run, in the order the points list them;
    # a point is a hit when every run it lists came from the cache.
    rows = iter(serial.record.runs)
    for index, task, result in zip(sample, sampled, results):
        report.rechecked += 1
        tiers = [next(rows).tier for _ in task.runs()]
        report.recheck_hits += all(tier == CACHE for tier in tiers)
        got = canonical_payload(task, result)
        if got != baseline[index]:
            report.mismatches.append(
                Mismatch(
                    check="determinism",
                    scenario=getattr(task, "scenario", None) or "",
                    point=str(task.key),
                    detail=(
                        "serial recheck payload differs from cold "
                        f"parallel sweep ({len(got)} vs "
                        f"{len(baseline[index])} bytes)"
                    ),
                )
            )
    report.recheck_recomputed = report.rechecked - report.recheck_hits

    # ------------------------------------------------------------------
    # Phase C: fast-forward twins of the eligible specs.
    eligible = {s.name for s in specs if FF_ELIGIBLE_TAG in s.tags}
    batch_eligible = {s.name for s in specs if BATCH_ELIGIBLE_TAG in s.tags}
    say(f"fast-forward twins: {len(eligible)} specs")
    exact_tasks_by_name: dict[str, list[SimTask]] = {}
    offset = 0
    for spec in specs:
        count = spec.points
        if spec.name in eligible or spec.name in batch_eligible:
            exact_tasks_by_name[spec.name] = tasks[offset : offset + count]
        offset += count
    # The twins get an executor of their own, so its record's ledger
    # counts only the twin sweeps' runs.
    ff_executor = Executor(jobs=jobs, cache=cache, chunk_size=chunk_size)
    for spec in (s for s in specs if s.name in eligible):
        twin = _ff_twin(spec, ff_knobs)
        twin_tasks = twin.tasks()
        report.ff_twins += 1
        report.ff_points += len(twin_tasks)
        twin_results = ff_executor.run(twin_tasks)
        exact_results = serial.run(exact_tasks_by_name[spec.name])
        err = _compare_twin(
            report,
            "fast-forward",
            spec.name,
            twin_tasks,
            exact_results,
            twin_results,
            ff_rtol,
        )
        report.ff_max_rel_err = max(report.ff_max_rel_err, err)
    report.ff_skipped_iterations = (
        ff_executor.record.fast_forward().skipped_iterations
    )

    # ------------------------------------------------------------------
    # Phase D: batch-backend twins of the eligible specs.  The twin spec
    # carries ``backend="batch"`` — its fingerprint (and the executor's
    # cache keys) move with it, so batch results never shadow the exact
    # baseline in the cache — and runs under a batch executor, which
    # folds the shared-gear points into one recording per node count.
    say(f"batch twins: {len(batch_eligible)} specs")
    if batch_eligible:
        batch_executor = Executor(
            jobs=jobs, cache=cache, chunk_size=chunk_size, backend="batch"
        )
        for spec in (s for s in specs if s.name in batch_eligible):
            twin = replace(spec, name=f"{spec.name}+batch", backend="batch")
            twin_tasks = twin.tasks()
            report.batch_twins += 1
            report.batch_points += len(twin_tasks)
            twin_results = batch_executor.run(twin_tasks)
            exact_results = serial.run(exact_tasks_by_name[spec.name])
            err = _compare_twin(
                report,
                "batch",
                spec.name,
                twin_tasks,
                exact_results,
                twin_results,
                batch_rtol,
            )
            report.batch_max_rel_err = max(report.batch_max_rel_err, err)
        record = batch_executor.record
        report.batch_groups = len(record.groups)
        report.batch_grouped_points = sum(g.runs for g in record.groups)
        report.batch_fallback_points = record.fallback_points
        report.batch_tape_hits = record.tape_hits
        report.batch_tape_misses = len(record.groups) - record.tape_hits

    report.cache_hits = cache.stats.hits
    report.cache_misses = cache.stats.misses
    report.cache_stores = cache.stats.stores
    report.cache_evicted = cache.stats.evicted
    report.cache_invalidated = cache.stats.invalidated
    report.elapsed_s = time.perf_counter() - start
    say(report.render())
    return report
