"""The benchmark's workloads and the reference checks on their outputs.

Each workload is one job a user of this reproduction runs.  Every
repetition runs in a fresh process, serially (``jobs=1``: a pool on a
small shared host measures the scheduler), from an empty result cache
and an empty tape cache, so nothing carries over between repetitions.

Set-up is measured as CPU time, never as wall time.  On the validation
sweep a wall-clock reading of set-up once moved +28% (0.69 s to 0.88 s)
between two sets of runs of identical code, while the sweep's own wall
and CPU time moved at most 3.7%: one descheduling during the pack build
can add a tenth of a second of wall time without adding any CPU time.
Over ten fresh processes, the CPU time of the ``repro`` import plus the
pack build varied by about 4%.  That finding is why ``setup_s`` is CPU
seconds and the median over several fresh processes in each run.  CPU
time itself still moves with the shared host's speed, so every time is
also scaled to a reference speed (``SpeedProbe`` in ``worker.py``).

A workload's :attr:`Workload.loads` names the layers that do most of
their work on it and :attr:`Workload.idle` those that do little or none,
so a change to one layer can name a workload that should show its gain
and one that should not move.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Workload scale of the paper suite (what ``runner`` runs by default).
SCALE = 1.0

#: Simulation-point target of the validation sweep's pack.
VALIDATION_POINTS = 600

#: Result-cache bound of the validation sweep: small enough that the
#: prune at every wave boundary evicts.
VALIDATION_CACHE_BYTES = 64_000

#: Relative tolerance of batch + fast-forward floats against the event
#: engine's reference.
BATCH_RTOL = 1e-9

#: The repository's committed artifacts: the event engine's output at
#: :data:`SCALE`, and so the reference for the experiments they cover.
RESULTS_DIR = Path(__file__).resolve().parents[1] / "results"

#: The benchmark's own event-engine reference for the experiments with
#: no committed artifact (``policies``), and ``manifest.json`` with each
#: experiment's simulation-point count.
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload and why it is in the benchmark."""

    name: str
    why: str
    #: Layers that do most of their work here.
    loads: str
    #: Layers that do little or no work here.
    idle: str
    #: ``runner`` flags for a paper-suite workload; None for the sweep.
    runner_flags: tuple[str, ...] | None = None
    #: Whether outputs must equal the reference byte for byte (else
    #: same structure and floats within :data:`BATCH_RTOL`).
    exact: bool = True


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper-event",
            why=(
                "the default path, what a user runs after any code edit: "
                "all seven experiments on the event engine with the "
                "result cache on and cold; about 93% of its traced wall "
                "is Simulator.run self time (the event loop and its "
                "world, comm, power and tracing callbacks), so it is the "
                "control for a change to one of the faster runtimes; the "
                "paper suite has no free input, so it ignores the seed"
            ),
            loads=(
                "sim.engine (event loop and callbacks: 785k events in 307 "
                "worlds, 1.34M Comm calls), mpi.comm, cluster.power, "
                "mpi.tracing"
            ),
            idle=(
                "sim.batch and mpi.fastforward read zero (off); no tape "
                "cache; mpi.world and exec dispatch cost ~2% (few, long "
                "worlds); scenarios.packs is not called"
            ),
            runner_flags=(),
        ),
        Workload(
            name="paper-batch-ff",
            why=(
                "the fastest runtime, --backend batch --fast-forward: "
                "tape replay takes ~35-40% of the traced wall and the "
                "event loop ~40% (32 recordings plus the policy and "
                "calibration points that always run on the event engine); "
                "it writes 32 tapes and reloads 28, so changes to replay, "
                "recording and fast-forward show here and nowhere else; it "
                "ignores the seed"
            ),
            loads=(
                "sim.batch (record_tape, replay_grid, tape payloads), "
                "mpi.fastforward, exec.tape_cache, sim.engine"
            ),
            idle=(
                "mpi.comm, cluster.power and mpi.tracing do less work "
                "than on paper-event (fewer, macro-stepped worlds); "
                "scenarios.packs is not called"
            ),
            runner_flags=("--backend", "batch", "--fast-forward"),
            exact=False,
        ),
        Workload(
            name="validation-sweep",
            why=(
                "many tiny simulations (~190 events per world against "
                "~2.6k on paper-event), so per-point and per-world costs "
                "dominate; it writes, evicts and reads back the result "
                "cache while the paper runs mostly write once; a change "
                "that cuts per-event cost but adds per-point or "
                "per-world cost shows as a regression here; the seed "
                "shuffles the spec order (see ValidationJob)"
            ),
            loads=(
                "exec dispatch (Executor.run and fingerprint self time "
                "~30%, 714 worlds), mpi.world, exec.cache (~700 stores, "
                "~480 evictions, recheck reads), "
                "scenarios.packs (validation_pack, in set-up)"
            ),
            idle=(
                "sim.engine per-event work is small; sim.batch and "
                "mpi.fastforward run only on the few twin specs"
            ),
        ),
    )
}


@dataclass
class Check:
    """Reference-check outcome of one repetition."""

    #: Simulation points submitted.
    attempted: int
    #: Points that raised or failed their reference check.
    failed: int = 0
    #: Largest relative float difference against the reference.
    max_rel_err: float = 0.0
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


# ----------------------------------------------------------------------
# Output comparison


def rel_err(a: float, b: float) -> float:
    """Relative difference, 0.0 when both are zero."""
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def compare_json(reference: Any, got: Any, rtol: float) -> tuple[float, list[str]]:
    """Compare two JSON documents: same keys and non-float values,
    floats within ``rtol`` relative.

    Returns the largest relative float difference and the paths of the
    values that differ.
    """
    worst = 0.0
    diffs: list[str] = []

    def walk(ref: Any, val: Any, path: str) -> None:
        nonlocal worst
        if isinstance(ref, float) or isinstance(val, float):
            numeric = (int, float)
            if (
                isinstance(ref, bool)
                or isinstance(val, bool)
                or not isinstance(ref, numeric)
                or not isinstance(val, numeric)
            ):
                diffs.append(path)
                return
            err = rel_err(float(ref), float(val))
            worst = max(worst, err)
            if err > rtol:
                diffs.append(path)
        elif isinstance(ref, dict) and isinstance(val, dict):
            if ref.keys() != val.keys():
                diffs.append(path)
                return
            for key in ref:
                walk(ref[key], val[key], f"{path}/{key}")
        elif isinstance(ref, list) and isinstance(val, list):
            if len(ref) != len(val):
                diffs.append(path)
                return
            for i, (r, v) in enumerate(zip(ref, val)):
                walk(r, v, f"{path}/{i}")
        elif type(ref) is not type(val) or ref != val:
            diffs.append(path)

    walk(reference, got, "")
    return worst, diffs


def reference_points() -> dict[str, int]:
    """Simulation points per paper experiment, from the manifest."""
    manifest = json.loads((REFERENCE_DIR / "manifest.json").read_text())
    return manifest["points"]


def reference_file(name: str) -> Path:
    """The event-engine reference artifact of experiment ``name``: the
    committed one where it exists, else the benchmark's own."""
    committed = RESULTS_DIR / f"{name}.json"
    return committed if committed.is_file() else REFERENCE_DIR / f"{name}.json"


def check_paper(
    workload: Workload,
    outdir: Path,
    exit_code: int | None,
    only: tuple[str, ...] = (),
) -> Check:
    """Check each artifact (of ``only``, default all) against the
    event-engine reference.

    A point fails with its experiment: an artifact that is missing or
    differs fails every point the experiment submits.
    """
    points = {
        name: count
        for name, count in reference_points().items()
        if not only or name in only
    }
    check = Check(attempted=sum(points.values()))
    if exit_code != 0:
        check.problems.append(f"runner exited with {exit_code}")
    for name, count in points.items():
        path = outdir / f"{name}.json"
        expected = reference_file(name).read_bytes()
        if not path.is_file():
            check.failed += count
            check.problems.append(f"{name}: no artifact")
            continue
        got = path.read_bytes()
        if workload.exact:
            if got != expected:
                check.failed += count
                check.problems.append(f"{name}: differs from the reference")
            continue
        err, diffs = compare_json(json.loads(expected), json.loads(got), BATCH_RTOL)
        check.max_rel_err = max(check.max_rel_err, err)
        if diffs:
            check.failed += count
            check.problems.append(f"{name}: {len(diffs)} value(s) differ, first {diffs[0]}")
    return check


def check_validation(report: Any) -> Check:
    """Each mismatch fails a point; the report must also be ``ok``.

    Submitted points: the cold sweep, the serial recheck, and each
    fast-forward or batch twin point with its exact baseline.
    """
    check = Check(
        attempted=report.points
        + report.rechecked
        + 2 * (report.ff_points + report.batch_points),
        failed=len(report.mismatches),
        max_rel_err=report.batch_max_rel_err,
    )
    if not report.ok:
        check.problems.append(report.render())
    return check


# ----------------------------------------------------------------------
# Jobs: set-up in the constructor, the measured work in run()


class PaperJob:
    """``runner`` over the paper suite, writing artifacts to ``outdir``.

    The result cache lives under ``$REPRO_CACHE_DIR``, which the caller
    points at an empty directory.
    """

    def __init__(self, workload: Workload, outdir: Path, *, only: tuple[str, ...] = ()):
        from repro.experiments import runner

        self.workload = workload
        self.outdir = outdir
        self.only = only
        self.main = runner.main
        self.argv = [
            "--scale", repr(SCALE), "--jobs", "1", "--output", str(outdir),
            *workload.runner_flags,
        ]
        if only:
            self.argv += ["--only", *only]

    def run(self) -> int | None:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            return self.main(list(self.argv))

    def check(self, exit_code: int | None) -> Check:
        return check_paper(self.workload, self.outdir, exit_code, self.only)

    def failed_run(self) -> Check:
        """The check of a run that raised: every point fails."""
        total = self.check(None).attempted
        return Check(attempted=total, failed=total)


class ValidationJob:
    """``run_validation`` over a seeded ``validation_pack``, serial.

    The seed shuffles the spec order after the leading
    fast-forward-eligible specs, which the sweep needs first.  That moves
    which specs share a wave, which entries the cache bound evicts and
    which points the recheck samples; the spec set stays fixed.
    """

    def __init__(
        self,
        seed: int,
        *,
        points: int = VALIDATION_POINTS,
        cache_bytes: int = VALIDATION_CACHE_BYTES,
    ):
        from repro.exec.cache import ResultCache
        from repro.scenarios import packs
        from repro.scenarios.validation import run_validation

        specs = packs.validation_pack(min_points=points)
        lead = 0
        while lead < len(specs) and packs.FF_ELIGIBLE_TAG in specs[lead].tags:
            lead += 1
        tail = specs[lead:]
        random.Random(seed).shuffle(tail)
        self.specs = specs[:lead] + tail
        self.cache = ResultCache()
        self.cache_bytes = cache_bytes
        self.sweep = run_validation

    def run(self) -> Any:
        return self.sweep(
            self.specs, jobs=1, cache=self.cache, max_cache_bytes=self.cache_bytes
        )

    def check(self, report: Any) -> Check:
        return check_validation(report)

    def failed_run(self) -> Check:
        total = sum(spec.points for spec in self.specs)
        return Check(attempted=total, failed=total)


def make_job(workload: Workload, seed: int, workdir: Path) -> PaperJob | ValidationJob:
    """Set up one full-size repetition of ``workload`` in ``workdir``."""
    if workload.runner_flags is None:
        return ValidationJob(seed)
    return PaperJob(workload, workdir / "out")
