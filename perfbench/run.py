"""The repository's benchmark: host time of the jobs a user runs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-event --seed 1 \\
        --seconds 36 --trace 0

Workloads (see ``perfbench/suite.py`` for why each is here and which
layers it loads):

- ``paper-event``: ``runner`` over all seven paper experiments on the
  event engine, result cache on and cold.
- ``paper-batch-ff``: the same suite with ``--backend batch
  --fast-forward``.
- ``validation-sweep``: ``run_validation`` over a 600-point
  ``validation_pack`` whose order the seed shuffles, serial, with the
  fast-forward and batch twins and a result cache bound that evicts at
  every wave.

Each repetition runs in a fresh process (``perfbench/worker.py``) with
an empty cache directory, after a fresh process that only sets up.
Repetitions continue until the next one would overrun ``--seconds`` (at
least :data:`MIN_REPS`); more set-up-only processes follow until there
are :data:`SETUP_SAMPLES` set-up samples.

``--trace 0`` reports the end-to-end metrics, medians over the
repetitions:

- ``wall_s``: wall seconds of the job, from its first experiment or
  validation phase to its last, less the time its CPU was taken from
  it by the host (steal) or by another process (run-queue delay);
- ``cpu_s``: CPU seconds (user + system) over the same span;
- ``setup_s``: CPU seconds a fresh process spends before its first
  simulation point;
- ``peak_rss_mb``: peak resident set of the process.

The three times are at the host's reference speed: each is measured,
less the probe's own cost, and multiplied by the speed a
program-independent probe sampled over the same stretch (see
``SpeedProbe`` in ``perfbench/worker.py``).  On a shared host that
removes the ~10% the host's own speed moves whole runs by, and keeps
every change the program makes.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (``perfbench/tracer.py``), with
``trace.overhead_s``, the traced wall minus the untraced wall.

Every repetition's outputs are checked against a reference; the last
line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` simulation points and ``metrics``.  The
exit code is 0 when every output was correct, 1 when the benchmark ran
but some output was wrong, and 2 when it could not run at all (then no
result is printed).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))

import suite  # noqa: E402
import tracer  # noqa: E402

#: Fewest measured repetitions per run, whatever ``--seconds`` says.
MIN_REPS = 2

#: Set-up samples per run (fresh processes, median reported).
SETUP_SAMPLES = 15

#: Hard limit on one run, seconds: every child is killed past it.
RUN_LIMIT_S = 170.0

#: (name, unit) of every end-to-end metric.
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class ChildFailed(RuntimeError):
    """A worker process exited abnormally or did not finish in time."""


class Runner:
    """Starts worker processes for one benchmark run."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.started = time.perf_counter()
        self._children = 0
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith("REPRO_") and key != "PYTHONDONTWRITEBYTECODE"
        }
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        )
        # One thread per process, so CPU time is the simulator's alone.
        for knob in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[knob] = "1"
        env["PYTHONHASHSEED"] = "0"
        self.env = env

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def child(self, *, trace: bool = False, setup_only: bool = False) -> dict:
        """Run one worker in a fresh directory; returns its record."""
        self._children += 1
        childdir = self.workdir / f"child-{self._children}"
        (childdir / "cache").mkdir(parents=True)
        (childdir / "tmp").mkdir()
        out = childdir / "record.json"
        env = dict(self.env, REPRO_CACHE_DIR=str(childdir / "cache"))
        env["TMPDIR"] = str(childdir / "tmp")
        command = [
            sys.executable, str(WORKER),
            "--workload", self.workload, "--seed", str(self.seed),
            "--workdir", str(childdir), "--out", str(out),
        ]
        if trace:
            command.append("--trace")
        if setup_only:
            command.append("--setup-only")
        timeout = RUN_LIMIT_S - self.elapsed()
        if timeout <= 0:
            raise ChildFailed(f"run exceeded {RUN_LIMIT_S:.0f} s")
        try:
            proc = subprocess.run(
                command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"worker killed after {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise ChildFailed(f"worker exited with {proc.returncode}")
        record = json.loads(out.read_text())
        # Drop what the child left on disk before the next one starts.
        shutil.rmtree(childdir)
        return record


def _median(records: list[dict], key: str, speed: str | None = None) -> float:
    """Median of ``key``, each value scaled by its record's ``speed``."""
    return statistics.median(r[key] * (r[speed] if speed else 1.0) for r in records)


def measure(runner: Runner, seconds: float) -> tuple[list[dict], dict]:
    """Untraced repetitions; returns (records, end-to-end metrics)."""
    reps: list[dict] = []
    # A set-up-only process before each repetition spreads the set-up
    # samples over the run instead of bunching them into one stretch of
    # host load.
    setups: list[dict] = []
    longest = 0.0
    while True:
        begun = runner.elapsed()
        setups.append(runner.child(setup_only=True))
        reps.append(runner.child())
        longest = max(longest, runner.elapsed() - begun)
        if len(reps) >= MIN_REPS and runner.elapsed() + longest > seconds:
            break
    setups += reps
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.child(setup_only=True))
    metrics = {
        "wall_s": _median(reps, "wall_s", "speed"),
        "cpu_s": _median(reps, "cpu_s", "speed"),
        "setup_s": _median(setups, "setup_s", "setup_speed"),
        "peak_rss_mb": _median(reps, "peak_rss_mb"),
    }
    return reps, metrics


def measure_traced(runner: Runner, seconds: float) -> tuple[list[dict], dict]:
    """Untraced and traced repetitions in turn; returns (records,
    per-layer metrics of the traced ones)."""
    plain: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    while True:
        begun = runner.elapsed()
        plain.append(runner.child())
        traced.append(runner.child(trace=True))
        longest = max(longest, runner.elapsed() - begun)
        if runner.elapsed() + longest > seconds:
            break
    metrics = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name, _, _ in tracer.LAYER_METRICS
        if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = _median(traced, "wall_s") - _median(plain, "wall_s")
    return plain + traced, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"benchmark cannot run here: no {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    runner = Runner(args.workload, args.seed, workdir)
    try:
        try:
            # Untimed: compiles bytecode and warms the page cache, and
            # fails fast when the checkout cannot run the program.
            runner.child(setup_only=True)
        except ChildFailed as exc:
            print(f"benchmark cannot run here: {exc}", file=sys.stderr)
            return 2
        try:
            if args.trace:
                records, values = measure_traced(runner, args.seconds)
                units = {name: unit for name, unit, _ in tracer.LAYER_METRICS}
            else:
                records, values = measure(runner, args.seconds)
                units = dict(END_TO_END)
        except ChildFailed as exc:
            print(f"benchmark run failed: {exc}", file=sys.stderr)
            return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()  # only when no other run is using it

    for record in records:
        for problem in record["problems"]:
            print(f"[{args.workload}] {problem}", file=sys.stderr)
    correct = all(r["failed"] == 0 and not r["problems"] for r in records)
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
