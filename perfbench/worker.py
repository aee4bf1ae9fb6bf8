"""One repetition of one workload, in the process that runs this file.

Usage::

    python3 perfbench/worker.py --workload paper-event --seed 1 \\
        --workdir DIR --out record.json [--trace] [--setup-only]

``src`` must be on ``PYTHONPATH`` and ``$REPRO_CACHE_DIR`` must name an
empty directory; ``perfbench/run.py`` arranges both.  The worker writes
one JSON record to ``--out``:

- ``setup_s``: CPU seconds of this process before its first simulation
  point: interpreter start, the ``repro`` import, and building the job
  (the executor's caches, and for the validation sweep its pack).
- ``wall_s`` / ``cpu_s``: wall and CPU seconds of the job itself; the
  wall time leaves out ``taken_s``, the time the job was ready to run
  but its CPU ran something else (:func:`taken_s`).
- ``setup_speed`` / ``speed``: the host's speed while set-up and the
  job ran, relative to the reference speed (:class:`SpeedProbe`).
- ``peak_rss_mb``: this process's peak resident set.
- ``attempted`` / ``failed`` / ``problems`` / ``max_rel_err``: the
  reference check of the job's outputs.
- with ``--trace``: ``layers``, the per-layer metrics, and ``spans``,
  every recorded span, written once at the end.

With ``--setup-only`` the worker stops after set-up and records the
set-up fields alone.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import heapq
import json
import os
import resource
import signal
import sys
import time
import traceback
from pathlib import Path


class SpeedProbe:
    """The host's speed, sampled on the worker's own thread.

    On a shared host the same Python code runs up to ~40% faster or
    slower from one second to the next, as other tenants come and go,
    and CPU time moves with it: repetitions of identical code varied by
    ~9% in CPU seconds.  While the probe is started, a ``SIGPROF``
    handler runs every :data:`INTERVAL_S` of process CPU time and times
    a fixed pure-Python reference loop that shares no code with the
    program.  :meth:`stop` returns the speed over the sampled stretch,
    :data:`REFERENCE_S` over the loop's mean duration; a time measured
    over the stretch, times that speed, is the time at reference speed.
    On the validation sweep that halved the repetitions' spread, to ~4%.
    (The median duration is no substitute: the host's speed has two
    modes, and the median follows one of them.)

    The speed must not depend on the program, so the garbage collector
    is off while a sample runs: a collection of the program's heap,
    which the loop's allocations could otherwise set off, never lands
    in a sample.

    The probe costs about 2% of the CPU time it samples; :meth:`stop`
    also returns that cost so callers subtract it.  While the timer is
    armed the kernel serves the process CPU clock at tick granularity,
    so read ``time.process_time()`` only while the probe is stopped.
    """

    #: Process CPU seconds between samples.
    INTERVAL_S = 0.02

    #: Duration of one reference loop at reference speed (the typical
    #: duration on the 2-vCPU Xeon host the bounds were set on).
    REFERENCE_S = 450e-6

    def __init__(self) -> None:
        self._samples = 0
        self._cpu = 0.0
        self._wall = 0.0

    @staticmethod
    def _reference() -> float:
        heap: list[tuple[int, int]] = []
        sums: dict[int, float] = {}
        total = 0.0
        for i in range(400):
            heapq.heappush(heap, ((i * 7919) % 1000003, i))
            sums[i & 127] = sums.get(i & 127, 0.0) + i * 0.5
            if len(heap) > 64:
                total += heapq.heappop(heap)[0]
        return total

    def _sample(self, signum: int, frame: object) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            wall, cpu = time.perf_counter(), time.thread_time()
            self._reference()
            self._cpu += time.thread_time() - cpu
            self._wall += time.perf_counter() - wall
            self._samples += 1
        finally:
            if collecting:
                gc.enable()

    def start(self) -> None:
        self._samples, self._cpu, self._wall = 0, 0.0, 0.0
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> tuple[float, float, float]:
        """(speed, probe CPU seconds, probe wall seconds) since start.

        The speed is 1.0 when nothing was sampled (a stretch too short,
        or a probe never started).
        """
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        speed = self.REFERENCE_S * self._samples / self._cpu if self._cpu else 1.0
        return speed, self._cpu, self._wall


def pin_to_current_cpu() -> int:
    """Keep this process on the CPU it runs on now; returns that CPU."""
    with open("/proc/self/stat") as stat:
        # Field 39, "processor"; the command name before it may hold spaces.
        cpu = int(stat.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})
    return cpu


def taken_s(cpu: int) -> float:
    """Seconds so far that this process, pinned to CPU ``cpu``, was
    ready to run but did not: the CPU's steal time, while the host ran
    another tenant on it, plus this process's run-queue delay, while
    this machine ran another process on it.

    A part the kernel does not report reads 0.0.
    """
    steal = queued = 0.0
    prefix = f"cpu{cpu} "
    with contextlib.suppress(OSError, IndexError, ValueError):
        with open("/proc/stat") as stat:
            line = next((line for line in stat if line.startswith(prefix)), "")
        steal = int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    with contextlib.suppress(OSError, IndexError, ValueError):
        with open("/proc/self/schedstat") as stat:
            queued = int(stat.read().split()[1]) / 1e9
    return steal + queued


def measure(
    workload_name: str,
    *,
    seed: int,
    workdir: Path,
    trace: bool = False,
    setup_only: bool = False,
) -> dict:
    """Set up and run one repetition; see the module docstring.

    A traced repetition installs the tracer instead of the speed probe,
    so no probe time lands in a span, and reports a speed of 1.0.
    """
    import suite

    workload = suite.WORKLOADS[workload_name]
    tracer = None
    probe = SpeedProbe()
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        for boundary in tracer.missing:
            print(f"not traced, not found: {boundary}", file=sys.stderr)
    else:
        probe.start()
    try:
        job = suite.make_job(workload, seed, workdir)
        speed, probe_cpu, _ = probe.stop()
        record = {
            "setup_s": time.process_time() - probe_cpu,
            "setup_speed": speed,
        }
        if setup_only:
            return record
        # Pinned, all steal time of this CPU during the job is the job's.
        core = pin_to_current_cpu()
        wall, cpu, taken = time.perf_counter(), time.process_time(), taken_s(core)
        check = None
        if tracer is None:
            probe.start()
        try:
            if tracer is not None:
                with tracer.span(tracing.WINDOW):
                    outcome = job.run()
            else:
                outcome = job.run()
        except Exception:
            traceback.print_exc()
            check = job.failed_run()
            check.problems.append("the workload raised")
        finally:
            speed, probe_cpu, probe_wall = probe.stop()
        record["taken_s"] = taken_s(core) - taken
        record["wall_s"] = time.perf_counter() - wall - probe_wall - record["taken_s"]
        record["cpu_s"] = time.process_time() - cpu - probe_cpu
        record["speed"] = speed
    finally:
        if tracer is not None:
            tracer.uninstall()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if check is None:
        check = job.check(outcome)
    record.update(
        attempted=check.attempted,
        failed=check.failed,
        problems=check.problems,
        max_rel_err=check.max_rel_err,
    )
    if tracer is not None:
        left = tracing.installed_wrappers()
        if left:
            record["problems"].append(f"wrappers left installed: {left}")
        record["layers"] = tracer.metrics(max_rel_err=check.max_rel_err)
        record["spans"] = tracer.spans
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    record = measure(
        args.workload,
        seed=args.seed,
        workdir=args.workdir,
        trace=args.trace,
        setup_only=args.setup_only,
    )
    args.out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
