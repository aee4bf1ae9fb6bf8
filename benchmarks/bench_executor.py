"""EXEC-1: the parallel cached executor — serial vs parallel, cold vs warm.

Regenerates the full paper suite (Figures 1-5 + Table 1) four ways:

- serial, no cache (the pre-executor harness's behaviour — and, since
  every observability hook defaults to ``None``, also the
  observability-disabled baseline);
- ``jobs=4``, no cache (pure fan-out; bounded by the machine's cores);
- cold cache (serial, paying fingerprint + store overhead);
- warm cache (every simulation point replayed from disk);
- observed (a no-op :class:`~repro.obs.RunObserver` attached, which
  forces inline, uncached execution — the cost ceiling of tracing).

The asserted contract: all five produce identical exported artifacts,
the warm rerun simulates and stores nothing and is >= 5x faster than
the cold one, and observer hook dispatch stays within 1.5x of the
serial baseline.  The warm pass's mean lookup time per run (computing
the run's key plus loading its entry), read from the executor's
:class:`~repro.exec.record.RunRecord`, is printed with no floor.  Run
standalone (``PYTHONPATH=src python benchmarks/bench_executor.py``) for
the timing table alone.
"""

from __future__ import annotations

import json
import tempfile
import time

from conftest import run_once

from repro.exec import Executor, ResultCache
from repro.obs import RunObserver
from repro.experiments import figure1, figure2, figure3, figure4, figure5, table1
from repro.reporting import result_to_dict
from repro.util.tables import TextTable

SUITE = (
    ("figure1", figure1),
    ("table1", table1),
    ("figure2", figure2),
    ("figure3", figure3),
    ("figure4", figure4),
    ("figure5", figure5),
)


def _run_suite(scale: float, executor: Executor) -> dict[str, str]:
    """Every artifact, exported to canonical JSON text."""
    return {
        name: json.dumps(
            result_to_dict(fn(scale=scale, executor=executor)),
            indent=2,
            sort_keys=True,
        )
        for name, fn in SUITE
    }


def _timed(scale: float, executor: Executor) -> tuple[float, dict[str, str]]:
    start = time.perf_counter()
    artifacts = _run_suite(scale, executor)
    return time.perf_counter() - start, artifacts


def warm_lookup_line(executor: Executor) -> str:
    """The mean per-run lookup time (key + load) of ``executor``'s runs."""
    rows = executor.record.runs
    mean_us = 1e6 * sum(row.lookup_s for row in rows) / len(rows)
    return f"warm cache: {len(rows)} runs, mean lookup (key + load) {mean_us:.0f} us/run"


def compare_modes(scale: float) -> tuple[TextTable, dict[str, float], str]:
    """Time the five execution modes; returns the table, raw seconds and
    the warm pass's :func:`warm_lookup_line`."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as root:
        cache = ResultCache(root=root)
        t_serial, baseline = _timed(scale, Executor())
        t_parallel, parallel = _timed(scale, Executor(jobs=4))
        t_cold, cold = _timed(scale, Executor(cache=cache))
        misses, stores = cache.stats.misses, cache.stats.stores
        warm_executor = Executor(cache=cache)
        t_warm, warm = _timed(scale, warm_executor)
        assert (cache.stats.misses, cache.stats.stores) == (misses, stores), (
            "the warm-cache pass missed or stored entries"
        )
        t_observed, observed = _timed(scale, Executor(observer=RunObserver()))
        stats = cache.stats
    for name, text in baseline.items():
        assert parallel[name] == text, f"{name}: parallel != serial"
        assert cold[name] == text, f"{name}: cold-cache != serial"
        assert warm[name] == text, f"{name}: warm-cache != serial"
        assert observed[name] == text, f"{name}: observed != serial"
    times = {
        "serial": t_serial,
        "parallel(4)": t_parallel,
        "cold cache": t_cold,
        "warm cache": t_warm,
        "observed": t_observed,
    }
    table = TextTable(
        ["mode", "suite time (s)", "speedup vs serial"],
        title=f"Full paper suite, scale {scale} ({stats.render()})",
    )
    for mode, seconds in times.items():
        table.add_row([mode, f"{seconds:.2f}", f"{t_serial / seconds:.1f}x"])
    return table, times, warm_lookup_line(warm_executor)


def test_executor_modes(benchmark, bench_scale):
    """Serial vs parallel vs cold/warm cache on the full suite."""
    table, times, lookup = run_once(benchmark, compare_modes, bench_scale)
    print()
    print(table.render())
    print(lookup)
    assert times["cold cache"] / times["warm cache"] >= 5.0
    # Hook dispatch on a no-op observer is bounded (the generous margin
    # absorbs shared-runner noise); with no observer the hooks vanish
    # entirely — the serial row *is* observability-disabled, and the
    # artifact equality above pins byte-identical output.
    assert times["observed"] / times["serial"] <= 1.5


if __name__ == "__main__":
    import os

    scale = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))
    table, times, lookup = compare_modes(scale)
    print(table.render())
    print(lookup)
