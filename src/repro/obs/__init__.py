"""Observability: run metrics, power/gear timelines, Chrome-trace export.

The paper's whole argument rests on measurement — wall-outlet energy
integrals, per-rank MPI enter/exit logs — and this package surfaces the
same telemetry from the simulated cluster:

- :class:`~repro.obs.registry.MetricsRegistry` collects counters, gauges
  and timeseries;
- :class:`~repro.obs.observer.RunObserver` implementations ride along
  simulated runs: :class:`~repro.obs.observer.TraceObserver` writes each
  run as a Chrome ``trace_event`` JSON (open in ``chrome://tracing`` or
  Perfetto), :class:`~repro.obs.observer.MetricsObserver` publishes run
  metrics into a registry;
- :func:`~repro.obs.export.write_metrics` dumps a registry as JSON
  lines.

Observability is off by default: a ``World`` without an observer
calls no hook, so unobserved runs are byte-identical to observed ones.
See ``docs/OBSERVABILITY.md`` for the hook-point map and file formats.
"""

from repro.obs.export import metrics_lines, write_metrics
from repro.obs.observer import (
    CompositeObserver,
    MetricsObserver,
    RunLabel,
    RunObserver,
    TraceObserver,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import (
    GearChange,
    render_chrome_trace,
    trace_events,
    write_chrome_trace,
)

__all__ = [
    "CompositeObserver",
    "GearChange",
    "MetricsObserver",
    "MetricsRegistry",
    "RunLabel",
    "RunObserver",
    "TraceObserver",
    "metrics_lines",
    "render_chrome_trace",
    "trace_events",
    "write_chrome_trace",
    "write_metrics",
]
