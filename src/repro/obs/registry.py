"""The metrics registry: counters, gauges, and timeseries.

:class:`MetricsRegistry` is the sink
:class:`~repro.obs.observer.MetricsObserver` fills from each finished
run's result — per-run counters, gear changes and sampled power.  The
simulator itself publishes nothing, so a run without an observer pays
nothing for it.

Three metric kinds, all keyed by dotted string names:

- **counter** — a monotonically accumulated float (``inc``);
- **gauge** — a last-write-wins float (``set_gauge``);
- **timeseries** — an append-only list of ``(time, value)`` samples in
  simulated seconds (``observe``).

Export order is deterministic (names sorted), so two identical runs
produce byte-identical dumps.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.util.errors import ConfigurationError


class MetricsRegistry:
    """An in-memory store of counters, gauges, and timeseries."""

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._series: dict[str, list[tuple[float, float]]] = {}

    # ------------------------------------------------------------------
    # Publishing

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``name`` (created at zero)."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {name!r}: cannot increment by negative {amount}"
            )
        self._counters[name] = self._counters.get(name, 0.0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self._gauges[name] = float(value)

    def observe(self, name: str, time: float, value: float) -> None:
        """Append one ``(time, value)`` sample to timeseries ``name``."""
        self._series.setdefault(name, []).append((float(time), float(value)))

    # ------------------------------------------------------------------
    # Reading

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0.0 if never incremented)."""
        return self._counters.get(name, 0.0)

    def gauge(self, name: str) -> float | None:
        """Current value of gauge ``name``, or None if never set."""
        return self._gauges.get(name)

    def series(self, name: str) -> list[tuple[float, float]]:
        """Samples of timeseries ``name`` (empty list if never observed)."""
        return list(self._series.get(name, []))

    def names(self) -> dict[str, list[str]]:
        """All metric names by kind, each list sorted."""
        return {
            "counters": sorted(self._counters),
            "gauges": sorted(self._gauges),
            "series": sorted(self._series),
        }

    def snapshot(self) -> dict[str, Any]:
        """The whole registry as plain, deterministically-ordered data."""
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
            "series": {
                k: [[t, v] for t, v in self._series[k]]
                for k in sorted(self._series)
            },
        }

    def merge(self, others: Iterable["MetricsRegistry"]) -> None:
        """Fold other registries in: counters add, gauges overwrite,
        series concatenate (in the order given)."""
        for other in others:
            for name, value in other._counters.items():
                self._counters[name] = self._counters.get(name, 0.0) + value
            self._gauges.update(other._gauges)
            for name, samples in other._series.items():
                self._series.setdefault(name, []).extend(samples)

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._series)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MetricsRegistry {len(self._counters)} counters, "
            f"{len(self._gauges)} gauges, {len(self._series)} series>"
        )
