"""Structured (JSON) export of experiment results.

Every experiment result object can be flattened to plain dictionaries —
curves as gear/time/energy rows, case analyses as labelled transitions —
so downstream tooling (notebooks, regression dashboards) can consume the
reproduction's numbers without importing the library.

The scheme is intentionally lossy-but-stable: only the quantities the
paper reports are exported, not simulator internals.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any

from repro.core.cases import CaseAnalysis
from repro.core.curves import CurveFamily, EnergyTimeCurve
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.exec.cache import CacheStats
    from repro.exec.record import RunRecord


def curve_to_dict(curve: EnergyTimeCurve) -> dict[str, Any]:
    """One curve as plain data."""
    return {
        "workload": curve.workload,
        "nodes": curve.nodes,
        "points": [
            {"gear": p.gear, "time_s": p.time, "energy_j": p.energy}
            for p in curve.points
        ],
    }


def curve_from_dict(data: dict[str, Any]) -> EnergyTimeCurve:
    """Rebuild a curve exported by :func:`curve_to_dict`."""
    from repro.core.curves import CurvePoint

    return EnergyTimeCurve(
        workload=data["workload"],
        nodes=data["nodes"],
        points=tuple(
            CurvePoint(gear=p["gear"], time=p["time_s"], energy=p["energy_j"])
            for p in data["points"]
        ),
    )


def family_to_dict(family: CurveFamily) -> dict[str, Any]:
    """One figure panel as plain data."""
    return {
        "workload": family.workload,
        "curves": [curve_to_dict(c) for c in family],
    }


def family_from_dict(data: dict[str, Any]) -> CurveFamily:
    """Rebuild a curve family exported by :func:`family_to_dict`."""
    return CurveFamily(
        workload=data["workload"],
        curves=tuple(curve_from_dict(c) for c in data["curves"]),
    )


def case_to_dict(analysis: CaseAnalysis) -> dict[str, Any]:
    """One 2P-vs-P classification as plain data."""
    return {
        "small_nodes": analysis.small_nodes,
        "large_nodes": analysis.large_nodes,
        "case": analysis.case.value,
        "speedup": analysis.speedup,
        "energy_ratio": analysis.energy_ratio,
        "dominating_gear": analysis.dominating_gear,
    }


def result_to_dict(result: Any) -> dict[str, Any]:
    """Flatten any experiment result object by structural dispatch."""
    out: dict[str, Any] = {"type": type(result).__name__}
    if hasattr(result, "curves") and isinstance(result.curves, dict):
        out["curves"] = {k: curve_to_dict(v) for k, v in result.curves.items()}
    if hasattr(result, "families"):
        out["families"] = {
            k: family_to_dict(v) for k, v in result.families.items()
        }
    if hasattr(result, "family") and isinstance(result.family, CurveFamily):
        out["family"] = family_to_dict(result.family)
    if hasattr(result, "cases"):
        cases = result.cases
        if isinstance(cases, dict):
            out["cases"] = {
                k: [case_to_dict(c) for c in v] for k, v in cases.items()
            }
        else:
            out["cases"] = [case_to_dict(c) for c in cases]
    if hasattr(result, "rows"):  # Table 1
        out["rows"] = [
            {
                "workload": r.workload,
                "upm": r.upm,
                "slope_1_2": r.slope_1_2,
                "slope_2_3": r.slope_2_3,
            }
            for r in result.rows
        ]
    if hasattr(result, "speedups"):
        out["speedups"] = {str(k): v for k, v in result.speedups.items()}
    if hasattr(result, "panels"):  # Figure 5
        out["panels"] = {
            name: {
                "comm_class": panel.model.comm.family.value,
                "fs_mean": panel.model.amdahl.fs_mean,
                "measured": family_to_dict(panel.measured),
                "predicted": [curve_to_dict(c) for c in panel.predicted],
                "plotted": [c.nodes for c in panel.plotted_predictions],
            }
            for name, panel in result.panels.items()
        }
    if hasattr(result, "grid"):  # policy zoo
        out["grid"] = [
            {
                "workload": c.workload,
                "policy": c.policy,
                "nodes": c.nodes,
                "time_s": c.time,
                "energy_j": c.energy,
                "edp": c.edp,
            }
            for c in result.grid
        ]
    if hasattr(result, "outcomes"):  # adaptive policies
        out["outcomes"] = {
            name: [
                {
                    "strategy": o.strategy,
                    "time_s": o.time,
                    "energy_j": o.energy,
                    "edp": o.edp,
                }
                for o in outcomes
            ]
            for name, outcomes in result.outcomes.items()
        }
    if len(out) == 1:
        raise ConfigurationError(
            f"don't know how to export a {type(result).__name__}"
        )
    return out


def render_cache_stats(stats: "CacheStats") -> str:
    """Cache counters as the runner's bracketed status line."""
    return f"[{stats.render()}]"


def emit_cache_stats(stats: "CacheStats", *, stream: IO[str] | None = None) -> None:
    """Print the cache-stats status line (the ``--cache-stats`` output).

    All harness status output funnels through here rather than bare
    ``print`` calls in the CLI, so the format is owned — and tested — in
    one place.
    """
    print(render_cache_stats(stats), file=stream or sys.stdout)


def emit_profile(record: "RunRecord", *, stream: IO[str] | None = None) -> None:
    """Print a run record's profile tables (the ``--profile`` output)."""
    print(record.render(), file=stream or sys.stdout)


def write_result(result: Any, path: str | Path) -> Path:
    """Serialize an experiment result to a JSON file; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result_to_dict(result), indent=2, sort_keys=True))
    return path


def read_result(path: str | Path) -> dict[str, Any]:
    """Load a previously exported result dictionary."""
    return json.loads(Path(path).read_text())
