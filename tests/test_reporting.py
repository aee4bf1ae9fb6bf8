"""JSON export of experiment results."""

import json

import pytest

from repro.reporting import (
    case_to_dict,
    curve_to_dict,
    family_to_dict,
    read_result,
    result_to_dict,
    write_result,
)
from repro.core.cases import classify_pair
from repro.core.curves import CurveFamily, CurvePoint, EnergyTimeCurve
from repro.util.errors import ConfigurationError


def curve(points, nodes=1, workload="CG"):
    return EnergyTimeCurve(
        workload=workload,
        nodes=nodes,
        points=tuple(CurvePoint(g, t, e) for g, t, e in points),
    )


SMALL = curve([(1, 10.0, 1000.0), (2, 10.2, 930.0)], nodes=4)
LARGE = curve([(1, 6.0, 1200.0), (2, 6.4, 950.0)], nodes=8)


class TestConverters:
    def test_curve_round_trip_values(self):
        d = curve_to_dict(SMALL)
        assert d["workload"] == "CG" and d["nodes"] == 4
        assert d["points"][1] == {"gear": 2, "time_s": 10.2, "energy_j": 930.0}

    def test_family(self):
        fam = CurveFamily(workload="CG", curves=(SMALL, LARGE))
        d = family_to_dict(fam)
        assert [c["nodes"] for c in d["curves"]] == [4, 8]

    def test_case(self):
        d = case_to_dict(classify_pair(SMALL, LARGE))
        assert d["case"] == "good"
        assert d["small_nodes"] == 4 and d["large_nodes"] == 8

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigurationError):
            result_to_dict(object())


class TestExperimentExports:
    def test_table1_export(self, table1_result):
        d = result_to_dict(table1_result)
        assert len(d["rows"]) == 6
        assert d["rows"][0]["workload"] == "EP"

    def test_figure1_export(self, figure1_result):
        d = result_to_dict(figure1_result)
        assert set(d["curves"]) == {"EP", "BT", "LU", "MG", "SP", "CG"}

    def test_figure2_export(self, figure2_result):
        d = result_to_dict(figure2_result)
        assert "families" in d and "cases" in d
        assert d["cases"]["CG"][-1]["case"] == "poor"

    def test_figure3_export(self, figure3_result):
        d = result_to_dict(figure3_result)
        assert "family" in d and "speedups" in d

    def test_figure5_export(self, figure5_result):
        d = result_to_dict(figure5_result)
        assert d["panels"]["CG"]["comm_class"] == "quadratic"
        assert 32 not in d["panels"]["CG"]["plotted"]

    def test_json_serializable(self, figure2_result):
        json.dumps(result_to_dict(figure2_result))


class TestFileIO:
    def test_write_and_read(self, tmp_path, table1_result):
        path = write_result(table1_result, tmp_path / "out" / "table1.json")
        assert path.exists()
        loaded = read_result(path)
        assert loaded["type"] == "Table1Result"
        assert len(loaded["rows"]) == 6


class TestHarnessStatusReporting:
    """Cache-stats and profile output is owned by reporting, not the CLI."""

    def test_render_cache_stats_is_bracketed(self):
        from repro.exec.cache import CacheStats
        from repro.reporting import render_cache_stats

        line = render_cache_stats(CacheStats())
        assert line.startswith("[cache:") and line.endswith("]")

    def test_emit_profile_writes_report_to_stream(self):
        import io

        from repro.exec import RunRecord
        from repro.reporting import emit_profile

        stream = io.StringIO()
        emit_profile(RunRecord(), stream=stream)
        assert "Executor profile" in stream.getvalue()
