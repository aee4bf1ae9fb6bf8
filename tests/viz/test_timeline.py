"""Per-rank timeline reconstruction and rendering."""

import pytest

from repro.cluster.machines import athlon_cluster
from repro.mpi.world import World
from repro.obs import RunObserver
from repro.util.errors import ConfigurationError
from repro.viz.timeline import render_timeline, timeline_segments


@pytest.fixture(scope="module")
def imbalanced_result():
    # Rank 0 computes 1 s, rank 1 computes 2 s; both then exchange.
    def program(comm):
        yield from comm.compute(uops=2.6e9 * (comm.rank + 1))
        peer = 1 - comm.rank
        yield from comm.sendrecv(peer, peer, send_bytes=1000, tag=1)

    return World(
        athlon_cluster(), program, nodes=2, gear=1, observer=RunObserver()
    ).run()


class TestSegments:
    def test_cover_whole_run(self, imbalanced_result):
        for rank in (0, 1):
            segments = timeline_segments(imbalanced_result, rank)
            assert segments[0].start == 0.0
            assert segments[-1].end == pytest.approx(imbalanced_result.end_time)
            for a, b in zip(segments, segments[1:]):
                assert a.end == pytest.approx(b.start)

    def test_kinds_consistent_with_trace(self, imbalanced_result):
        segments = timeline_segments(imbalanced_result, 0)
        kinds = [s.kind for s in segments]
        assert kinds[0] == "compute"
        assert "mpi" in kinds  # rank 0 waits for rank 1

    def test_compute_total_matches_active_time(self, imbalanced_result):
        for rank_result in imbalanced_result.ranks:
            segments = timeline_segments(imbalanced_result, rank_result.rank)
            compute = sum(s.duration for s in segments if s.kind == "compute")
            assert compute == pytest.approx(rank_result.trace.active_time)

    def test_rejects_bad_rank(self, imbalanced_result):
        with pytest.raises(ConfigurationError):
            timeline_segments(imbalanced_result, 5)


class TestRendering:
    def test_one_strip_per_rank(self, imbalanced_result):
        out = render_timeline(imbalanced_result, width=40)
        lines = out.splitlines()
        assert len(lines) == 3  # header + 2 ranks
        assert "rank  0" in lines[1] and "rank  1" in lines[2]

    def test_glyphs_reflect_imbalance(self, imbalanced_result):
        out = render_timeline(imbalanced_result, width=60)
        rank0, rank1 = out.splitlines()[1:3]
        # Rank 1 computes twice as long: more '#' than rank 0.
        assert rank1.count("#") > rank0.count("#")
        # Rank 0 blocks waiting: plenty of '-'.
        assert rank0.count("-") > 5

    def test_active_percent_annotation(self, imbalanced_result):
        out = render_timeline(imbalanced_result)
        assert "% active" in out or "active" in out

    def test_rejects_tiny_width(self, imbalanced_result):
        with pytest.raises(ConfigurationError):
            render_timeline(imbalanced_result, width=4)
