"""NAS suite: runnability, UPM fingerprints, structural properties."""

import pytest

from repro.core.run import run_workload
from repro.obs import RunObserver
from repro.workloads.nas import (
    BT,
    CG,
    EP,
    FT,
    IS,
    LU,
    MG,
    SP,
    NAS_PAPER_SUITE,
    nas_suite,
)

#: Paper Table 1 UPM values.
PAPER_UPM = {"EP": 844.0, "BT": 79.6, "LU": 73.5, "MG": 70.6, "SP": 49.5, "CG": 8.60}

ALL = (BT, CG, EP, FT, IS, LU, MG, SP)


class TestSuiteFactory:
    def test_paper_suite_names(self):
        assert NAS_PAPER_SUITE == ("EP", "BT", "LU", "MG", "SP", "CG")

    def test_nas_suite_order_and_content(self):
        names = [w.name for w in nas_suite(0.1)]
        assert names == list(NAS_PAPER_SUITE)

    def test_include_excluded(self):
        names = [w.name for w in nas_suite(0.1, include_excluded=True)]
        assert names[-2:] == ["FT", "IS"]


class TestUPMFingerprints:
    @pytest.mark.parametrize("name", sorted(PAPER_UPM))
    def test_measured_upm_matches_table1(self, cluster, name):
        workload = {w.name: w for w in nas_suite(0.1)}[name]
        m = run_workload(cluster, workload, nodes=1, gear=1)
        assert m.upm == pytest.approx(PAPER_UPM[name], rel=1e-6)

    def test_upm_invariant_across_gears(self, cluster):
        # The paper chose UPM precisely because it does not change with
        # frequency, unlike IPC or misses/second.
        cg = CG(scale=0.1)
        upms = {
            g: run_workload(cluster, cg, nodes=1, gear=g).upm for g in (1, 3, 6)
        }
        assert max(upms.values()) == pytest.approx(min(upms.values()), rel=1e-9)

    def test_upm_invariant_across_node_counts(self, cluster):
        lu = LU(scale=0.1)
        one = run_workload(cluster, lu, nodes=1, gear=1).upm
        four = run_workload(cluster, lu, nodes=4, gear=1).upm
        assert one == pytest.approx(four, rel=1e-6)


class TestNodeCountRules:
    @pytest.mark.parametrize("cls", [CG, MG, LU, EP, FT, IS])
    def test_power_of_two_codes(self, cls):
        assert cls(0.1).valid_node_counts(10) == [1, 2, 4, 8]

    @pytest.mark.parametrize("cls", [BT, SP])
    def test_square_codes(self, cls):
        assert cls(0.1).valid_node_counts(10) == [1, 4, 9]


class TestRunnability:
    @pytest.mark.parametrize("cls", ALL)
    def test_single_node(self, cluster, cls):
        m = run_workload(cluster, cls(scale=0.05), nodes=1, gear=1)
        assert m.time > 0 and m.energy > 0

    @pytest.mark.parametrize("cls", [CG, MG, LU, EP, FT, IS])
    def test_multi_node_pow2(self, cluster, cls):
        m = run_workload(cluster, cls(scale=0.05), nodes=4, gear=3)
        assert m.time > 0

    @pytest.mark.parametrize("cls", [BT, SP])
    def test_multi_node_square(self, cluster, cls):
        m = run_workload(cluster, cls(scale=0.05), nodes=9, gear=2)
        assert m.time > 0

    def test_ft_works_despite_paper_exclusion(self, cluster):
        # The paper could not get FT to run; ours must.
        m = run_workload(cluster, FT(scale=0.1), nodes=8, gear=1)
        assert m.time > 0
        # Checksum flows through the allreduce on every rank.
        values = m.result.return_values()
        assert all(v == values[0] for v in values)


class TestStructuralProperties:
    def test_ep_has_negligible_communication(self, cluster):
        m = run_workload(cluster, EP(scale=0.1), nodes=8, gear=1)
        assert m.idle_time / m.time < 0.02

    def test_cg_message_count_grows_all_pairs(self, cluster):
        cg = CG(scale=0.1)
        counts = {}
        for n in (2, 4, 8):
            m = run_workload(cluster, cg, nodes=n, gear=1, observer=RunObserver())
            counts[n], _ = m.result.ranks[0].trace.message_stats()
        # Per-rank sends scale with the peer count.
        assert counts[8] > counts[4] > counts[2]
        assert counts[8] / counts[2] > 3.0

    def test_lu_messages_more_but_smaller(self, cluster):
        # The paper on LU: "each node sends more messages, but the
        # average message size decreases."
        lu = LU(scale=0.1)
        stats = {}
        for n in (2, 8):
            m = run_workload(cluster, lu, nodes=n, gear=1, observer=RunObserver())
            count, total = m.result.ranks[0].trace.message_stats()
            stats[n] = (count, total / count)
        assert stats[8][0] > stats[2][0]  # more messages
        assert stats[8][1] < stats[2][1]  # smaller on average

    def test_is_has_no_parallel_speedup(self, cluster):
        # The paper's reason for excluding IS: class B is too small.
        is_ = IS(scale=0.3)
        t1 = run_workload(cluster, is_, nodes=1, gear=1).time
        t4 = run_workload(cluster, is_, nodes=4, gear=1).time
        assert t1 / t4 < 1.6  # nowhere near a speedup of 4

    def test_jacobi_residual_reduces_identically(self, cluster):
        from repro.workloads.jacobi import Jacobi

        m = run_workload(cluster, Jacobi(scale=0.1), nodes=4, gear=1)
        values = m.result.return_values()
        assert all(v == pytest.approx(values[0]) for v in values)
