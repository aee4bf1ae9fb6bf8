"""Jacobi iteration workload."""

import pytest

from repro.core.run import run_workload
from repro.obs import RunObserver
from repro.workloads.jacobi import Jacobi


class TestJacobi:
    def test_runs_on_any_node_count(self, cluster):
        for n in (1, 3, 5, 7, 10):
            m = run_workload(cluster, Jacobi(scale=0.05), nodes=n, gear=1)
            assert m.time > 0

    def test_valid_counts_unrestricted(self):
        assert Jacobi(0.1).valid_node_counts(6) == [1, 2, 3, 4, 5, 6]

    def test_residual_converges(self, cluster):
        w = Jacobi(scale=0.1)
        m = run_workload(cluster, w, nodes=2, gear=1)
        final = m.result.return_values()[0]
        # Per-rank residuals (1.0 and 2.0) each decay by 0.97 every
        # iteration; the allreduce sums the current locals.
        expected = (1.0 + 2.0) * 0.97 ** w.spec.iterations
        assert final == pytest.approx(expected, rel=1e-9)

    def test_interior_ranks_exchange_two_halos(self, cluster):
        m = run_workload(
            cluster, Jacobi(scale=0.05), nodes=4, gear=1, observer=RunObserver()
        )
        w = Jacobi(scale=0.05)
        counts = {
            r.rank: r.trace.message_stats()[0] for r in m.result.ranks
        }
        # Boundary ranks send one halo per iteration, interior two
        # (allreduce messages are nested inside the collective records).
        assert counts[0] == w.spec.iterations
        assert counts[1] == 2 * w.spec.iterations

    def test_memory_bound_enough_for_case3(self, cluster):
        # Jacobi's stall share puts its gear-2 delay well under the
        # cycle-time bound — the property that makes case 3 possible.
        t1 = run_workload(cluster, Jacobi(scale=0.05), nodes=1, gear=1).time
        t2 = run_workload(cluster, Jacobi(scale=0.05), nodes=1, gear=2).time
        assert t2 / t1 < 1.06  # far below 2000/1800 = 1.111
