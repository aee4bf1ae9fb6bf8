"""Interconnect timing: latency/bandwidth and backplane contention."""

import pytest

from repro.cluster.network import FAST_ETHERNET, LinkSpec, NetworkModel
from repro.util.errors import ConfigurationError


def make_link(**overrides):
    base = dict(
        bandwidth=10e6,
        latency=100e-6,
        software_overhead=10e-6,
        memcpy_bandwidth=1e9,
        concurrency=None,
    )
    base.update(overrides)
    return LinkSpec(**base)


class TestLinkSpec:
    def test_fast_ethernet_is_100mbit_class(self):
        assert 10e6 <= FAST_ETHERNET.bandwidth <= 12.5e6
        assert FAST_ETHERNET.concurrency is not None

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(bandwidth=0.0),
            dict(latency=-1e-6),
            dict(memcpy_bandwidth=0.0),
            dict(concurrency=0),
        ],
    )
    def test_rejects_invalid(self, overrides):
        with pytest.raises(ConfigurationError):
            make_link(**overrides)


class TestTransferTime:
    def test_latency_plus_serialization(self):
        model = NetworkModel(make_link())
        assert model.transfer_time(10_000_000) == pytest.approx(100e-6 + 1.0)

    def test_same_node_is_memcpy(self):
        model = NetworkModel(make_link())
        assert model.transfer_time(1_000_000, same_node=True) == pytest.approx(1e-3)

    def test_zero_bytes_costs_latency_only(self):
        model = NetworkModel(make_link())
        assert model.transfer_time(0) == pytest.approx(100e-6)

    def test_rejects_negative_size(self):
        model = NetworkModel(make_link())
        with pytest.raises(ConfigurationError):
            model.transfer_time(-1)


class TestBackplaneContention:
    def test_unlimited_concurrency_never_queues(self):
        model = NetworkModel(make_link(concurrency=None))
        arrivals = [model.schedule_transfer(0.0, 1_000_000) for _ in range(10)]
        assert all(a == pytest.approx(arrivals[0]) for a in arrivals)

    def test_transfers_beyond_capacity_serialize(self):
        model = NetworkModel(make_link(concurrency=2))
        wire = 1_000_000 / 10e6  # 0.1 s per message
        arrivals = sorted(
            model.schedule_transfer(0.0, 1_000_000) for _ in range(4)
        )
        # Two at t=0, two queued behind them.
        assert arrivals[0] == pytest.approx(100e-6 + wire)
        assert arrivals[2] == pytest.approx(100e-6 + 2 * wire)

    def test_queued_counts_transfers_that_found_every_server_busy(self):
        model = NetworkModel(make_link(concurrency=1))
        wire = 1_000_000 / 10e6
        model.schedule_transfer(0.0, 1_000_000)
        # A server freed at the injection time serves it unqueued ...
        model.schedule_transfer(wire, 1_000_000)
        assert model.queued == 0
        # ... and a zero-byte transfer still needs a free server.
        assert model.schedule_transfer(wire, 0) == pytest.approx(2 * wire + 100e-6)
        assert model.queued == 1

    def test_spaced_injections_do_not_queue(self):
        model = NetworkModel(make_link(concurrency=1))
        a1 = model.schedule_transfer(0.0, 1_000_000)
        a2 = model.schedule_transfer(10.0, 1_000_000)
        assert a2 == pytest.approx(10.0 + 100e-6 + 0.1)

    def test_memcpy_ignores_backplane(self):
        model = NetworkModel(make_link(concurrency=1))
        model.schedule_transfer(0.0, 100_000_000)  # saturate the server
        local = model.schedule_transfer(0.0, 1_000_000, same_node=True)
        assert local == pytest.approx(1e-3)

    def test_all_pairs_scales_quadratically(self):
        # n*(n-1) fixed-size messages on a k-server backplane take
        # ~n^2/k wire periods: the physical origin of CG's quadratic
        # communication class.
        def wall(n):
            model = NetworkModel(make_link(concurrency=4))
            return max(
                model.schedule_transfer(0.0, 1_000_000)
                for _ in range(n * (n - 1))
            )

        t8, t16 = wall(8), wall(16)
        assert t16 / t8 == pytest.approx(4.0, rel=0.15)

    def test_endpoint_overhead_reported(self):
        model = NetworkModel(make_link())
        assert model.endpoint_overhead() == pytest.approx(10e-6)
