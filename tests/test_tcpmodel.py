"""Tests for the TCP model and the page-load-time harness."""

import pytest

from repro.sim import MS, Environment
from repro.tcpmodel import (
    MIN_RTO,
    MSS,
    InterruptionKind,
    PageLoad,
    PathModel,
    Resource,
    TCPConnection,
    default_page,
)


def transfer(total_bytes, path=None, run_until=None, **path_kwargs):
    env = Environment()
    path = path or PathModel(**path_kwargs)
    connection = TCPConnection(env, path, total_bytes=total_bytes)
    env.process(connection.run())
    if run_until is None:
        env.run()
    else:
        env.run(until=run_until)
    return connection.stats


class TestPathModel:
    def test_share_divides_bandwidth(self):
        path = PathModel(bandwidth_bps=30e6, connections=6)
        assert path.share_bps == pytest.approx(5e6)

    def test_bdp(self):
        path = PathModel(bandwidth_bps=8e6, base_rtt=0.1, connections=1)
        assert path.bdp_bytes == pytest.approx(100_000)

    def test_queue_delay_zero_below_bdp(self):
        path = PathModel()
        assert path.queue_delay(path.bdp_bytes / 2) == 0.0

    def test_queue_delay_caps_at_capacity(self):
        path = PathModel()
        huge = path.queue_delay(path.bdp_bytes + 10 * path.queue_capacity_bytes)
        expected = 8 * path.queue_capacity_bytes / path.share_bps
        assert huge == pytest.approx(expected)

    def test_interruption_lookup(self):
        path = PathModel()
        path.add_interruption(start=1.0, duration=0.5)
        assert path.interruption_at(1.2) is not None
        assert path.interruption_at(0.9) is None
        assert path.interruption_at(1.5) is None  # end-exclusive


class TestTCPDynamics:
    def test_completes_and_accounts_all_bytes(self):
        stats = transfer(1 << 20)
        assert stats.completed_at is not None
        assert stats.bytes_acked == 1 << 20

    def test_throughput_near_line_rate(self):
        """A long transfer should achieve ~bottleneck bandwidth."""
        total = 15 << 20
        stats = transfer(total, bandwidth_bps=30e6, base_rtt=20 * MS)
        ideal = total * 8 / 30e6
        assert stats.completed_at < ideal * 1.25

    def test_slow_start_doubles(self):
        stats = transfer(4 << 20)
        cwnds = [cwnd for _t, cwnd in stats.cwnd_series[:3]]
        assert cwnds[1] == pytest.approx(cwnds[0] * 2)

    def test_no_retransmissions_on_clean_path(self):
        stats = transfer(4 << 20)
        assert stats.retransmissions == 0
        assert stats.spurious_timeouts == 0

    def test_short_stall_no_timeout(self):
        """A 96 ms stall stays under the 200 ms min RTO (L25GC)."""
        path = PathModel(bandwidth_bps=30e6, base_rtt=20 * MS)
        path.add_interruption(start=1.0, duration=0.096)
        stats = transfer(15 << 20, path=path)
        assert stats.spurious_timeouts == 0

    def test_long_stall_spurious_timeout(self):
        """A 463 ms stall exceeds the min RTO: spurious rtx + cwnd
        collapse, although no data was lost (free5GC's pathology)."""
        path = PathModel(bandwidth_bps=30e6, base_rtt=20 * MS)
        path.add_interruption(start=1.0, duration=0.463)
        stats = transfer(15 << 20, path=path)
        assert stats.spurious_timeouts >= 1
        assert stats.retransmissions > 0
        # cwnd collapsed to one segment at some point after the stall.
        assert any(cwnd == MSS for _t, cwnd in stats.cwnd_series)

    def test_dropped_interruption_forces_recovery(self):
        path = PathModel(bandwidth_bps=30e6, base_rtt=20 * MS)
        path.add_interruption(
            start=1.0, duration=0.4, kind=InterruptionKind.DROPPED
        )
        stats = transfer(15 << 20, path=path)
        assert stats.genuine_timeouts >= 1
        assert stats.bytes_acked == 15 << 20  # eventually recovers

    def test_rtt_series_reflects_stall(self):
        path = PathModel(bandwidth_bps=30e6, base_rtt=20 * MS)
        path.add_interruption(start=1.0, duration=0.15)
        stats = transfer(15 << 20, path=path)
        max_rtt = max(rtt for _t, rtt in stats.rtt_series)
        assert max_rtt > 0.15

    def test_min_rto_floor(self):
        env = Environment()
        connection = TCPConnection(env, PathModel(), total_bytes=1)
        assert connection.rto >= MIN_RTO

    def test_invalid_bytes(self):
        env = Environment()
        with pytest.raises(ValueError):
            TCPConnection(env, PathModel(), total_bytes=0)

    def test_goodput_windows(self):
        stats = transfer(8 << 20, bandwidth_bps=30e6, base_rtt=20 * MS)
        steady = stats.goodput_bps(0.5, stats.completed_at)
        assert steady > 15e6  # at least half the bottleneck

    def test_goodput_timeline_sums_to_total(self):
        stats = transfer(1 << 20)
        total = sum(size for _when, size in stats.delivery_series)
        assert total == pytest.approx(1 << 20, rel=0.01)

    def test_goodput_empty_window_raises(self):
        stats = transfer(1 << 20)
        with pytest.raises(ValueError):
            stats.goodput_bps(1.0, 1.0)


class TestPageLoad:
    def test_default_page_shape(self):
        page = default_page()
        images = [r for r in page if r.name.startswith("image")]
        assert len(images) == 6
        assert all(r.size_bytes == 15 << 20 for r in images)

    def test_page_load_completes(self):
        env = Environment()
        path = PathModel(bandwidth_bps=30e6, base_rtt=20 * MS)
        result = PageLoad(env, path).run()
        ideal = sum(r.size_bytes for r in default_page()) * 8 / 30e6
        assert result.plt >= ideal * 0.9
        assert result.plt <= ideal * 1.6
        assert result.bytes_transferred == sum(
            r.size_bytes for r in default_page()
        )

    def test_interruptions_slow_the_load(self):
        def plt(stall):
            env = Environment()
            path = PathModel(bandwidth_bps=30e6, base_rtt=20 * MS)
            for k in range(1, 20):
                path.add_interruption(start=2.0 * k, duration=stall)
            return PageLoad(env, path).run().plt

        assert plt(0.463) > plt(0.096)

    def test_small_resource_list(self):
        env = Environment()
        path = PathModel(bandwidth_bps=30e6, base_rtt=20 * MS)
        result = PageLoad(
            env, path, resources=[Resource("tiny.html", 1000)]
        ).run()
        assert result.plt < 1.0
