"""Shape tests for the event-coupled data-plane experiments
(Figs 12-14, Tables 1-2, §5.4.2)."""

import math

import pytest

from repro.cp.core5g import SystemConfig
from repro.experiments.fig12 import page_load_under_handovers
from repro.experiments.fig13 import paging_data_plane
from repro.experiments.fig14 import handover_data_plane
from repro.experiments.smart_buffering import (
    analytical_drops,
    analytical_one_way_delay,
    simulated_drops,
    smart_buffering_cases,
)


class TestFig13Table1:
    @pytest.fixture(scope="class")
    def observations(self):
        return {
            config.name: paging_data_plane(config)
            for config in (SystemConfig.free5gc(), SystemConfig.l25gc())
        }

    def test_base_rtt_anchors(self, observations):
        assert observations["free5gc"].base_rtt_s == pytest.approx(
            116e-6, rel=0.10
        )
        assert observations["l25gc"].base_rtt_s == pytest.approx(
            25e-6, rel=0.10
        )

    def test_paging_time_halved(self, observations):
        free = observations["free5gc"].paging_time_s
        l25gc = observations["l25gc"].paging_time_s
        assert free == pytest.approx(59e-3, rel=0.15)
        assert l25gc == pytest.approx(28e-3, rel=0.15)
        assert free / l25gc == pytest.approx(2.0, rel=0.15)

    def test_rtt_after_paging_tracks_event(self, observations):
        for observation in observations.values():
            assert observation.rtt_after_paging_s == pytest.approx(
                observation.paging_time_s, rel=0.15
            )

    def test_elevated_packet_counts(self, observations):
        """Table 1: ~608 vs ~294 packets see elevated RTT at 10 Kpps."""
        free = observations["free5gc"].elevated_packets
        l25gc = observations["l25gc"].elevated_packets
        assert 450 <= free <= 700
        assert 230 <= l25gc <= 350
        assert free > 1.7 * l25gc

    def test_no_drops_with_3k_buffer(self, observations):
        for observation in observations.values():
            assert observation.dropped == 0

    def test_series_nonempty(self, observations):
        for observation in observations.values():
            assert len(observation.series) > 1000


class TestFig14Table2:
    @pytest.fixture(scope="class")
    def single(self):
        return {
            config.name: handover_data_plane(config, concurrent_sessions=1)
            for config in (SystemConfig.free5gc(), SystemConfig.l25gc())
        }

    @pytest.fixture(scope="class")
    def multi(self):
        return {
            config.name: handover_data_plane(config, concurrent_sessions=4)
            for config in (SystemConfig.free5gc(), SystemConfig.l25gc())
        }

    def test_ho_time_anchors(self, single):
        assert single["free5gc"].handover_time_s == pytest.approx(
            227e-3, rel=0.10
        )
        assert single["l25gc"].handover_time_s == pytest.approx(
            130e-3, rel=0.10
        )

    def test_rtt_after_ho_shape(self, single):
        """RTT after HO is close to (and driven by) the HO duration,
        and L25GC's is ~1.7-1.9x lower (242 vs 132 ms in the paper)."""
        free = single["free5gc"].rtt_after_handover_s
        l25gc = single["l25gc"].rtt_after_handover_s
        assert free > 1.5 * l25gc
        assert free == pytest.approx(
            single["free5gc"].handover_time_s, rel=0.20
        )

    def test_elevated_counts_expt_i(self, single):
        """~2301 vs ~1437, i.e. ~860 more packets buffered in free5GC."""
        free = single["free5gc"].elevated_packets
        l25gc = single["l25gc"].elevated_packets
        assert 1800 <= free <= 2600
        assert 1000 <= l25gc <= 1600
        assert 600 <= free - l25gc <= 1300

    def test_expt_i_no_drops(self, single):
        for observation in single.values():
            assert observation.dropped == 0

    def test_multisession_base_rtt(self, multi):
        """Expt ii: 425 us vs 39 us base RTT under 4 sessions."""
        assert multi["free5gc"].base_rtt_s == pytest.approx(425e-6, rel=0.15)
        assert multi["l25gc"].base_rtt_s == pytest.approx(39e-6, rel=0.15)

    def test_expt_ii_shared_buffer_drops(self, multi):
        """Table 2: free5GC drops (43 in the paper); L25GC none."""
        assert multi["free5gc"].dropped > 0
        assert multi["free5gc"].dropped < 200
        assert multi["l25gc"].dropped == 0

    def test_expt_ii_more_elevated_than_expt_i(self, single, multi):
        assert (
            multi["free5gc"].elevated_packets
            >= single["free5gc"].elevated_packets
        )


class TestShortRunRegressions:
    """Degenerate measurement windows must degrade, not crash.

    Both fig13 and fig14 take a percentile over ``series.window(...)``;
    with a zero-length warmup (or a handover at t=0) that window is
    empty and the base RTT is an absent statistic (nan), which in turn
    zeroes the elevated-packet count."""

    def test_fig13_zero_warmup(self):
        observation = paging_data_plane(
            SystemConfig.l25gc(), warmup=0.0, tail=0.15, rate_pps=1000
        )
        assert math.isnan(observation.base_rtt_s)
        assert observation.elevated_packets == 0
        assert observation.paging_time_s > 0
        assert len(observation.series) > 0

    def test_fig14_handover_at_zero(self):
        observation = handover_data_plane(
            SystemConfig.l25gc(),
            handover_at=0.0,
            run_until=0.3,
            rate_pps=1000,
        )
        assert math.isnan(observation.base_rtt_s)
        assert observation.elevated_packets == 0
        assert observation.handover_time_s > 0
        assert len(observation.series) > 0

    def test_fig14_handover_after_the_traffic(self):
        """Table 2's "RTT after" over an empty window is absent too."""
        observation = handover_data_plane(
            SystemConfig.l25gc(), handover_at=2.5, run_until=2.5
        )
        assert math.isnan(observation.rtt_after_handover_s)
        assert observation.handover_time_s > 0


class TestSmartBufferingEquations:
    def test_eq1_equal_buffers(self):
        """Case (i): both schemes lose ~800 packets."""
        assert analytical_drops(10_000, 0.130, 500) == 800

    def test_eq1_large_upf_buffer(self):
        """Case (ii): the 1500-packet UPF buffer loses nothing."""
        assert analytical_drops(10_000, 0.130, 1500) == 0

    def test_eq1_simulation_agrees(self):
        for queue in (100, 500, 1300, 1500):
            analytic = analytical_drops(10_000, 0.130, queue)
            simulated = simulated_drops(10_000, 0.130, queue)
            assert abs(simulated - analytic) <= 2

    def test_eq2_hairpin_penalty(self):
        """3GPP's hairpin adds two extra 10 ms propagation legs."""
        hairpin = analytical_one_way_delay(0.130, 0.010, hairpin=True)
        direct = analytical_one_way_delay(0.130, 0.010, hairpin=False)
        assert hairpin - direct == pytest.approx(0.020)

    def test_cases_table(self):
        cases = smart_buffering_cases()
        case_i = {row.scheme: row for row in cases["case-i"]}
        case_ii = {row.scheme: row for row in cases["case-ii"]}
        # Equal buffers: similar loss either way.
        assert case_i["3gpp-hairpin"].drops == case_i["l25gc-smart"].drops
        # Bigger UPF buffer: only the hairpin scheme still loses.
        assert case_ii["l25gc-smart"].drops == 0
        assert case_ii["3gpp-hairpin"].drops == pytest.approx(800, abs=50)
        for case in (case_i, case_ii):
            assert (
                case["3gpp-hairpin"].one_way_delay_s
                > case["l25gc-smart"].one_way_delay_s
            )


class TestFig12PageLoad:
    @pytest.fixture(scope="class")
    def comparison(self):
        return page_load_under_handovers()

    def test_stalls_derived_from_procedures(self, comparison):
        assert comparison.free5gc_stall_s > 0.20  # above the min RTO
        assert comparison.l25gc_stall_s < 0.20    # below the min RTO

    def test_plt_improvement_band(self, comparison):
        """The paper reports 12.5 %; our TCP model lands in the same
        direction at ~5-10 % (see EXPERIMENTS.md for the deviation)."""
        assert 0.04 <= comparison.plt_improvement <= 0.25

    def test_plt_magnitudes(self, comparison):
        """~32 s vs ~28 s in the paper's setup."""
        assert 20.0 <= comparison.l25gc.plt <= 35.0
        assert comparison.free5gc.plt > comparison.l25gc.plt

    def test_spurious_rtx_only_for_free5gc(self, comparison):
        assert comparison.free5gc.spurious_timeouts > 0
        assert comparison.free5gc.retransmissions > 300
        assert comparison.l25gc.spurious_timeouts == 0
        assert comparison.l25gc.retransmissions == 0

    def test_everything_transferred(self, comparison):
        assert (
            comparison.free5gc.bytes_transferred
            == comparison.l25gc.bytes_transferred
        )
