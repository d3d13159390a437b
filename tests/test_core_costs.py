"""Tests for the calibrated cost model — the paper's headline ratios."""

import pytest

from repro.core import DEFAULT_COSTS, Channel, CostModel


class TestChannelCosts:
    def test_sbi_speedup_is_about_13x(self):
        """Fig 9: shared memory beats HTTP by ~13x per message."""
        http = DEFAULT_COSTS.message_cost(Channel.HTTP_JSON)
        shm = DEFAULT_COSTS.message_cost(Channel.SHARED_MEMORY)
        assert 11.0 <= http / shm <= 16.0

    def test_serialization_ordering(self):
        """JSON > FlatBuffers/Protobuf > shared memory (zero)."""
        costs = DEFAULT_COSTS
        json_total = costs.serialize_cost(
            Channel.HTTP_JSON
        ) + costs.deserialize_cost(Channel.HTTP_JSON)
        proto_total = costs.serialize_cost(
            Channel.HTTP_PROTOBUF
        ) + costs.deserialize_cost(Channel.HTTP_PROTOBUF)
        flat_total = costs.serialize_cost(
            Channel.HTTP_FLATBUFFERS
        ) + costs.deserialize_cost(Channel.HTTP_FLATBUFFERS)
        shm_total = costs.serialize_cost(
            Channel.SHARED_MEMORY
        ) + costs.deserialize_cost(Channel.SHARED_MEMORY)
        assert json_total > proto_total > shm_total
        assert json_total > flat_total > shm_total
        assert shm_total == 0.0

    def test_flatbuffers_deserialize_near_zero(self):
        """Fig 6: FlatBuffers' decode is almost free; encode is not."""
        costs = DEFAULT_COSTS
        assert costs.flatbuffers_deserialize < costs.flatbuffers_serialize / 5

    def test_optimized_serialization_alone_insufficient(self):
        """Fig 6's argument: even FlatBuffers over kernel sockets costs
        far more than shared memory, because the protocol stack remains."""
        flat = DEFAULT_COSTS.message_cost(Channel.HTTP_FLATBUFFERS)
        shm = DEFAULT_COSTS.message_cost(Channel.SHARED_MEMORY)
        assert flat > 5 * shm

    @pytest.mark.parametrize("channel", list(Channel))
    def test_message_cost_is_the_sum_of_its_parts(self, channel):
        """The bus memoizes ``message_cost``; the three readable parts
        (Fig 6/9 call them directly) must add up to it exactly."""
        for costs in (DEFAULT_COSTS, DEFAULT_COSTS.scaled(copy_per_byte=3e-9)):
            for size in (0, 64, 256, 512, 768, 1024, 1500, 1 << 20):
                assert costs.message_cost(channel, size) == (
                    costs.serialize_cost(channel)
                    + costs.protocol_cost(channel, size)
                    + costs.deserialize_cost(channel)
                )

    def test_shared_memory_has_no_copies(self):
        small = DEFAULT_COSTS.protocol_cost(Channel.SHARED_MEMORY, 64)
        large = DEFAULT_COSTS.protocol_cost(Channel.SHARED_MEMORY, 64 << 20)
        assert small == large

    def test_kernel_channels_scale_with_size(self):
        small = DEFAULT_COSTS.protocol_cost(Channel.HTTP_JSON, 64)
        large = DEFAULT_COSTS.protocol_cost(Channel.HTTP_JSON, 1 << 20)
        assert large > small

    def test_pfcp_transport_reduction_moderate(self):
        """Fig 7: PFCP over shm is 21-39% faster including the handler."""
        costs = DEFAULT_COSTS
        handler = 450e-6
        udp = costs.message_cost(Channel.UDP_PFCP) + handler
        shm = costs.message_cost(Channel.SHARED_MEMORY) + handler
        assert 0.15 <= 1 - shm / udp <= 0.45


class TestDataPlane:
    def test_forwarding_ratio_27x_at_68_bytes(self):
        """Fig 10(a): L25GC forwards 27x more 68-byte packets."""
        fast = DEFAULT_COSTS.forwarding_rate_pps(True, 68)
        slow = DEFAULT_COSTS.forwarding_rate_pps(False, 68)
        assert 24.0 <= fast / slow <= 30.0

    def test_l25gc_line_rate_small_packets(self):
        """One core pushes >= 10G line rate at 68 bytes (~14.9 Mpps)."""
        line_rate = 10e9 / (8 * (68 + 24))
        assert DEFAULT_COSTS.forwarding_rate_pps(True, 68) >= line_rate

    def test_mtu_scaling_to_40g(self):
        """§5.3: 1 core ~ 10G at MTU; 4 cores comfortably reach 40G."""
        one = DEFAULT_COSTS.forwarding_rate_pps(True, 1500, 1) * 1500 * 8
        four = DEFAULT_COSTS.forwarding_rate_pps(True, 1500, 4) * 1500 * 8
        assert one >= 10e9
        assert four >= 40e9

    def test_base_rtt_anchors(self):
        """Table 1: base RTT 116 us (free5GC) vs ~25 us (L25GC)."""
        kernel_rtt = 2 * (
            DEFAULT_COSTS.forward_latency(False) + DEFAULT_COSTS.lan_propagation
        )
        dpdk_rtt = 2 * (
            DEFAULT_COSTS.forward_latency(True) + DEFAULT_COSTS.lan_propagation
        )
        assert kernel_rtt == pytest.approx(116e-6, rel=0.05)
        assert dpdk_rtt == pytest.approx(25e-6, rel=0.10)

    def test_latency_ratio_about_15x(self):
        """Conclusion: ~15x latency improvement."""
        ratio = DEFAULT_COSTS.forward_latency(False) / DEFAULT_COSTS.forward_latency(True)
        assert 3.0 <= ratio <= 20.0

    def test_multisession_contention(self):
        """Table 2 expt ii: 4 sessions inflate the kernel base RTT ~3.7x
        but the poll-mode path only ~1.6x."""
        kernel = DEFAULT_COSTS.forward_latency(False, 4) / DEFAULT_COSTS.forward_latency(False, 1)
        dpdk = DEFAULT_COSTS.forward_latency(True, 4) / DEFAULT_COSTS.forward_latency(True, 1)
        assert kernel > dpdk
        assert kernel == pytest.approx(3.7, rel=0.05)
        assert dpdk == pytest.approx(1.6, rel=0.05)

    def test_buffer_reinject_kernel_much_slower(self):
        assert DEFAULT_COSTS.buffer_reinject(False) > 5 * DEFAULT_COSTS.buffer_reinject(True)

    def test_per_packet_cost_monotone_in_size(self):
        for fast in (True, False):
            costs = [
                DEFAULT_COSTS.per_packet_cost(fast, size)
                for size in (64, 128, 512, 1500)
            ]
            assert costs == sorted(costs)

    def test_cached_lookup_cheaper_than_full_pipeline(self):
        """The flow cache swaps the match walk for a single probe."""
        for fast in (True, False):
            for size in (68, 512, 1500):
                cached = DEFAULT_COSTS.cached_lookup(fast, size)
                full = DEFAULT_COSTS.per_packet_cost(fast, size)
                assert 0.0 < cached < full

    def test_cached_savings_larger_on_kernel_path(self):
        """free5GC's kernel match dwarfs the DPDK match, so memoizing
        it buys proportionally more headroom."""
        fast_gain = DEFAULT_COSTS.per_packet_cost(
            True, 256
        ) - DEFAULT_COSTS.cached_lookup(True, 256)
        slow_gain = DEFAULT_COSTS.per_packet_cost(
            False, 256
        ) - DEFAULT_COSTS.cached_lookup(False, 256)
        assert slow_gain > fast_gain > 0.0

    def test_cached_forwarding_rate_exceeds_uncached(self):
        for fast in (True, False):
            assert DEFAULT_COSTS.cached_forwarding_rate_pps(
                fast, 68
            ) > DEFAULT_COSTS.forwarding_rate_pps(fast, 68)

    def test_cached_lookup_floor_is_probe_cost(self):
        """Even if the saved match exceeded the base cost, the probe
        itself is never free."""
        tiny = DEFAULT_COSTS.scaled(dpdk_match_cost=10.0)
        assert tiny.cached_lookup(True, 68) >= tiny.flow_cache_probe

    def test_burst_cost_at_calibrated_size_is_exact(self):
        """The per-packet calibration already bakes in a 32-packet
        burst, so burst=32 must reproduce the headline cost exactly."""
        costs = DEFAULT_COSTS
        assert costs.calibrated_burst_size == 32
        for fast in (True, False):
            assert costs.burst_per_packet_cost(
                fast, 68, costs.calibrated_burst_size
            ) == costs.per_packet_cost(fast, 68)

    def test_burst_cost_monotone_in_burst_size(self):
        costs = DEFAULT_COSTS
        sweep = [
            costs.burst_per_packet_cost(True, 68, burst)
            for burst in (1, 4, 8, 16, 32, 64)
        ]
        assert sweep == sorted(sweep, reverse=True)
        assert sweep[0] > sweep[-1]

    def test_kernel_path_has_no_burst_lever(self):
        """free5GC's interrupt-driven path cannot amortize polls."""
        costs = DEFAULT_COSTS
        assert costs.burst_per_packet_cost(
            False, 68, 1
        ) == costs.burst_per_packet_cost(False, 68, 64)

    def test_burst_size_must_be_positive(self):
        with pytest.raises(ValueError):
            DEFAULT_COSTS.burst_per_packet_cost(True, 68, 0)

    def test_burst_forwarding_rate_consistent(self):
        costs = DEFAULT_COSTS
        rate = costs.burst_forwarding_rate_pps(True, 68, 8, cores=2)
        assert rate == pytest.approx(
            2.0 / costs.burst_per_packet_cost(True, 68, 8)
        )

    def test_oversized_burst_overhead_clamps_to_positive_floor(self):
        """Regression (ISSUE 9): a configured ``dpdk_burst_overhead``
        larger than the calibrated share drives the amortized cost
        negative at ``burst_size > calibrated_burst_size``; the cost
        must clamp to the positive floor instead of letting the rate
        divide by <= 0."""
        costs = DEFAULT_COSTS
        # Large enough that the (1/burst - 1/calibrated) overhead term
        # exceeds the whole per-packet cost at burst 64.
        hostile = costs.scaled(
            dpdk_burst_overhead=1000.0
            * costs.per_packet_cost(True, 68)
            * costs.calibrated_burst_size
        )
        big_burst = costs.calibrated_burst_size * 2
        cost = hostile.burst_per_packet_cost(True, 68, big_burst)
        assert cost == hostile.min_per_packet_cost
        assert cost > 0.0
        rate = hostile.burst_forwarding_rate_pps(True, 68, big_burst)
        assert rate > 0.0
        assert rate == pytest.approx(1.0 / hostile.min_per_packet_cost)

    def test_burst_cost_floor_boundary(self):
        """At the exact overhead where the unclamped cost reaches the
        floor, clamped and unclamped agree; one epsilon above, the
        clamp engages (no discontinuity through zero)."""
        costs = DEFAULT_COSTS
        burst = costs.calibrated_burst_size * 2
        base = costs.per_packet_cost(True, 68)
        # overhead * (1/burst - 1/calibrated) == -(base - floor)
        share = 1.0 / burst - 1.0 / costs.calibrated_burst_size
        exact_overhead = (costs.min_per_packet_cost - base) / share
        at_floor = costs.scaled(dpdk_burst_overhead=exact_overhead)
        assert at_floor.burst_per_packet_cost(
            True, 68, burst
        ) == pytest.approx(at_floor.min_per_packet_cost)
        beyond = costs.scaled(dpdk_burst_overhead=exact_overhead * 2)
        assert beyond.burst_per_packet_cost(
            True, 68, burst
        ) == beyond.min_per_packet_cost


class TestCacheHierarchy:
    def test_hit_rate_curve(self):
        costs = DEFAULT_COSTS
        assert costs.cache_hit_rate(0, 1000) == 1.0
        assert costs.cache_hit_rate(1000, 1000) == 1.0
        assert costs.cache_hit_rate(2000, 1000) == pytest.approx(0.5)
        assert costs.cache_hit_rate(1_000_000, 1000) == pytest.approx(0.001)

    def test_state_latency_monotone_in_sessions(self):
        costs = DEFAULT_COSTS
        sweep = [
            costs.state_access_latency(n)
            for n in (1, 1_000, 100_000, 10_000_000)
        ]
        assert sweep == sorted(sweep)
        assert sweep[-1] > sweep[0]

    def test_hot_layout_cliffs_later_than_dict(self):
        """The LLC overflow point scales with bytes/session: the 64 B
        hot slab holds ~16x more sessions inside LLC than the ~1 KB
        dict layout, so at any count past the dict cliff the hot layout
        is strictly cheaper."""
        costs = DEFAULT_COSTS
        dict_cliff_sessions = costs.llc_size_bytes // costs.cold_session_bytes
        n = dict_cliff_sessions * 4
        assert costs.state_access_latency(
            n, hot_layout=True
        ) < costs.state_access_latency(n, hot_layout=False)
        # Inside L1 both layouts resolve at L1 latency: no delta.
        assert costs.state_access_latency(1, True) == pytest.approx(
            costs.state_access_latency(1, False)
        )

    def test_cache_aware_cost_anchored_at_one_session(self):
        """One resident session reproduces the calibrated per-packet
        cost exactly — the cache term only prices the *delta* from the
        single-session working set the calibration ran with."""
        costs = DEFAULT_COSTS
        for fast in (True, False):
            assert costs.cache_aware_per_packet_cost(
                fast, 68, 1
            ) == pytest.approx(costs.per_packet_cost(fast, 68))

    def test_cache_aware_rate_positive_and_cliffed(self):
        costs = DEFAULT_COSTS
        small = costs.cache_aware_forwarding_rate_pps(True, 68, 100)
        huge = costs.cache_aware_forwarding_rate_pps(True, 68, 10_000_000)
        assert small > huge > 0.0


class TestScaled:
    def test_scaled_overrides(self):
        derived = DEFAULT_COSTS.scaled(radio_sync=0.0)
        assert derived.radio_sync == 0.0
        assert DEFAULT_COSTS.radio_sync > 0.0
        assert derived.handler_processing == DEFAULT_COSTS.handler_processing

    def test_resiliency_anchors(self):
        """§5.5.1: detect < 0.5 ms, reroute 2 ms, replay 3 ms."""
        assert DEFAULT_COSTS.failure_detection < 0.5e-3
        assert DEFAULT_COSTS.reroute == pytest.approx(2e-3)
        assert DEFAULT_COSTS.replay == pytest.approx(3e-3)
        assert DEFAULT_COSTS.local_sync == pytest.approx(5e-6)
