"""Shape tests for the data-plane experiments (Figs 10-11 + 40G)."""

import pytest

from repro.classifier import Rule
from repro.experiments.fig10 import (
    BURST_SIZES,
    PACKET_SIZES,
    burst_scaling,
    latency_vs_packet_size,
    line_rate_pps,
    scaling_40g,
    throughput_vs_packet_size,
)
from repro.experiments.fig11 import (
    build_classifier,
    lookup_latency_sweep,
    update_latency,
)


class TestFig10Throughput:
    @pytest.fixture(scope="class")
    def rows(self):
        return {row.size: row for row in throughput_vs_packet_size()}

    def test_all_sizes_swept(self, rows):
        assert set(rows) == set(PACKET_SIZES)

    def test_27x_at_68_bytes(self, rows):
        assert rows[68].uni_ratio == pytest.approx(27.0, rel=0.15)

    def test_l25gc_at_line_rate_small_packets(self, rows):
        expected = line_rate_pps(68) * 68 * 8 / 1e9
        assert rows[68].l25gc_uni_gbps == pytest.approx(expected, rel=0.01)

    def test_free5gc_improves_with_packet_size(self, rows):
        """Fig 10: kernel throughput (Gbps) grows with packet size as
        the fixed per-packet cost amortizes."""
        series = [rows[size].free5gc_uni_gbps for size in PACKET_SIZES]
        assert series == sorted(series)
        assert series[-1] > 2 * series[0]

    def test_bidirectional_not_worse_than_uni(self, rows):
        for row in rows.values():
            assert row.l25gc_bidir_gbps >= row.l25gc_uni_gbps * 0.99
            assert row.free5gc_bidir_gbps >= row.free5gc_uni_gbps * 0.99

    def test_l25gc_wins_everywhere(self, rows):
        for row in rows.values():
            assert row.l25gc_uni_gbps > row.free5gc_uni_gbps

    def test_two_cores_4x_at_1024(self):
        """§5.3: with 2 UPF cores, L25GC is ~4x free5GC at 1024 B."""
        rows = {
            row.size: row for row in throughput_vs_packet_size(cores=2)
        }
        ratio = rows[1024].l25gc_uni_gbps / rows[1024].free5gc_uni_gbps
        # free5GC stays single-core in the paper's comparison.
        single = {
            row.size: row for row in throughput_vs_packet_size(cores=1)
        }
        ratio = rows[1024].l25gc_uni_gbps / single[1024].free5gc_uni_gbps
        assert ratio == pytest.approx(4.0, rel=0.25)


class TestFig10Latency:
    def test_kernel_much_slower_and_l25gc_flat(self):
        rows = latency_vs_packet_size()
        for row in rows:
            assert row.free5gc_s > 4 * row.l25gc_s
        l25gc = [row.l25gc_s for row in rows]
        # "L25GC's latency remains relatively flat throughout".
        assert max(l25gc) < 2.0 * min(l25gc)


class Test40GScaling:
    def test_core_scaling_shape(self):
        rows = {row.cores: row.mtu_gbps for row in scaling_40g()}
        # 1 core ~ 10-15G, 2 cores ~ 26-28G, 4 cores at the 40G link.
        assert 10.0 <= rows[1] <= 15.0
        assert 24.0 <= rows[2] <= 30.0
        # 4 cores saturate the 40G link (payload rate minus framing).
        assert rows[4] >= 39.0


class TestFig11:
    @pytest.fixture(scope="class")
    def sweep(self):
        return lookup_latency_sweep(
            rule_counts=(10, 100, 1000),
            variants=("PDR-LL", "PDR-TSS_Best", "PDR-TSS_Worst", "PDR-PS"),
        )

    def test_linear_grows_linearly(self, sweep):
        by_rules = {row.rules: row.latency_s["PDR-LL"] for row in sweep}
        assert by_rules[1000] > 20 * by_rules[10]

    def test_tss_best_flat(self, sweep):
        by_rules = {row.rules: row.latency_s["PDR-TSS_Best"] for row in sweep}
        assert by_rules[1000] < 4 * by_rules[10]

    def test_tss_worst_explodes(self, sweep):
        """PDR-TSS_Worst leaves the chart by ~100 rules (Fig 11a)."""
        for row in sweep:
            if row.rules >= 100:
                assert (
                    row.latency_s["PDR-TSS_Worst"]
                    > 5 * row.latency_s["PDR-TSS_Best"]
                )

    def test_partition_sort_best_at_scale(self, sweep):
        large = next(row for row in sweep if row.rules == 1000)
        ps = large.latency_s["PDR-PS"]
        assert ps <= large.latency_s["PDR-LL"]
        assert ps <= large.latency_s["PDR-TSS_Worst"]
        # Highest throughput of all variants (Fig 11b).
        assert large.throughput_pps("PDR-PS") >= max(
            large.throughput_pps(name)
            for name in ("PDR-LL", "PDR-TSS_Worst")
        )

    def test_crossover_ll_beats_structures_when_tiny(self, monkeypatch):
        """With 2 PDRs per session, the linear list is competitive
        (the paper: 'PDR-LL may be acceptable'): a lookup evaluates at
        most both rules.  Counted, not timed; the wall-clock ratio
        (LL < 5x PS at 2 rules) is asserted on the Fig 11 table in
        ``benchmarks/test_bench_fig11_classifier.py``."""
        classifier, keys = build_classifier("PDR-LL", 2)
        evaluated = []
        matches = Rule.matches

        def counting_matches(rule, key):
            evaluated.append(rule)
            return matches(rule, key)

        monkeypatch.setattr(Rule, "matches", counting_matches)
        assert all(classifier.lookup(key) is not None for key in keys)
        assert len(keys) <= len(evaluated) <= 2 * len(keys)

    def test_update_ordering(self):
        """LL cheapest, the structures the same order of magnitude
        (paper: 0.38 / 1.41 / 6.14 us).  LL < PS is asserted on the
        insert half, where the list only appends: LL's remove-by-id is
        a linear scan, which at 1000 rules costs about what a whole
        logarithmic PS update does."""
        rows = {row.variant: row for row in update_latency()}
        ll, tss, ps = (
            rows[name] for name in ("PDR-LL", "PDR-TSS_Best", "PDR-PS")
        )
        assert ll.update_s < tss.update_s
        assert ll.insert_s < ps.insert_s
        assert ps.update_s < 4 * ll.update_s

    def test_build_classifier_traces_match(self):
        classifier, keys = build_classifier("PDR-PS", 200)
        assert len(classifier) == 200
        hits = sum(1 for key in keys if classifier.lookup(key) is not None)
        assert hits == len(keys)


class TestBurstScaling:
    @pytest.fixture(scope="class")
    def rows(self):
        return {row.burst_size: row for row in burst_scaling()}

    def test_all_burst_sizes_swept(self, rows):
        assert set(rows) == set(BURST_SIZES)

    def test_calibrated_burst_reproduces_headline_rate(self, rows):
        from repro.core import DEFAULT_COSTS

        headline = DEFAULT_COSTS.forwarding_rate_pps(True, 68) / 1e6
        assert rows[DEFAULT_COSTS.calibrated_burst_size].l25gc_mpps == (
            pytest.approx(headline)
        )

    def test_l25gc_rate_climbs_with_burst(self, rows):
        rates = [rows[burst].l25gc_mpps for burst in sorted(rows)]
        assert rates == sorted(rates)
        assert rates[-1] > rates[0]

    def test_kernel_path_flat(self, rows):
        kernel = {rows[burst].free5gc_mpps for burst in rows}
        assert len(kernel) == 1
