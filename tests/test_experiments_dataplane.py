"""Shape tests for the data-plane experiments (Figs 10-11 + 40G)."""

import pytest

from repro.classifier import Rule
from repro.classifier.partition_sort import _SortableRuleset
from repro.classifier.tss import _SubTable
from repro.experiments.fig10 import (
    BURST_SIZES,
    PACKET_SIZES,
    burst_scaling,
    latency_vs_packet_size,
    line_rate_pps,
    scaling_40g,
    throughput_vs_packet_size,
)
from repro.experiments.fig11 import build_classifier


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


FIG11_RULE_COUNTS = (10, 100, 1000)


def lookup_work(variant, rule_count, count):
    """One Fig 11 point, counted instead of timed: the classifier and
    the calls ``count`` sees over its 256-key trace.  Host time for the
    same points is ``benchmarks/test_bench_fig11_classifier.py``."""
    classifier, keys = build_classifier(variant, rule_count)
    assert len(keys) == 256
    count.calls = 0
    assert all(classifier.lookup(key) is not None for key in keys)
    return classifier, count.calls


class TestFig11:
    def test_linear_grows_linearly(self, count_calls):
        """PDR-LL evaluates 7.91 / 76.48 / 745.12 rules per lookup."""
        matches = count_calls(Rule, "matches")
        evaluated = [
            lookup_work("PDR-LL", count, matches)[1]
            for count in FIG11_RULE_COUNTS
        ]
        assert evaluated == [2025, 19580, 190751]

    def test_tss_best_flat(self, count_calls):
        """One sub-table, one hash probe per lookup, at every size."""
        probe = count_calls(_SubTable, "lookup")
        for count in FIG11_RULE_COUNTS:
            classifier, probes = lookup_work("PDR-TSS_Best", count, probe)
            assert (classifier.num_subtables, probes) == (1, 256)

    def test_tss_worst_explodes(self, count_calls):
        """PDR-TSS_Worst leaves the chart by ~100 rules (Fig 11a): a
        sub-table per rule, 3.0 / 10.95 / 349.65 probes per lookup
        against PDR-TSS_Best's one."""
        probe = count_calls(_SubTable, "lookup")
        probed = []
        for count in FIG11_RULE_COUNTS:
            classifier, probes = lookup_work("PDR-TSS_Worst", count, probe)
            assert classifier.num_subtables == count
            probed.append(probes)
        assert probed == [768, 2803, 89510]

    def test_partition_sort_best_at_scale(self, count_calls):
        """PDR-PS holds 2 / 2 / 3 sortable partitions, each answered by
        one binary search: at most 5 / 11 / 18 head comparisons per
        lookup where PDR-LL evaluates up to every rule."""
        search = count_calls(_SortableRuleset, "lookup")
        shape = []
        for count in FIG11_RULE_COUNTS:
            classifier, searches = lookup_work("PDR-PS", count, search)
            partitions = classifier._partitions
            assert 256 <= searches <= 256 * len(partitions)
            # A binary search over n slots compares floor(log2 n) + 1
            # heads, which is n.bit_length().
            shape.append(
                (
                    len(partitions),
                    sum(len(p.slots).bit_length() for p in partitions),
                )
            )
        assert shape == [(2, 5), (2, 11), (3, 18)]

    def test_crossover_ll_beats_structures_when_tiny(self, count_calls):
        """With 2 PDRs per session, the linear list is competitive
        (the paper: 'PDR-LL may be acceptable'): a lookup evaluates at
        most both rules."""
        _, evaluated = lookup_work("PDR-LL", 2, count_calls(Rule, "matches"))
        assert 256 <= evaluated <= 2 * 256

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
