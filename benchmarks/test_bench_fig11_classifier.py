"""Fig 11 — PDR lookup latency/throughput vs rule count.

These are *real measurements* of the three classifier data structures
over ClassBench-style rule sets with 20 PDI IEs.
"""

import pytest

from repro.experiments.fig11 import (
    CLASSIFIER_VARIANTS,
    build_classifier,
    cached_lookup_sweep,
    lookup_latency_sweep,
    update_latency,
)

SWEEP_COUNTS = (2, 10, 50, 100, 500, 1000)


@pytest.mark.parametrize("variant", list(CLASSIFIER_VARIANTS), ids=str)
@pytest.mark.parametrize("rules", [100, 1000], ids=lambda n: f"{n}rules")
def test_lookup(benchmark, variant, rules):
    """Per-variant, per-size lookup micro-benchmark."""
    classifier, keys = build_classifier(variant, rules)
    index = {"value": 0}

    def one_lookup():
        key = keys[index["value"] % len(keys)]
        index["value"] += 1
        return classifier.lookup(key)

    benchmark(one_lookup)


def test_fig11_latency_table(benchmark, table):
    rows = benchmark.pedantic(
        lookup_latency_sweep,
        kwargs={"rule_counts": SWEEP_COUNTS},
        rounds=1,
        iterations=1,
    )
    variants = list(CLASSIFIER_VARIANTS)
    table(
        "Fig 11(a): PDR lookup latency (us/lookup)",
        ["rules"] + variants,
        [
            tuple([row.rules] + [row.latency_s[v] * 1e6 for v in variants])
            for row in rows
        ],
    )
    table(
        "Fig 11(b): PDR lookup throughput (k lookups/s)",
        ["rules"] + variants,
        [
            tuple(
                [row.rules]
                + [row.throughput_pps(v) / 1e3 for v in variants]
            )
            for row in rows
        ],
    )
    large = next(row for row in rows if row.rules == 1000)
    # The paper's shape: PS best, TSS_Best flat, LL linear, TSS_Worst
    # off the chart.
    assert large.latency_s["PDR-PS"] <= large.latency_s["PDR-LL"]
    assert large.latency_s["PDR-TSS_Worst"] > 5 * large.latency_s["PDR-TSS_Best"]
    small = next(row for row in rows if row.rules == 2)
    assert small.latency_s["PDR-LL"] < 5 * small.latency_s["PDR-PS"]
    benchmark.extra_info["ps_speedup_over_ll_1k"] = (
        large.latency_s["PDR-LL"] / large.latency_s["PDR-PS"]
    )


def test_cached_lookup_ablation_table(benchmark, table):
    """Flow-cache ablation: the memoized probe vs the raw classifier,
    across rule counts (both real wall-clock measurements)."""
    rows = benchmark.pedantic(
        cached_lookup_sweep,
        kwargs={"rule_counts": SWEEP_COUNTS},
        rounds=1,
        iterations=1,
    )
    table(
        "Flow-cache ablation: PDR-PS lookup vs cached decision (us)",
        ["rules", "uncached_us", "cached_us", "speedup_x"],
        [
            (row.rules, row.uncached_s * 1e6, row.cached_s * 1e6, row.speedup)
            for row in rows
        ],
    )
    # The cached probe is O(1): roughly flat while the classifier walk
    # grows, so the gap must widen with the rule count.
    large = next(row for row in rows if row.rules == 1000)
    small = next(row for row in rows if row.rules == 2)
    assert large.speedup > 2.0
    assert large.speedup > small.speedup
    assert large.cached_s < 5 * small.cached_s
    benchmark.extra_info["cached_speedup_1k_rules"] = large.speedup


def test_pdr_update_table(benchmark, table):
    rows = benchmark.pedantic(update_latency, rounds=1, iterations=1)
    table(
        "§5.3: PDR update latency (us, 50 single-rule updates)",
        ["variant", "update_us", "insert_us"],
        [(row.variant, row.update_s * 1e6, row.insert_s * 1e6) for row in rows],
    )
    by_variant = {row.variant: row for row in rows}
    ll, ps = by_variant["PDR-LL"], by_variant["PDR-PS"]
    # Paper: LL 0.38 us < TSS 1.41 us < PS 6.14 us.  Here LL is cheapest
    # on the insert half; its remove-by-id scan puts a whole LL update
    # beside PS's logarithmic one, so those two are bounded, not ordered.
    assert ll.update_s < by_variant["PDR-TSS_Best"].update_s
    assert ll.insert_s < ps.insert_s
    assert ps.update_s < 4 * ll.update_s
