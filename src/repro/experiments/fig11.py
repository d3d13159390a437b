"""Fig 11 — PDR lookup latency and throughput vs. rule count.

Unlike the DES-based figures, this experiment is a **real
measurement**: the three classifiers are actual data structures and we
time actual lookups over ClassBench-style PDR sets with 20 PDI IEs.
The paper's shape to reproduce:

* PDR-TSS_Best is flat (one hash probe) and beats PDR-LL beyond a few
  dozen rules;
* PDR-TSS_Worst degenerates (N probes) and leaves the chart by ~100
  rules;
* PDR-PS is the best across the sweep, both latency and throughput;
* updates: LL < TSS < PS in cost, but all within the same order
  (the paper: 0.38 / 1.41 / 6.14 us).

Absolute numbers are Python-speed, not C-speed; ratios and crossovers
are what the benchmarks assert.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..classifier.base import Classifier
from ..classifier.classbench import (
    PROFILE_BEST,
    PROFILE_MIXED,
    PROFILE_WORST,
    ClassBenchGenerator,
)
from ..classifier.linear import LinearClassifier
from ..classifier.partition_sort import PartitionSortClassifier
from ..classifier.rule import PacketKey
from ..classifier.tss import TupleSpaceClassifier
from ..up.flow_cache import FlowCache, RuleEpoch

__all__ = [
    "RULE_COUNTS",
    "LookupRow",
    "lookup_latency_sweep",
    "UpdateRow",
    "update_latency",
    "build_classifier",
    "CLASSIFIER_VARIANTS",
    "CachedLookupRow",
    "cached_lookup_sweep",
]

#: The swept rule-set sizes (the paper sweeps to several thousand).
RULE_COUNTS = (2, 10, 50, 100, 500, 1000, 2000)

#: Fig 11's lines: name -> (classifier class, generator profile).
CLASSIFIER_VARIANTS: Dict[str, tuple] = {
    "PDR-LL": (LinearClassifier, PROFILE_MIXED),
    "PDR-TSS_Best": (TupleSpaceClassifier, PROFILE_BEST),
    "PDR-TSS_Worst": (TupleSpaceClassifier, PROFILE_WORST),
    "PDR-PS": (PartitionSortClassifier, PROFILE_MIXED),
}


def build_classifier(
    variant: str, rule_count: int, seed: int = 7
) -> tuple:
    """(classifier, matching keys) for one Fig 11 data point."""
    classifier_class, profile = CLASSIFIER_VARIANTS[variant]
    generator = ClassBenchGenerator(seed=seed, profile=profile)
    rules = generator.rules(rule_count)
    if variant == "PDR-LL":
        # The paper assumes the match lands in the second half of the
        # list: drop keys matching the top half by construction of the
        # trace from low-priority rules only.
        by_priority = sorted(rules, key=lambda rule: -rule.priority)
        trace_rules = by_priority[len(by_priority) // 2 :]
    elif variant == "PDR-TSS_Worst":
        # Assume the match is in the last probed sub-table.
        trace_rules = rules[-max(1, rule_count // 10) :]
    else:
        trace_rules = rules
    keys = generator.matching_keys(trace_rules, 256)
    classifier = classifier_class()
    classifier.extend(rules)
    return classifier, keys


@dataclass
class LookupRow:
    """Mean lookup latency per variant at one rule count."""

    rules: int
    latency_s: Dict[str, float] = field(default_factory=dict)

    def throughput_pps(self, variant: str) -> float:
        return 1.0 / self.latency_s[variant]


def _time_lookups(classifier: Classifier, keys: Sequence[PacketKey]) -> float:
    begin = time.perf_counter()
    for key in keys:
        classifier.lookup(key)
    return (time.perf_counter() - begin) / len(keys)


def lookup_latency_sweep(
    rule_counts: Sequence[int] = RULE_COUNTS,
    variants: Sequence[str] = tuple(CLASSIFIER_VARIANTS),
    seed: int = 7,
) -> List[LookupRow]:
    """Fig 11(a)/(b): mean lookup latency per variant per rule count."""
    rows: List[LookupRow] = []
    for count in rule_counts:
        row = LookupRow(rules=count)
        for variant in variants:
            classifier, keys = build_classifier(variant, count, seed)
            row.latency_s[variant] = _time_lookups(classifier, keys)
        rows.append(row)
    return rows


@dataclass
class CachedLookupRow:
    """Flow-cache ablation at one rule count: steady-state hit vs the
    uncached classifier walk (both real, wall-clock measurements)."""

    rules: int
    uncached_s: float
    cached_s: float

    @property
    def speedup(self) -> float:
        return self.uncached_s / self.cached_s


def cached_lookup_sweep(
    rule_counts: Sequence[int] = RULE_COUNTS,
    variant: str = "PDR-PS",
    flows: int = 64,
    seed: int = 7,
) -> List[CachedLookupRow]:
    """The 5GC²ache ablation: memoized decision vs full classification.

    For each rule count, a :class:`~repro.up.flow_cache.FlowCache` is
    warmed with ``flows`` distinct packet keys (the steady-state
    working set) and the per-lookup latency of cache hits is measured
    against the same keys walking the raw classifier.  The gap is what
    the UPF-U fast path saves per steady-state packet; it widens with
    the rule count because the cached probe is O(1) while every
    classifier costs more as rules grow.
    """
    rows: List[CachedLookupRow] = []
    for count in rule_counts:
        classifier, keys = build_classifier(variant, count, seed)
        working_set = keys[:flows]
        cache = FlowCache(RuleEpoch(), capacity=max(flows * 2, 128))
        for key in working_set:
            cache.insert(key, None, classifier.lookup(key), None)
        # Interleave the working set the way steady-state traffic does.
        trace = [working_set[i % len(working_set)] for i in range(512)]
        begin = time.perf_counter()
        for key in trace:
            classifier.lookup(key)
        uncached = (time.perf_counter() - begin) / len(trace)
        begin = time.perf_counter()
        for key in trace:
            cache.lookup(key)
        cached = (time.perf_counter() - begin) / len(trace)
        rows.append(
            CachedLookupRow(rules=count, uncached_s=uncached, cached_s=cached)
        )
    return rows


@dataclass
class UpdateRow:
    """§5.3 'PDR update comparison': mean single-update latency, and
    its insert half alone (an update is one insert plus one remove)."""

    variant: str
    update_s: float
    insert_s: float


def update_latency(
    rule_count: int = 1000, updates: int = 50, seed: int = 11
) -> List[UpdateRow]:
    """Average latency of a single PDR update, repeated ``updates``
    times (the paper's methodology)."""
    rows: List[UpdateRow] = []
    for variant in ("PDR-LL", "PDR-TSS_Best", "PDR-PS"):
        classifier_class, profile = CLASSIFIER_VARIANTS[variant]
        generator = ClassBenchGenerator(seed=seed, profile=profile)
        rules = generator.rules(rule_count + updates)
        classifier = classifier_class()
        classifier.extend(rules[:rule_count])
        victims = rules[rule_count:]
        inserting = 0.0
        begin = time.perf_counter()
        for rule in victims:
            before = time.perf_counter()
            classifier.insert(rule)
            inserting += time.perf_counter() - before
            classifier.remove(rule)
        elapsed = time.perf_counter() - begin
        rows.append(
            UpdateRow(
                variant=variant,
                update_s=elapsed / (2 * updates),
                insert_s=inserting / updates,
            )
        )
    return rows
