"""Tests for the ClassBench-style PDR generator."""

import pytest

from repro.classifier import (
    ClassBenchGenerator,
    PROFILE_BEST,
    PROFILE_MIXED,
    PROFILE_WORST,
)


class TestGeneration:
    def test_deterministic_per_seed(self):
        a = ClassBenchGenerator(seed=5).rules(50)
        b = ClassBenchGenerator(seed=5).rules(50)
        assert [rule.ranges for rule in a] == [rule.ranges for rule in b]

    def test_different_seeds_differ(self):
        a = ClassBenchGenerator(seed=5).rules(50)
        b = ClassBenchGenerator(seed=6).rules(50)
        assert [rule.ranges for rule in a] != [rule.ranges for rule in b]

    def test_priorities_unique(self):
        rules = ClassBenchGenerator(seed=1).rules(200)
        priorities = [rule.priority for rule in rules]
        assert len(set(priorities)) == len(priorities)

    def test_rule_ids_sequential(self):
        rules = ClassBenchGenerator(seed=1).rules(10)
        assert [rule.rule_id for rule in rules] == list(range(1, 11))

    def test_unknown_profile_raises(self):
        with pytest.raises(ValueError):
            ClassBenchGenerator(profile="chaotic")

    def test_invalid_template_count(self):
        with pytest.raises(ValueError):
            ClassBenchGenerator(num_templates=0)

    def test_all_ranges_prefix_expressible(self):
        """TSS requires prefix signatures for every profile."""
        for profile in (PROFILE_MIXED, PROFILE_BEST, PROFILE_WORST):
            rules = ClassBenchGenerator(seed=2, profile=profile).rules(100)
            for rule in rules:
                assert None not in rule.tuple_signature()

    def test_mixed_bounded_signatures(self):
        generator = ClassBenchGenerator(
            seed=3, profile=PROFILE_MIXED, num_templates=8
        )
        signatures = {
            rule.tuple_signature() for rule in generator.rules(400)
        }
        assert len(signatures) <= 8

    def test_best_single_signature(self):
        signatures = {
            rule.tuple_signature()
            for rule in ClassBenchGenerator(seed=3, profile=PROFILE_BEST).rules(64)
        }
        assert len(signatures) == 1

    def test_worst_all_distinct_signatures(self):
        rules = ClassBenchGenerator(seed=3, profile=PROFILE_WORST).rules(200)
        signatures = {rule.tuple_signature() for rule in rules}
        assert len(signatures) == 200


class TestTraces:
    def test_matching_keys_match(self):
        generator = ClassBenchGenerator(seed=4)
        rules = generator.rules(50)
        for key in generator.matching_keys(rules, 100):
            assert any(rule.matches(key) for rule in rules)
