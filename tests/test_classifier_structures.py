"""Tests for the three classifier implementations individually."""

import pytest

from repro.classifier import (
    ClassBenchGenerator,
    LinearClassifier,
    PartitionSortClassifier,
    Rule,
    TupleSpaceClassifier,
    exact,
    prefix,
    PDI_FIELDS,
)
from repro.classifier import partition_sort

from .test_classifier_rule import key_of

ALL_CLASSES = [LinearClassifier, TupleSpaceClassifier, PartitionSortClassifier]


@pytest.fixture(params=ALL_CLASSES, ids=lambda cls: cls.name)
def classifier(request):
    return request.param()


class TestCommonBehaviour:
    def test_empty_lookup_misses(self, classifier):
        assert classifier.lookup(key_of()) is None
        assert len(classifier) == 0

    def test_single_rule_hit_and_miss(self, classifier):
        rule = Rule.from_fields(priority=5, rule_id=1, dst_ip=exact(42))
        classifier.insert(rule)
        assert classifier.lookup(key_of(dst_ip=42)) is rule
        assert classifier.lookup(key_of(dst_ip=43)) is None

    def test_highest_priority_wins(self, classifier):
        low = Rule.from_fields(priority=1, rule_id=1, dst_ip=exact(42))
        high = Rule.from_fields(
            priority=9, rule_id=2, dst_ip=exact(42), protocol=exact(17)
        )
        classifier.insert(low)
        classifier.insert(high)
        key = key_of(dst_ip=42, protocol=17)
        assert classifier.lookup(key).rule_id == 2
        # A key not matching the specific rule falls to the general one.
        key2 = key_of(dst_ip=42, protocol=6)
        assert classifier.lookup(key2).rule_id == 1

    def test_remove(self, classifier):
        rule = Rule.from_fields(priority=1, rule_id=7, dst_ip=exact(1))
        classifier.insert(rule)
        assert classifier.remove(rule)
        assert classifier.lookup(key_of(dst_ip=1)) is None
        assert not classifier.remove(rule)
        assert len(classifier) == 0

    def test_update_replaces(self, classifier):
        old = Rule.from_fields(priority=1, rule_id=7, dst_ip=exact(1))
        new = Rule.from_fields(priority=1, rule_id=7, dst_ip=exact(2))
        classifier.insert(old)
        classifier.update(new)
        assert classifier.lookup(key_of(dst_ip=1)) is None
        assert classifier.lookup(key_of(dst_ip=2)) is new
        assert len(classifier) == 1

    def test_remove_by_id(self, classifier):
        generated = ClassBenchGenerator(seed=4).rules(30)
        classifier.extend(generated)
        victim = generated[17]
        assert classifier.remove_by_id(victim.rule_id)
        assert len(classifier) == 29
        assert all(
            rule.rule_id != victim.rule_id for rule in classifier.rules()
        )
        # A second removal of the same id — and an unknown id — both miss.
        assert not classifier.remove_by_id(victim.rule_id)
        assert not classifier.remove_by_id(10**9)
        assert len(classifier) == 29

    def test_remove_by_id_then_reinsert(self, classifier):
        rule = Rule.from_fields(priority=1, rule_id=3, dst_ip=exact(7))
        classifier.insert(rule)
        assert classifier.remove_by_id(3)
        classifier.insert(rule)
        assert classifier.lookup(key_of(dst_ip=7)) is rule

    def test_rules_snapshot(self, classifier):
        generated = ClassBenchGenerator(seed=1).rules(20)
        classifier.extend(generated)
        snapshot = classifier.rules()
        assert len(snapshot) == 20
        assert {rule.rule_id for rule in snapshot} == {
            rule.rule_id for rule in generated
        }


class TestTSSSpecifics:
    def test_single_signature_single_subtable(self):
        tss = TupleSpaceClassifier()
        tss.extend(ClassBenchGenerator(seed=2, profile="best").rules(100))
        assert len(tss._tables) == 1

    def test_worst_case_many_subtables(self):
        tss = TupleSpaceClassifier()
        tss.extend(ClassBenchGenerator(seed=2, profile="worst").rules(100))
        assert len(tss._tables) == 100

    def test_non_prefix_range_rejected(self):
        tss = TupleSpaceClassifier()
        with pytest.raises(ValueError):
            tss.insert(Rule.from_fields(dst_port=(5, 9)))

    def test_subtable_removed_when_empty(self):
        tss = TupleSpaceClassifier()
        rule = Rule.from_fields(priority=1, rule_id=1, dst_ip=exact(5))
        tss.insert(rule)
        assert len(tss._tables) == 1
        tss.remove(rule)
        assert len(tss._tables) == 0


class TestPartitionSortSpecifics:
    def test_few_partitions_for_template_rules(self):
        ps = PartitionSortClassifier()
        ps.extend(ClassBenchGenerator(seed=3).rules(500))
        # The paper's point: PartitionSort needs far fewer partitions
        # than TSS needs sub-tables.
        assert len(ps._partitions) <= 12

    def test_nested_intervals_split_partitions(self):
        """Nested (overlapping-unequal) ranges cannot share a sortable
        ruleset."""
        ps = PartitionSortClassifier()
        spec = PDI_FIELDS[0]
        outer = Rule.from_fields(
            priority=1, rule_id=1, src_ip=prefix(spec, 0x0A000000, 8)
        )
        inner = Rule.from_fields(
            priority=2, rule_id=2, src_ip=prefix(spec, 0x0A010000, 16)
        )
        ps.insert(outer)
        ps.insert(inner)
        assert len(ps._partitions) == 2
        # Both still findable; the more specific, higher-priority wins.
        key = key_of(src_ip=0x0A010203)
        assert ps.lookup(key).rule_id == 2

    def test_identical_ranges_share_slot(self):
        ps = PartitionSortClassifier()
        a = Rule.from_fields(priority=1, rule_id=1, dst_ip=exact(9))
        b = Rule.from_fields(priority=5, rule_id=2, dst_ip=exact(9))
        ps.insert(a)
        ps.insert(b)
        assert len(ps._partitions) == 1
        assert ps.lookup(key_of(dst_ip=9)).rule_id == 2
        ps.remove(b)
        assert ps.lookup(key_of(dst_ip=9)).rule_id == 1

    def test_live_dimensions_follow_the_fields_rules_name(self):
        """A partition probes only what some rule of it constrains."""
        teid, qfi, iface = 6, 7, 12
        order = (iface, teid, qfi) + tuple(
            d for d in range(len(PDI_FIELDS)) if d not in (iface, qfi, teid)
        )
        ps = PartitionSortClassifier(order)
        ps.insert(Rule.from_fields(
            priority=1, rule_id=1, teid=exact(7), source_iface=exact(0)))
        [partition] = ps._partitions
        assert partition.live == (iface, teid)  # in field_order
        # Same shape elsewhere: the very same tuple, not a copy.
        other = PartitionSortClassifier(order)
        other.insert(Rule.from_fields(
            priority=1, rule_id=1, teid=exact(9), source_iface=exact(0)))
        assert other._partitions[0].live is partition.live
        # A rule naming a so-far-wild field (ordered by its TEID before
        # the walk gets there) widens the partition ...
        narrow = Rule.from_fields(
            priority=2, rule_id=2, teid=exact(8), source_iface=exact(0),
            qfi=exact(5))
        ps.insert(narrow)
        assert len(ps._partitions) == 1
        assert partition.live == (iface, teid, qfi)
        assert ps.lookup(key_of(teid=8, qfi=5)) is narrow
        assert ps.lookup(key_of(teid=8, qfi=4)) is None
        # ... and its removal leaves the superset behind, harmlessly.
        ps.remove(narrow)
        assert partition.live == (iface, teid, qfi)
        assert ps.lookup(key_of(teid=7, qfi=63)).rule_id == 1

    def test_max_priority_follows_its_holders(self):
        """The partition's max (which prunes lookups) drops only when
        the last rule holding it leaves, and then to the right value."""

        def template(teid, priority):
            return Rule.from_fields(
                priority=priority, rule_id=teid, teid=exact(teid),
                source_iface=exact(0),
            )

        ps = PartitionSortClassifier()
        ps.extend(template(teid, priority)
                  for teid, priority in ((1, 9), (2, 9), (3, 5), (4, 5)))
        [partition] = ps._partitions
        assert (partition.max_priority, partition.max_holders) == (9, 2)
        ps.remove_by_id(1)
        assert (partition.max_priority, partition.max_holders) == (9, 1)
        ps.remove_by_id(2)
        assert (partition.max_priority, partition.max_holders) == (5, 2)
        ps.insert(template(5, 5))
        assert (partition.max_priority, partition.max_holders) == (5, 3)
        assert ps.lookup(key_of(teid=3)).rule_id == 3

    @pytest.mark.parametrize("shared_priority", [False, True])
    def test_update_cost_does_not_grow_with_the_partition(
        self, shared_priority, count_calls
    ):
        """Insert and remove stay logarithmic: 16x the rules add
        log2(16) = 4 rule comparisons to an update and no walk over the
        partition (a length recount or a max-priority rescan per
        update made it linear) -- also when every rule shares one
        priority, as same-precedence PDRs do, so each removed rule
        holds the partition's maximum.  Counted, not timed."""
        compared = count_calls(partition_sort, "_compare_rule")
        rescans = count_calls(partition_sort._SortableRuleset, "_rescan_max")
        walks = 0

        class WalkCountingSlots(list):
            def __iter__(self):
                nonlocal walks
                walks += 1
                return super().__iter__()

        def template(teid, priority, rule_id):
            return Rule.from_fields(
                priority=7 if shared_priority else priority,
                rule_id=rule_id, teid=exact(teid), source_iface=exact(0),
            )

        def comparisons(size, probes=256):
            ps = PartitionSortClassifier()
            ps.extend(template(2 * i, i + 1, i + 1) for i in range(size))
            [partition] = ps._partitions
            partition.slots = WalkCountingSlots(partition.slots)
            step = 2 * size // probes
            # Odd TEIDs spread over the whole order; below every stored
            # priority, or level with all of them, so no removal has to
            # look for a new maximum.
            extra = [
                template(step * j + 1, 0, size + 1 + j) for j in range(probes)
            ]
            compared.calls = 0
            for rule in extra:
                ps.insert(rule)
            inserting = compared.calls
            for rule in extra:
                ps.remove_by_id(rule.rule_id)
            removing = compared.calls - inserting
            assert len(ps) == size and len(ps._partitions) == 1
            assert rescans.calls == walks == 0
            return inserting, removing

        # 10.58 / 9.16 comparisons per insert / remove at 1 000 rules,
        # 14.35 / 12.34 at 16 000.
        assert comparisons(1_000) == (2709, 2346)
        assert comparisons(16_000) == (3674, 3159)

    def test_empty_partition_cleaned_up(self):
        ps = PartitionSortClassifier()
        rule = Rule.from_fields(priority=1, rule_id=1, dst_ip=exact(1))
        ps.insert(rule)
        ps.remove(rule)
        assert len(ps._partitions) == 0


class TestLinearSpecifics:
    def test_first_match_semantics(self):
        """Descending priority order, first match returned — exactly
        TS 29.244 §5.2.1's prescription."""
        linear = LinearClassifier()
        rules = [
            Rule.from_fields(priority=p, rule_id=p, dst_ip=exact(1))
            for p in (3, 1, 2)
        ]
        linear.extend(rules)
        stored = linear.rules()
        assert [rule.priority for rule in stored] == [3, 2, 1]
        assert linear.lookup(key_of(dst_ip=1)).priority == 3
