"""Property-based equivalence of the three classifiers.

The linear scan is the 3GPP-specified reference; TSS and PartitionSort
must return a rule of the *same priority* for every key (rule ids may
differ only when two rules tie, which the generators preclude by using
unique priorities).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifier import (
    ClassBenchGenerator,
    LinearClassifier,
    PartitionSortClassifier,
    Rule,
    TupleSpaceClassifier,
    PDI_FIELDS,
    exact,
    prefix,
    wildcard,
)

_FIELD_INDEX = {spec.name: i for i, spec in enumerate(PDI_FIELDS)}


def _assert_agree(linear, others, key):
    expected = linear.lookup(key)
    for other in others:
        got = other.lookup(key)
        if expected is None:
            assert got is None, (other.name, key)
        else:
            assert got is not None, (other.name, key)
            assert got.priority == expected.priority, (other.name, key)


@st.composite
def prefix_rules(draw, max_rules=30):
    """Random rule lists with prefix-expressible ranges and unique
    priorities, plus keys biased to hit them."""
    count = draw(st.integers(min_value=1, max_value=max_rules))
    rules = []
    for index in range(count):
        ranges = []
        for spec in PDI_FIELDS:
            mode = draw(st.sampled_from(["wild", "exact", "prefix"]))
            if mode == "wild":
                ranges.append(wildcard(spec))
            elif mode == "exact":
                ranges.append(
                    exact(draw(st.integers(0, spec.max_value)))
                )
            else:
                length = draw(st.integers(0, spec.bits))
                ranges.append(
                    prefix(spec, draw(st.integers(0, spec.max_value)), length)
                )
        rules.append(
            Rule(ranges=tuple(ranges), priority=index + 1, rule_id=index + 1)
        )
    keys = []
    for _ in range(10):
        rule = draw(st.sampled_from(rules))
        keys.append(
            tuple(
                draw(st.integers(low, high)) for low, high in rule.ranges
            )
        )
    return rules, keys


@settings(max_examples=40, deadline=None)
@given(prefix_rules())
def test_equivalence_on_random_rules(data):
    rules, keys = data
    linear = LinearClassifier()
    tss = TupleSpaceClassifier()
    partition = PartitionSortClassifier()
    for classifier in (linear, tss, partition):
        classifier.extend(rules)
    for key in keys:
        expected = linear.lookup(key)
        got_tss = tss.lookup(key)
        got_ps = partition.lookup(key)
        assert expected is not None
        assert got_tss is not None and got_tss.priority == expected.priority
        assert got_ps is not None and got_ps.priority == expected.priority


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    prefix_rules(max_rules=15),
)
def test_equivalence_on_random_misses(probe_ip, data):
    """Uniform random keys must agree too (usually misses)."""
    rules, _ = data
    linear = LinearClassifier()
    tss = TupleSpaceClassifier()
    partition = PartitionSortClassifier()
    for classifier in (linear, tss, partition):
        classifier.extend(rules)
    key = Rule.key_from_fields(src_ip=probe_ip, dst_ip=probe_ip ^ 0x5A5A5A5A)
    _assert_agree(linear, (tss, partition), key)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=1, max_value=10_000),
    st.sampled_from(["mixed", "best", "worst"]),
)
def test_equivalence_on_classbench(seed, profile):
    generator = ClassBenchGenerator(seed=seed, profile=profile)
    rules = generator.rules(60)
    keys = generator.matching_keys(rules, 30) + generator.random_keys(10)
    linear = LinearClassifier()
    tss = TupleSpaceClassifier()
    partition = PartitionSortClassifier()
    for classifier in (linear, tss, partition):
        classifier.extend(rules)
    for key in keys:
        _assert_agree(linear, (tss, partition), key)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=1000), st.data())
def test_equivalence_survives_removals(seed, data):
    """After removing a random subset, all three still agree."""
    generator = ClassBenchGenerator(seed=seed)
    rules = generator.rules(40)
    to_remove = data.draw(
        st.lists(st.sampled_from(rules), max_size=20, unique_by=id)
    )
    keys = generator.matching_keys(rules, 20)
    linear = LinearClassifier()
    tss = TupleSpaceClassifier()
    partition = PartitionSortClassifier()
    for classifier in (linear, tss, partition):
        classifier.extend(rules)
        for rule in to_remove:
            assert classifier.remove(rule)
    for key in keys:
        _assert_agree(linear, (tss, partition), key)


# ----------------------------------------------------------------------
# PDR-shaped sparse rules: PartitionSort probes only the dimensions a
# partition's rules constrain, so the suites above (about two thirds of
# the fields non-wild, every dimension live at once) never exercise a
# dead one.
# ----------------------------------------------------------------------
def _sparse_rule(draw, fields, priority, rule_id):
    """A rule constraining exactly ``fields``; values come from a small
    pool so rules collide, nest and share slots."""
    ranges = [wildcard(spec) for spec in PDI_FIELDS]
    for dim in fields:
        spec = PDI_FIELDS[dim]
        value = draw(st.integers(0, min(spec.max_value, 7)))
        length = draw(st.sampled_from([spec.bits, spec.bits, spec.bits - 1]))
        ranges[dim] = prefix(spec, value, length)
    return Rule(ranges=tuple(ranges), priority=priority, rule_id=rule_id)


def _keys_around(draw, rule, field_order):
    """An in-domain key ``rule`` contains, and the same key moved out of
    the rule on the *last* dimension (in ``field_order``) it constrains
    — a miss only a full walk of the live dimensions can see."""
    hit = [
        draw(st.integers(0, min(spec.max_value, 15))) for spec in PDI_FIELDS
    ]
    for dim, (lo, hi) in enumerate(rule.ranges):
        if not rule.is_wildcard(dim):
            hit[dim] = draw(st.integers(lo, hi))
    late = [dim for dim in field_order if not rule.is_wildcard(dim)][-1]
    lo, hi = rule.ranges[late]
    near = list(hit)
    near[late] = hi + 1 if hi < PDI_FIELDS[late].max_value else lo - 1
    return tuple(hit), tuple(near)


@st.composite
def sparse_scripts(draw):
    """Insert / remove_by_id / update interleavings over sparse rules.

    Rules of the first half never constrain ``late_dim``; the second
    half opens with one that does, so a partition's live set must widen
    mid-life.  Returns ``(field_order, ops)`` where each op is
    ``(verb, rule_or_id, probe_keys)``.
    """
    field_order = draw(st.permutations(range(len(PDI_FIELDS))))
    late_dim = draw(st.integers(0, len(PDI_FIELDS) - 1))
    early_dims = [d for d in range(len(PDI_FIELDS)) if d != late_dim]
    pool = draw(st.lists(st.sampled_from(early_dims), min_size=2, max_size=5,
                         unique=True))
    steps = draw(st.integers(4, 24))
    ops, stored = [], {}
    for step in range(steps):
        verb = draw(st.sampled_from(["insert", "insert", "update", "remove"]))
        if not stored or step == steps // 2:
            verb = "insert"
        if verb == "remove":
            rule_id = draw(st.sampled_from(sorted(stored)))
            victim = stored.pop(rule_id)
            ops.append((verb, rule_id, _keys_around(draw, victim, field_order)))
            continue
        count = draw(st.integers(2, min(4, len(pool))))
        fields = draw(st.permutations(pool))[:count]
        if step == steps // 2:
            fields = fields[:-1] + [late_dim]
        elif step > steps // 2 and draw(st.booleans()):
            fields = fields[:-1] + [late_dim]
        rule_id = (
            draw(st.sampled_from(sorted(stored))) if verb == "update"
            else step + 1
        )
        rule = _sparse_rule(draw, fields, priority=step + 1, rule_id=rule_id)
        stored[rule_id] = rule
        ops.append((verb, rule, _keys_around(draw, rule, field_order)))
    return tuple(field_order), ops


@settings(max_examples=60, deadline=None)
@given(sparse_scripts())
def test_equivalence_on_sparse_rule_scripts(script):
    field_order, ops = script
    linear = LinearClassifier()
    others = (TupleSpaceClassifier(), PartitionSortClassifier(field_order))
    probes = []
    for verb, operand, keys in ops:
        for classifier in (linear, *others):
            if verb == "remove":
                assert classifier.remove_by_id(operand)
            else:
                getattr(classifier, verb)(operand)
        # Every key drawn so far: hits of rules since removed or
        # replaced must turn into the same answer everywhere.
        probes.extend(keys)
        for key in probes:
            _assert_agree(linear, others, key)
    assert len(linear) == len(others[0]) == len(others[1])
