"""Tests for the PDR rule model."""

import pytest

from repro.classifier import (
    NUM_FIELDS,
    PDI_FIELDS,
    Rule,
    exact,
    prefix,
    wildcard,
)
from repro.classifier.rule import FULL_DOMAIN


def key_of(**field_values):
    """A packet key naming only the non-zero fields."""
    by_name = {spec.name: i for i, spec in enumerate(PDI_FIELDS)}
    out = [0] * NUM_FIELDS
    for name, value in field_values.items():
        out[by_name[name]] = value
    return tuple(out)


class TestFieldHelpers:
    def test_twenty_fields(self):
        """The paper employs up to 20 PDI IEs per PDR (§3.4)."""
        assert NUM_FIELDS == 20

    def test_exact(self):
        assert exact(5) == (5, 5)

    def test_wildcard(self):
        spec = PDI_FIELDS[0]  # src_ip, 32 bits
        assert wildcard(spec) == (0, 0xFFFFFFFF)

    def test_prefix(self):
        spec = PDI_FIELDS[0]
        low, high = prefix(spec, 0x0A010203, 24)
        assert low == 0x0A010200
        assert high == 0x0A0102FF

    def test_prefix_extremes(self):
        spec = PDI_FIELDS[0]
        assert prefix(spec, 123, 0) == wildcard(spec)
        assert prefix(spec, 123, 32) == exact(123)

    def test_prefix_out_of_range(self):
        with pytest.raises(ValueError):
            prefix(PDI_FIELDS[0], 1, 33)


class TestRule:
    def test_from_fields_defaults_to_wildcards(self):
        rule = Rule.from_fields(dst_ip=exact(7))
        for index, spec in enumerate(PDI_FIELDS):
            if spec.name == "dst_ip":
                assert rule.ranges[index] == (7, 7)
            else:
                assert rule.ranges[index] == FULL_DOMAIN[index]

    def test_unknown_field_raises(self):
        with pytest.raises(ValueError):
            Rule.from_fields(flux_capacitor=exact(1))

    def test_wrong_range_count_raises(self):
        with pytest.raises(ValueError):
            Rule(ranges=((0, 1),) * 3)

    def test_out_of_range_value_raises(self):
        spec_max = PDI_FIELDS[7].max_value  # qfi: 6 bits
        with pytest.raises(ValueError):
            Rule.from_fields(qfi=(0, spec_max + 1))

    @pytest.mark.parametrize("index", range(NUM_FIELDS))
    def test_constructor_checks_each_field_s_bound(self, index):
        """``Rule(...)`` reads its bounds from a precomputed tuple: each
        field's own maximum is accepted and one past it rejected."""
        spec = PDI_FIELDS[index]
        ranges = list(FULL_DOMAIN)
        assert Rule(ranges=tuple(ranges)).ranges[index] == FULL_DOMAIN[index]
        ranges[index] = (0, spec.max_value + 1)
        with pytest.raises(ValueError, match=f"bad range for {spec.name}"):
            Rule(ranges=tuple(ranges))

    def test_inverted_range_raises(self):
        with pytest.raises(ValueError):
            Rule.from_fields(dst_port=(10, 5))

    def test_matches(self):
        rule = Rule.from_fields(
            dst_ip=exact(100), protocol=exact(17), dst_port=(1000, 2000)
        )
        hit = key_of(dst_ip=100, protocol=17, dst_port=1500)
        miss_port = key_of(dst_ip=100, protocol=17, dst_port=99)
        miss_ip = key_of(dst_ip=101, protocol=17, dst_port=1500)
        assert rule.matches(hit)
        assert not rule.matches(miss_port)
        assert not rule.matches(miss_ip)

    def test_tuple_signature_prefixes(self):
        rule = Rule.from_fields(
            src_ip=prefix(PDI_FIELDS[0], 0x0A000000, 8),
            dst_port=exact(80),
        )
        signature = rule.tuple_signature()
        assert signature[0] == 8           # src_ip /8
        assert signature[3] == 16          # dst_port exact (16 bits)
        assert signature[1] == 0           # dst_ip wildcard

    def test_tuple_signature_non_prefix_is_none(self):
        rule = Rule.from_fields(dst_port=(5, 9))  # span 5: not a prefix
        assert rule.tuple_signature()[3] is None
