"""A ClassBench-style PDR generator.

The paper extends ClassBench (Taylor & Turner) to emit PDRs with 20 PDI
IEs for the Fig 11 evaluation.  Real ClassBench derives rules from seed
filter sets; lacking those, this generator reproduces the structural
properties that matter to the classifiers:

* IP prefixes drawn from a realistic length distribution (heavy at /24
  and /32, a spread of shorter prefixes, some wildcards);
* port ranges that are prefix-expressible (wildcard, exact, or
  power-of-two blocks like [1024, 2047]) so TSS signatures are well
  defined;
* exact-or-wildcard matches on the 5G-specific IEs (TEID, QFI,
  application id, SPI, flow label, slice id, ...);
* distinct priorities (PFCP precedence values are unique per session).

Three profiles control tuple-space diversity, matching the paper's
scenarios:

* ``best`` — every rule shares one signature: PDR-TSS probes a single
  sub-table (PDR-TSS_Best);
* ``worst`` — every rule gets a unique signature: PDR-TSS degenerates
  to N probes (PDR-TSS_Worst, the DoS pattern);
* ``mixed`` — a realistic blend (default).
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from .rule import (
    FULL_DOMAIN, NUM_FIELDS, PDI_FIELDS, PacketKey, Rule, exact, prefix,
    wildcard,
)

__all__ = ["ClassBenchGenerator", "PROFILE_BEST", "PROFILE_WORST", "PROFILE_MIXED"]

PROFILE_BEST = "best"
PROFILE_WORST = "worst"
PROFILE_MIXED = "mixed"

#: (prefix length, weight) for IPv4 fields, loosely after ClassBench's
#: ACL seed distributions.
_IP_PREFIX_WEIGHTS: Sequence[Tuple[int, float]] = (
    (0, 0.05),
    (8, 0.02),
    (16, 0.08),
    (20, 0.05),
    (24, 0.35),
    (28, 0.10),
    (32, 0.35),
)

_FIELD_INDEX = {spec.name: i for i, spec in enumerate(PDI_FIELDS)}


class ClassBenchGenerator:
    """Generates PDR rule sets and matching packet traces.

    Parameters
    ----------
    seed:
        RNG seed; identical seeds give identical rule sets.
    profile:
        One of ``best`` / ``worst`` / ``mixed`` (see module docstring).
    """

    def __init__(
        self,
        seed: int = 1,
        profile: str = PROFILE_MIXED,
        num_templates: int = 16,
    ):
        if profile not in (PROFILE_BEST, PROFILE_WORST, PROFILE_MIXED):
            raise ValueError(f"unknown profile: {profile!r}")
        if num_templates <= 0:
            raise ValueError("num_templates must be positive")
        self.profile = profile
        self._rng = random.Random(seed)
        # Real filter sets cluster into a handful of structural
        # templates (which is why TSS works at all); the mixed profile
        # draws each rule from one of ``num_templates`` templates.
        self._templates = [
            self._make_template() for _ in range(num_templates)
        ]

    # ------------------------------------------------------------------
    def rules(self, count: int) -> List[Rule]:
        """Generate ``count`` rules with unique priorities."""
        out: List[Rule] = []
        priorities = list(range(1, count + 1))
        self._rng.shuffle(priorities)
        for index in range(count):
            out.append(self._rule(index, priorities[index], count))
        return out

    def matching_keys(self, rules: Sequence[Rule], count: int) -> List[PacketKey]:
        """Packet keys, each guaranteed to match at least one rule.

        This is ClassBench's trace generator: headers are derived from
        the filters so lookups exercise real matches rather than
        default misses.
        """
        out: List[PacketKey] = []
        for _ in range(count):
            rule = self._rng.choice(list(rules))
            out.append(self._key_within(rule))
        return out

    def random_keys(self, count: int) -> List[PacketKey]:
        """Uniform random keys (mostly misses) for negative testing."""
        return [
            tuple(
                self._rng.randint(0, spec.max_value) for spec in PDI_FIELDS
            )
            for _ in range(count)
        ]

    # ------------------------------------------------------------------
    def _rule(self, index: int, priority: int, total: int) -> Rule:
        if self.profile == PROFILE_BEST:
            ranges = self._best_case_ranges(index)
        elif self.profile == PROFILE_WORST:
            ranges = self._worst_case_ranges(index, total)
        else:
            ranges = self._mixed_ranges()
        return Rule(
            ranges=tuple(ranges), priority=priority, rule_id=index + 1
        )

    def _best_case_ranges(self, index: int) -> List[Tuple[int, int]]:
        """All rules exact in the same fields: one TSS signature."""
        rng = self._rng
        ranges = list(FULL_DOMAIN)
        ranges[_FIELD_INDEX["src_ip"]] = exact(rng.randint(0, 2**32 - 1))
        ranges[_FIELD_INDEX["dst_ip"]] = exact(rng.randint(0, 2**32 - 1))
        ranges[_FIELD_INDEX["src_port"]] = exact(rng.randint(0, 65535))
        ranges[_FIELD_INDEX["dst_port"]] = exact(rng.randint(0, 65535))
        ranges[_FIELD_INDEX["protocol"]] = exact(
            rng.choice((6, 17))
        )
        ranges[_FIELD_INDEX["teid"]] = exact(index + 1)
        return ranges

    def _worst_case_ranges(self, index: int, total: int) -> List[Tuple[int, int]]:
        """A distinct prefix-length vector per rule: N TSS sub-tables.

        We vary the src_ip/dst_ip prefix lengths systematically so each
        rule lands in its own tuple — the tuple-space-explosion shape.
        """
        rng = self._rng
        ranges = list(FULL_DOMAIN)
        # 33 x 33 combinations of (src, dst) prefix lengths, extended by
        # the teid prefix when more are needed.
        src_len = index % 33
        dst_len = (index // 33) % 33
        extra = index // (33 * 33)
        ranges[_FIELD_INDEX["src_ip"]] = prefix(
            PDI_FIELDS[_FIELD_INDEX["src_ip"]],
            rng.randint(0, 2**32 - 1),
            src_len,
        )
        ranges[_FIELD_INDEX["dst_ip"]] = prefix(
            PDI_FIELDS[_FIELD_INDEX["dst_ip"]],
            rng.randint(0, 2**32 - 1),
            dst_len,
        )
        if extra:
            ranges[_FIELD_INDEX["teid"]] = prefix(
                PDI_FIELDS[_FIELD_INDEX["teid"]],
                rng.randint(0, 2**32 - 1),
                extra % 33,
            )
        return ranges

    def _make_template(self) -> Tuple[int, ...]:
        """One structural template: a prefix length per field.

        0 means wildcard; a field's full width means exact-match.  All
        rules drawn from the same template share a TSS signature.
        """
        rng = self._rng
        lengths = [0] * NUM_FIELDS
        lengths[_FIELD_INDEX["src_ip"]] = self._weighted_prefix_length()
        lengths[_FIELD_INDEX["dst_ip"]] = self._weighted_prefix_length()
        lengths[_FIELD_INDEX["src_port"]] = rng.choice((0, 0, 16, 16, 6))
        lengths[_FIELD_INDEX["dst_port"]] = rng.choice((0, 16, 16, 6, 10))
        lengths[_FIELD_INDEX["protocol"]] = rng.choice((0, 8, 8))
        # 5G-specific IEs: exact-or-wildcard, with realistic odds.
        for name, probability in (
            ("teid", 0.4),
            ("qfi", 0.5),
            ("app_id", 0.25),
            ("spi", 0.1),
            ("flow_label", 0.15),
            ("sdf_filter_id", 0.2),
            ("source_iface", 0.5),
            ("pdu_type", 0.2),
            ("network_instance", 0.3),
            ("dscp", 0.3),
            ("session_id", 0.2),
            ("slice_id", 0.3),
            ("urr_id", 0.1),
            ("outer_header", 0.2),
        ):
            if rng.random() < probability:
                index = _FIELD_INDEX[name]
                lengths[index] = PDI_FIELDS[index].bits
        if rng.random() < 0.3:
            lengths[_FIELD_INDEX["tos"]] = 5  # QoS class prefix
        return tuple(lengths)

    def _mixed_ranges(self) -> List[Tuple[int, int]]:
        """A realistic 5GC blend: random values over a shared template."""
        rng = self._rng
        template = rng.choice(self._templates)
        ranges: List[Tuple[int, int]] = []
        for spec, length in zip(PDI_FIELDS, template):
            if length == 0:
                ranges.append(wildcard(spec))
            else:
                ranges.append(
                    prefix(spec, rng.randint(0, spec.max_value), length)
                )
        return ranges

    def _weighted_prefix_length(self) -> int:
        roll = self._rng.random()
        cumulative = 0.0
        for length, weight in _IP_PREFIX_WEIGHTS:
            cumulative += weight
            if roll <= cumulative:
                return length
        return 32

    def _port_range(self) -> Tuple[int, int]:
        """Wildcard, exact, or a power-of-two block."""
        rng = self._rng
        spec = PDI_FIELDS[_FIELD_INDEX["src_port"]]
        roll = rng.random()
        if roll < 0.45:
            return wildcard(spec)
        if roll < 0.80:
            return exact(rng.randint(0, 65535))
        # Power-of-two aligned block: e.g. [1024, 2047].
        length = rng.choice((2, 4, 5, 6, 8, 10))
        return prefix(spec, rng.randint(0, 65535), length)

    def _key_within(self, rule: Rule) -> PacketKey:
        return tuple(
            self._rng.randint(lo, hi) for lo, hi in rule.ranges
        )
