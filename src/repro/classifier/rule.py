"""Packet detection rules as multi-dimensional range matches.

3GPP's PDR carries up to ~20 packet detection information IEs (paper
Appendix A, Table 3): tunnel endpoint, UE IP, the SDF filter's five
tuple, QFI, ToS, SPI, flow label and friends.  A PDR is therefore a
point in the classical packet-classification problem: each field is an
inclusive integer range ``[lo, hi]`` and a packet is a vector of field
values; the matching rule with the highest precedence wins.

This module defines the 20-field layout used throughout the classifier
subsystem, the :class:`Rule` and helpers to express exact / prefix /
wildcard matches per field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "FieldSpec",
    "PDI_FIELDS",
    "NUM_FIELDS",
    "FULL_DOMAIN",
    "FIELD_INDEX",
    "Rule",
    "exact",
    "wildcard",
    "prefix",
    "PacketKey",
]


@dataclass(frozen=True)
class FieldSpec:
    """One PDI dimension: a name and a bit width."""

    name: str
    bits: int

    @property
    def max_value(self) -> int:
        return (1 << self.bits) - 1


#: The 20 PDI IE dimensions of the paper's evaluation (§3.4: "we employ
#: a number of PDI IEs (up to 20) in the PDR").
PDI_FIELDS: Tuple[FieldSpec, ...] = (
    FieldSpec("src_ip", 32),
    FieldSpec("dst_ip", 32),
    FieldSpec("src_port", 16),
    FieldSpec("dst_port", 16),
    FieldSpec("protocol", 8),
    FieldSpec("tos", 8),
    FieldSpec("teid", 32),
    FieldSpec("qfi", 6),
    FieldSpec("app_id", 16),
    FieldSpec("spi", 32),
    FieldSpec("flow_label", 20),
    FieldSpec("sdf_filter_id", 16),
    FieldSpec("source_iface", 4),
    FieldSpec("pdu_type", 4),
    FieldSpec("network_instance", 12),
    FieldSpec("dscp", 6),
    FieldSpec("session_id", 32),
    FieldSpec("slice_id", 8),
    FieldSpec("urr_id", 16),
    FieldSpec("outer_header", 4),
)

NUM_FIELDS = len(PDI_FIELDS)

#: Each field's largest value, in :data:`PDI_FIELDS` order.
_MAX_VALUES: Tuple[int, ...] = tuple(spec.max_value for spec in PDI_FIELDS)

#: Each field's match-anything range, in :data:`PDI_FIELDS` order.
#: Immutable and shared: a rule starts from ``list(FULL_DOMAIN)`` and
#: replaces only the fields it constrains, so the wildcards of every
#: installed rule are these 20 tuples, not fresh copies.
FULL_DOMAIN: Tuple[Tuple[int, int], ...] = tuple(
    (0, top) for top in _MAX_VALUES
)

#: Each field's position in a rule's ranges, by name.
FIELD_INDEX: Dict[str, int] = {
    spec.name: index for index, spec in enumerate(PDI_FIELDS)
}

#: ``exact(v)`` for ``v < 256`` (source interfaces, QFIs, protocols):
#: shared like :data:`FULL_DOMAIN`, so PDRs naming the same small value
#: hold one tuple.
_SMALL_EXACT: Tuple[Tuple[int, int], ...] = tuple((v, v) for v in range(256))

#: A packet, for classification purposes: one value per PDI field.
PacketKey = Tuple[int, ...]


def exact(value: int) -> Tuple[int, int]:
    """A range matching exactly ``value``."""
    if 0 <= value < 256:
        return _SMALL_EXACT[value]
    return (value, value)


def wildcard(spec: FieldSpec) -> Tuple[int, int]:
    """The full range of a field (match anything)."""
    return (0, spec.max_value)


def prefix(spec: FieldSpec, value: int, length: int) -> Tuple[int, int]:
    """The range covered by the ``length``-bit prefix of ``value``.

    ``length == 0`` is the wildcard; ``length == spec.bits`` is exact.
    """
    if not 0 <= length <= spec.bits:
        raise ValueError(
            f"prefix length {length} out of range for {spec.name}"
        )
    shift = spec.bits - length
    lo = (value >> shift) << shift
    hi = lo | ((1 << shift) - 1)
    return (lo, hi)


def _prefix_length(spec: FieldSpec, lo: int, hi: int) -> Optional[int]:
    """The prefix length expressing ``[lo, hi]``, or None if not a prefix."""
    span = hi - lo + 1
    if span & (span - 1):
        return None  # not a power of two
    if lo & (span - 1):
        return None  # not aligned
    return spec.bits - span.bit_length() + 1


@dataclass(slots=True)
class Rule:
    """A PDR viewed as a classifier rule.

    Attributes
    ----------
    ranges:
        One inclusive ``(lo, hi)`` pair per field in :data:`PDI_FIELDS`
        order.
    priority:
        Higher wins (this is the inverse of PFCP precedence, where the
        *lowest* precedence value has the highest priority; the
        conversion happens in :mod:`repro.up.rules`).
    rule_id / far_id:
        Back references into the PFCP session state.

    :class:`repro.up.rules.PDR` subclasses it: an installed PDR is the
    object the classifier stores, with ``rule_id`` its PDR id.
    """

    ranges: Tuple[Tuple[int, int], ...]
    priority: int = 0
    rule_id: int = 0
    far_id: int = 0

    def __post_init__(self) -> None:
        if len(self.ranges) != NUM_FIELDS:
            raise ValueError(
                f"rule needs {NUM_FIELDS} ranges, got {len(self.ranges)}"
            )
        for index, (lo, hi) in enumerate(self.ranges):
            if not 0 <= lo <= hi <= _MAX_VALUES[index]:
                raise ValueError(
                    f"bad range for {PDI_FIELDS[index].name}: [{lo}, {hi}]"
                )

    def matches(self, key: Sequence[int]) -> bool:
        """True if every field value falls inside the rule's range."""
        for (lo, hi), value in zip(self.ranges, key):
            if value < lo or value > hi:
                return False
        return True

    def tuple_signature(self) -> Tuple[Optional[int], ...]:
        """Per-field prefix lengths — the TSS sub-table signature.

        Fields whose range is not prefix-expressible yield ``None``
        (TSS implementations expand those to prefixes; our generator
        emits prefix-expressible ranges, see
        :mod:`repro.classifier.classbench`).
        """
        return tuple(
            _prefix_length(spec, lo, hi)
            for spec, (lo, hi) in zip(PDI_FIELDS, self.ranges)
        )

    @classmethod
    def from_fields(cls, **fields) -> "Rule":
        """Build a rule naming only the constrained fields.

        A keyword naming a field of the class (``priority``,
        ``rule_id``, ..., and a subclass's own, such as a PDR's
        ``urr_id``) is a constructor argument; any other names a PDI
        field and is its range.

        >>> r = Rule.from_fields(dst_ip=exact(0x0A3C0001), protocol=exact(17))
        """
        ranges: List[Tuple[int, int]] = list(FULL_DOMAIN)
        arguments = {}
        for name, value in fields.items():
            if name in cls.__dataclass_fields__:
                arguments[name] = value
            elif name in FIELD_INDEX:
                ranges[FIELD_INDEX[name]] = value
            else:
                raise ValueError(f"unknown PDI field: {name}")
        return cls(ranges=tuple(ranges), **arguments)
