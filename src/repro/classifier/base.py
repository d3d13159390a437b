"""The classifier interface shared by PDR-LL, PDR-TSS and PDR-PS."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from .rule import Rule

__all__ = ["Classifier"]


class Classifier:
    """Interface: insert/remove rules, look up the best match.

    ``lookup`` returns the matching rule with the highest priority, or
    None.  All three implementations must return identical results for
    identical rule sets — the property tests enforce this equivalence
    against :class:`~repro.classifier.linear.LinearClassifier` as the
    reference oracle.
    """

    name = "abstract"

    # Empty, so a subclass that declares ``__slots__`` has no
    # ``__dict__``: a classifier is per-session state.
    __slots__ = ()

    def insert(self, rule: Rule) -> None:
        raise NotImplementedError

    def remove(self, rule: Rule) -> bool:
        """Remove a stored rule; True if it was present.

        Pass the object that was inserted (a session passes the PDR it
        maps): PartitionSort finds it by its ranges, then by rule_id,
        so a rule whose ranges changed since insertion is not found.
        """
        raise NotImplementedError

    def lookup(self, key: Sequence[int]) -> Optional[Rule]:
        """Best match for ``key``, one value per ``PDI_FIELDS`` entry.

        Keys are in-domain: ``0 <= key[i] <= PDI_FIELDS[i].max_value``
        (:func:`repro.up.keys.packet_key` builds them so).  A full-range
        wildcard therefore matches whatever the key holds, and an
        implementation may skip a dimension no stored rule constrains;
        what an out-of-domain value matches is unspecified.
        """
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def extend(self, rules: Iterable[Rule]) -> None:
        """Bulk insert."""
        for rule in rules:
            self.insert(rule)

    def remove_by_id(self, rule_id: int) -> bool:
        """Remove the stored rule carrying ``rule_id``; True if found.

        The default snapshots :meth:`rules`, O(n) regardless of
        structure; a caller holding the stored rule calls :meth:`remove`
        instead, which needs no id index.
        """
        for existing in self.rules():
            if existing.rule_id == rule_id:
                return self.remove(existing)
        return False

    def update(self, rule: Rule) -> None:
        """Replace the rule with the same rule_id (PDR update path).

        The stored rule may have different match ranges, so it is
        located by id rather than by position.
        """
        self.remove_by_id(rule.rule_id)
        self.insert(rule)

    def rules(self) -> List[Rule]:
        """Snapshot of all stored rules (order unspecified)."""
        raise NotImplementedError
