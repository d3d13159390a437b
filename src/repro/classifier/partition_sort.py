"""PDR-PS: PartitionSort (Yingchareonthawornchai et al., ICNP'16).

PartitionSort partitions the rule set online into a small number of
*sortable rulesets*.  A ruleset is sortable when, for every pair of
rules and every field, the two rules' intervals are either identical or
completely disjoint.  Under that invariant the rules admit a total
lexicographic order (compare interval by interval along a field order),
so each ruleset supports:

* lookup by multi-dimensional binary search — O(d + log n) comparisons,
  with **no hashing** (unlike TSS, which is also why it resists the
  tuple-space-explosion DoS attack), where d counts only the
  dimensions some rule of the ruleset constrains: a PDR names 2–4 of
  the 20 PDI fields, and a dimension every rule wildcards can neither
  order two rules nor exclude an in-domain key;
* logarithmic insert/remove, keeping updates fast (the paper measures
  6.14 us per update vs 0.38 us for the linear list — slower, but
  "the difference is not substantial" §5.3).

A query probes partitions in decreasing max-priority order and stops as
soon as the current best match out-prioritizes every remaining
partition, mirroring the original algorithm's priority pruning.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from .base import Classifier
from .rule import FULL_DOMAIN, NUM_FIELDS, Rule

__all__ = ["PartitionSortClassifier"]

_Dims = Tuple[int, ...]

#: The field order of a classifier built without one: shared, so a
#: session's classifier does not own a copy.
_DEFAULT_ORDER: _Dims = tuple(range(NUM_FIELDS))


@lru_cache(maxsize=4096)
def _widened(
    field_order: _Dims, live: _Dims, extra: _Dims
) -> Tuple[_Dims, _Dims]:
    """``(live, dead)`` after ``extra`` joins ``live``, in ``field_order``.

    Cached, so partitions that reach the same dimension set hold the
    *same* two tuples: the thousands of one- and two-rule partitions of
    a loaded UPF share a handful instead of owning a pair each.
    """
    live = tuple(d for d in field_order if d in live or d in extra)
    return live, tuple(d for d in field_order if d not in live)


class _Unsortable(Exception):
    """Raised when a rule cannot join a partition."""


def _compare_rule(rule_a: Rule, rule_b: Rule, field_order: Sequence[int]) -> int:
    """Lexicographic interval comparison along ``field_order``.

    Returns -1 / 0 / +1.  Raises :class:`_Unsortable` when a pair of
    intervals overlaps without being identical — the pair cannot
    coexist in a sortable ruleset.
    """
    for dim in field_order:
        a_lo, a_hi = rule_a.ranges[dim]
        b_lo, b_hi = rule_b.ranges[dim]
        if a_lo == b_lo and a_hi == b_hi:
            continue
        if a_hi < b_lo:
            return -1
        if b_hi < a_lo:
            return 1
        raise _Unsortable(
            f"overlapping intervals in dim {dim}: "
            f"[{a_lo},{a_hi}] vs [{b_lo},{b_hi}]"
        )
    return 0


class _SortableRuleset:
    """One partition: rules kept in ascending lexicographic order.

    The sortedness invariant means at most one *distinct* match region
    can contain a packet; rules with exactly identical ranges share a
    slot, kept in descending priority.

    ``live`` is the ``field_order`` subsequence of dimensions on which
    some rule this partition has held is not the full-domain wildcard
    (:data:`~repro.classifier.rule.FULL_DOMAIN`);
    ``dead`` is the rest.  On a dead dimension every stored rule is the
    same wildcard, which contains any in-domain key value, so
    :meth:`lookup` walks ``live`` only, reading ``rule.ranges``
    directly.  ``live`` only grows — a superset costs a few no-op
    comparisons but is never wrong, so removals need no recount.
    ``max_holders`` counts the rules at ``max_priority``: the max is
    rescanned only when the last of them leaves.
    """

    __slots__ = (
        "field_order", "slots", "max_priority", "max_holders", "count",
        "live", "dead",
    )

    def __init__(self, field_order: _Dims):
        self.field_order = field_order
        self.slots: List[List[Rule]] = []
        self.max_priority = -(2**63)
        self.max_holders = 0
        self.count = 0
        self.live: _Dims = ()
        self.dead = field_order

    def __len__(self) -> int:
        return self.count

    def _locate(self, rule: Rule) -> Tuple[int, bool]:
        """Binary-search the slot index for ``rule``.

        Returns ``(index, found)``; raises :class:`_Unsortable` if the
        rule overlaps-without-equality with any probed rule.  Because
        the stored set is totally ordered and pairwise disjoint-or-
        equal, a clean comparison against the probe path plus the two
        neighbors guarantees global sortability.
        """
        low, high = 0, len(self.slots)
        while low < high:
            mid = (low + high) // 2
            order = _compare_rule(rule, self.slots[mid][0], self.field_order)
            if order == 0:
                return mid, True
            if order < 0:
                high = mid
            else:
                low = mid + 1
        # Verify the immediate neighbors as well (the probe path may
        # not have touched them).
        if low > 0:
            _compare_rule(rule, self.slots[low - 1][0], self.field_order)
        if low < len(self.slots):
            _compare_rule(rule, self.slots[low][0], self.field_order)
        return low, False

    def try_insert(self, rule: Rule) -> bool:
        """Insert if sortable here; False otherwise."""
        try:
            index, found = self._locate(rule)
        except _Unsortable:
            return False
        if found:
            slot = self.slots[index]
            slot.append(rule)
            slot.sort(key=lambda r: -r.priority)
        else:
            self.slots.insert(index, [rule])
            ranges = rule.ranges
            extra = tuple(
                [d for d in self.dead if ranges[d] != FULL_DOMAIN[d]]
            )
            if extra:
                self.live, self.dead = _widened(
                    self.field_order, self.live, extra
                )
        self.count += 1
        if rule.priority > self.max_priority:
            self.max_priority = rule.priority
            self.max_holders = 1
        elif rule.priority == self.max_priority:
            self.max_holders += 1
        return True

    def remove(self, rule: Rule) -> bool:
        try:
            index, found = self._locate(rule)
        except _Unsortable:
            return False
        if not found:
            return False
        slot = self.slots[index]
        for position, existing in enumerate(slot):
            if existing.rule_id == rule.rule_id:
                del slot[position]
                if not slot:
                    del self.slots[index]
                self.count -= 1
                if existing.priority == self.max_priority:
                    self.max_holders -= 1
                    if not self.max_holders:
                        self._rescan_max()
                return True
        return False

    def _rescan_max(self) -> None:
        """The last rule at ``max_priority`` left: find the next max."""
        top = max((slot[0].priority for slot in self.slots), default=-(2**63))
        self.max_priority = top
        self.max_holders = sum(
            rule.priority == top for slot in self.slots for rule in slot
        )

    def lookup(self, key: Sequence[int]) -> Optional[Rule]:
        """Binary search for the containing rule on the live dimensions."""
        slots = self.slots
        live = self.live
        low, high = 0, len(slots)
        while low < high:
            mid = (low + high) // 2
            rule = slots[mid][0]
            ranges = rule.ranges
            for dim in live:
                lo, hi = ranges[dim]
                value = key[dim]
                if value < lo:
                    high = mid
                    break
                if value > hi:
                    low = mid + 1
                    break
            else:
                return rule
        return None

    def rules(self) -> List[Rule]:
        return [rule for slot in self.slots for rule in slot]


class PartitionSortClassifier(Classifier):
    """The PartitionSort classifier with online partitioning."""

    name = "PDR-PS"

    __slots__ = ("_field_order", "_partitions", "_count")

    def __init__(self, field_order: Optional[Sequence[int]] = None):
        self._field_order: _Dims = (
            _DEFAULT_ORDER if field_order is None else tuple(field_order)
        )
        self._partitions: List[_SortableRuleset] = []
        self._count = 0

    def insert(self, rule: Rule) -> None:
        # Try existing partitions, largest first — the original
        # heuristic, which keeps the partition count low.
        for partition in sorted(self._partitions, key=len, reverse=True):
            if partition.try_insert(rule):
                self._count += 1
                self._resort()
                return
        fresh = _SortableRuleset(self._field_order)
        fresh.try_insert(rule)
        self._partitions.append(fresh)
        self._count += 1
        self._resort()

    def _resort(self) -> None:
        # Keep partitions in descending max-priority order so lookups
        # can stop early.
        self._partitions.sort(key=lambda p: -p.max_priority)

    def remove(self, rule: Rule) -> bool:
        for partition in self._partitions:
            if partition.remove(rule):
                self._count -= 1
                if len(partition) == 0:
                    self._partitions.remove(partition)
                self._resort()
                return True
        return False

    def lookup(self, key: Sequence[int]) -> Optional[Rule]:
        best: Optional[Rule] = None
        best_priority = -(2**63)
        for partition in self._partitions:
            if partition.max_priority <= best_priority:
                break  # partitions are sorted: nothing better remains
            candidate = partition.lookup(key)
            if candidate is not None and candidate.priority > best_priority:
                best = candidate
                best_priority = candidate.priority
        return best

    def __len__(self) -> int:
        return self._count

    def rules(self) -> List[Rule]:
        return [rule for partition in self._partitions for rule in partition.rules()]
