"""PDR-TSS: Tuple Space Search (Srinivasan et al., SIGCOMM'99).

Rules are partitioned into sub-tables by their *tuple*: the vector of
per-field prefix lengths.  Within a sub-table every rule constrains the
same bits, so a hash of the packet's masked field values finds the rule
in O(1).  A lookup probes every sub-table and keeps the best-priority
match, hence the cost is O(#tuples) hash probes:

* best case — all rules share one tuple: a single probe (the flat
  ~0.26 us line of Fig 11a);
* worst case — every rule its own tuple: N probes, which is why
  PDR-TSS_Worst exits Fig 11a's range by 100 rules, and the basis of
  the Tuple Space Explosion DoS attack the paper cites (§3.4).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .base import Classifier
from .rule import NUM_FIELDS, PDI_FIELDS, Rule

__all__ = ["TupleSpaceClassifier"]

_Signature = Tuple[int, ...]
_MaskedKey = Tuple[int, ...]


class _SubTable:
    """One tuple's hash table: masked key -> rules (priority desc)."""

    __slots__ = ("signature", "shifts", "buckets", "max_priority")

    def __init__(self, signature: _Signature):
        self.signature = signature
        # Pre-compute per-field shift amounts; masking a value is then
        # (value >> shift) << shift, avoiding re-deriving masks per probe.
        self.shifts = tuple(
            spec.bits - length
            for spec, length in zip(PDI_FIELDS, signature)
        )
        self.buckets: Dict[_MaskedKey, List[Rule]] = {}
        self.max_priority = -(2**63)

    def mask_key(self, key: Sequence[int]) -> _MaskedKey:
        shifts = self.shifts
        return tuple(
            (key[i] >> shifts[i]) << shifts[i] for i in range(NUM_FIELDS)
        )

    def insert(self, rule: Rule) -> None:
        masked = tuple(lo for lo, _hi in rule.ranges)
        bucket = self.buckets.setdefault(masked, [])
        bucket.append(rule)
        bucket.sort(key=lambda r: -r.priority)
        if rule.priority > self.max_priority:
            self.max_priority = rule.priority

    def remove(self, rule: Rule) -> bool:
        masked = tuple(lo for lo, _hi in rule.ranges)
        bucket = self.buckets.get(masked)
        if not bucket:
            return False
        for index, existing in enumerate(bucket):
            if existing.rule_id == rule.rule_id:
                del bucket[index]
                if not bucket:
                    del self.buckets[masked]
                self._recompute_max()
                return True
        return False

    def _recompute_max(self) -> None:
        self.max_priority = max(
            (rule.priority for bucket in self.buckets.values() for rule in bucket),
            default=-(2**63),
        )

    def lookup(self, key: Sequence[int]) -> Optional[Rule]:
        bucket = self.buckets.get(self.mask_key(key))
        if bucket:
            return bucket[0]
        return None

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self.buckets.values())


class TupleSpaceClassifier(Classifier):
    """The tuple-space-search classifier."""

    name = "PDR-TSS"

    def __init__(self) -> None:
        self._tables: Dict[_Signature, _SubTable] = {}
        self._count = 0
        #: rule_id -> stored rule, so removals by id skip the full
        #: rules() snapshot and go straight to the owning sub-table.
        self._by_id: Dict[int, Rule] = {}

    def insert(self, rule: Rule) -> None:
        signature = rule.tuple_signature()
        if any(length is None for length in signature):
            raise ValueError(
                "TSS requires prefix-expressible ranges; "
                "expand arbitrary ranges to prefixes first"
            )
        table = self._tables.get(signature)
        if table is None:
            table = _SubTable(signature)  # type: ignore[arg-type]
            self._tables[signature] = table  # type: ignore[index]
        table.insert(rule)
        self._count += 1
        self._by_id[rule.rule_id] = rule

    def remove(self, rule: Rule) -> bool:
        signature = rule.tuple_signature()
        table = self._tables.get(signature)  # type: ignore[arg-type]
        if table is None:
            return False
        if table.remove(rule):
            self._count -= 1
            if len(table) == 0:
                del self._tables[signature]  # type: ignore[arg-type]
            self._by_id.pop(rule.rule_id, None)
            return True
        return False

    def remove_by_id(self, rule_id: int) -> bool:
        """Id-indexed removal: one dict probe to the stored rule."""
        rule = self._by_id.get(rule_id)
        if rule is None:
            return False
        return self.remove(rule)

    def lookup(self, key: Sequence[int]) -> Optional[Rule]:
        best: Optional[Rule] = None
        best_priority = -(2**63)
        for table in self._tables.values():
            # Pruning: a sub-table whose best rule cannot beat the
            # current winner need not be probed.
            if table.max_priority <= best_priority:
                continue
            candidate = table.lookup(key)
            if candidate is not None and candidate.priority > best_priority:
                best = candidate
                best_priority = candidate.priority
        return best

    def __len__(self) -> int:
        return self._count

    def rules(self) -> List[Rule]:
        return [
            rule
            for table in self._tables.values()
            for bucket in table.buckets.values()
            for rule in bucket
        ]
