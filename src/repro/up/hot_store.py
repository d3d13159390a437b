"""Hot/cold session-state split: the compact hot-session slab.

5GC²ache's measurement (PAPERS.md) is that UPF throughput is
cache-residency-bound: per-packet forwarding touches a few decision
fields of the session context, yet the baseline layout drags the whole
context — accounting counters, lifecycle flags, the smart buffer —
through the cache hierarchy on every lookup.  Once the session working
set overflows LLC, ns/packet cliffs.

This module splits one PDU session's state the way a cache-aware UPF
lays out its tables:

* **Hot** — :class:`HotSessionRecord`: exactly what the per-packet
  decision needs.  The dual hash keys (UL TEID / UE IP), the PDR
  classifier and rule dicts (PDI match fields), the FAR actions, the
  QER-enforcer / URR-counter refs, and the rule-epoch stamp.  Records
  are ``__slots__``-compact and live in a dense slab.
* **Cold** — everything else stays on :class:`~repro.up.session.UPFSession`:
  usage accounting history, the smart buffer, the report-pending
  lifecycle flag, raw QER rule records.  The pipeline dereferences the
  cold object only on reports and lifecycle transitions (buffering
  episodes, usage-report trips, drain bookkeeping) — never on the
  steady-state forward path.
* **Slab** — :class:`HotSessionStore`: records keyed by a shard-local
  *dense index*.  The TEID / UE-IP maps hold small integers, the slab
  itself is one contiguous list, and freed indices recycle through a
  free list so the slab stays dense under churn.  This is the Python
  rendering of the paper-style array-of-64B-records layout the
  :class:`~repro.core.costs.CostModel` cache-hierarchy term prices.

Ownership is unchanged: the UPF-C role is the only writer of slab
membership (via ``SessionTable.add/remove``); the UPF-U resolves
against it read-only on the data path.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..analysis import races as _races  # repro: noqa[W004] -- race-detector hooks, no-ops unless a detector is installed
from .keys import packet_key

__all__ = ["HotSessionRecord", "HotSessionStore"]

#: Slab slot of a record not (currently) adopted by any store.
UNSLABBED = -1


class HotSessionRecord:
    """One session's per-packet decision state, slab-resident.

    The record is deliberately flat and ``__slots__``-backed: the
    forwarding pipeline reads ``classifier`` / ``fars`` /
    ``qer_enforcers`` / ``usage_counters`` off it with fixed-offset
    attribute loads, and the whole decision surface for one session is
    one compact object instead of a dict-backed context.  ``cold``
    points back at the owning :class:`~repro.up.session.UPFSession`;
    the pipeline follows it only on reports and lifecycle transitions.
    """

    __slots__ = (
        "index",
        "seid",
        "ue_ip",
        "ul_teid",
        "classifier",
        "pdrs",
        "fars",
        "qer_enforcers",
        "usage_counters",
        "epoch",
        "cold",
    )

    def __init__(self, seid, ue_ip, ul_teid, classifier, epoch, cold=None):
        #: Dense slab index while adopted; :data:`UNSLABBED` otherwise.
        self.index = UNSLABBED
        self.seid = seid
        self.ue_ip = ue_ip
        self.ul_teid = ul_teid
        #: The PDR lookup structure (PDI match fields live inside).
        self.classifier = classifier
        self.pdrs: Dict[int, object] = {}
        self.fars: Dict[int, object] = {}
        self.qer_enforcers: Dict[int, object] = {}
        self.usage_counters: Dict[int, object] = {}
        #: Rule-mutation epoch stamp (rebound to the table's shared
        #: epoch when the session is installed).
        self.epoch = epoch
        #: The cold half (accounting, lifecycle, smart buffer).
        self.cold = cold

    def match_pdr(self, packet, key=None):
        """Classify a packet against this session's PDRs.

        ``key`` accepts a pre-built classification key so callers that
        already derived it (the flow-cache miss path) don't pay the
        20-field build twice.  The race-detector read is recorded
        against the cold session object — the registered owner of the
        rule parts — and only when a detector is installed.
        """
        detector = _races._ACTIVE
        if detector is not None:
            detector.on_read(self.cold, "pdrs")
        if key is None:
            key = packet_key(packet)
        rule = self.classifier.lookup(key)
        if rule is None:
            return None
        return self.pdrs.get(rule.rule_id)

    def __repr__(self) -> str:
        return (
            f"HotSessionRecord(index={self.index}, seid={self.seid}, "
            f"teid={self.ul_teid:#x}, ue_ip={self.ue_ip:#x})"
        )


class HotSessionStore:
    """The per-shard slab of :class:`HotSessionRecord`.

    Lookups are the data-plane hot path: a small-int dict probe
    (TEID or UE IP -> dense index) followed by one slab index.  The
    maps never hold record objects, so the lookup structures stay
    compact regardless of how much cold state each session carries —
    the layout property the working-set sweep measures and the
    cost model's :meth:`~repro.core.costs.CostModel.state_access_latency`
    prices.

    Membership (``adopt`` / ``release``) is control-plane work driven
    by ``SessionTable.add`` / ``remove``; the table records the
    race-detector membership write, so the store itself stays hook-free
    on the read path.
    """

    __slots__ = (
        "_slab",
        "_free",
        "_teid_index",
        "_ue_ip_index",
        "adopted",
        "released",
        "peak_live",
    )

    def __init__(self) -> None:
        self._slab: List[Optional[HotSessionRecord]] = []
        self._free: List[int] = []
        self._teid_index: Dict[int, int] = {}
        self._ue_ip_index: Dict[int, int] = {}
        #: Lifetime adopt / release counts (slab churn accounting).
        self.adopted = 0
        self.released = 0
        #: High-water mark of concurrently live records.
        self.peak_live = 0

    # ------------------------------------------------------------------
    # Membership (UPF-C role, via SessionTable)
    # ------------------------------------------------------------------
    def adopt(self, record: HotSessionRecord) -> int:
        """Install a record, assigning it a dense slab index."""
        if record.index != UNSLABBED:
            raise ValueError(
                f"record seid={record.seid} already slabbed "
                f"at index {record.index}"
            )
        if record.ul_teid in self._teid_index:
            raise ValueError(f"duplicate UL TEID {record.ul_teid}")
        if record.ue_ip in self._ue_ip_index:
            raise ValueError(f"duplicate UE IP {record.ue_ip}")
        if self._free:
            index = self._free.pop()
            self._slab[index] = record
        else:
            index = len(self._slab)
            self._slab.append(record)
        record.index = index
        self._teid_index[record.ul_teid] = index
        self._ue_ip_index[record.ue_ip] = index
        self.adopted += 1
        live = len(self)
        if live > self.peak_live:
            self.peak_live = live
        return index

    def release(self, record: HotSessionRecord) -> None:
        """Remove a record, recycling its slab slot."""
        index = record.index
        if index == UNSLABBED or (
            index >= len(self._slab) or self._slab[index] is not record
        ):
            raise ValueError(
                f"record seid={record.seid} is not resident in this slab"
            )
        self._slab[index] = None
        self._free.append(index)
        del self._teid_index[record.ul_teid]
        del self._ue_ip_index[record.ue_ip]
        record.index = UNSLABBED
        self.released += 1

    # ------------------------------------------------------------------
    # Data path (UPF-U role, read-only)
    # ------------------------------------------------------------------
    def by_teid(self, teid: int) -> Optional[HotSessionRecord]:
        """UL resolve: tunnel endpoint -> hot record (or None)."""
        index = self._teid_index.get(teid)
        if index is None:
            return None
        return self._slab[index]

    def by_ue_ip(self, ue_ip: int) -> Optional[HotSessionRecord]:
        """DL resolve: UE address -> hot record (or None)."""
        index = self._ue_ip_index.get(ue_ip)
        if index is None:
            return None
        return self._slab[index]

    def by_index(self, index: int) -> Optional[HotSessionRecord]:
        """Dense-index resolve (slab-local addressing)."""
        if 0 <= index < len(self._slab):
            return self._slab[index]
        return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._slab) - len(self._free)

    @property
    def slab_size(self) -> int:
        """Total slots (live + free) — the slab's allocated extent."""
        return len(self._slab)

    def records(self) -> Iterator[HotSessionRecord]:
        """Live records in slab order."""
        for record in self._slab:
            if record is not None:
                yield record

    def register_into(self, registry, prefix: str = "hot_store") -> None:
        """Export slab occupancy/churn as live gauges."""
        registry.gauge(f"{prefix}.live").set_function(lambda: len(self))
        registry.gauge(f"{prefix}.slab_size").set_function(
            lambda: self.slab_size
        )
        registry.gauge(f"{prefix}.peak_live").set_function(
            lambda: self.peak_live
        )
        registry.gauge(f"{prefix}.adopted").set_function(lambda: self.adopted)
        registry.gauge(f"{prefix}.released").set_function(
            lambda: self.released
        )
