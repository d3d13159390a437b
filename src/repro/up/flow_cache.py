"""Flow cache: the microflow fast path of the UPF-U pipeline.

The per-packet match pipeline — dual-hash session lookup (§3.2), the
20-field key build, the PDR classifier walk (§3.4), and the FAR / QER /
URR dict lookups — is identical for every packet of a flow, yet the
baseline pipeline re-runs all of it per packet.  Real UPFs (5GC²ache)
and software switches (OVS's exact-match microflow cache) memoize the
*decision* instead: the first packet of a flow pays the full pipeline,
and every steady-state packet resolves with a single exact-match probe.

This module provides that cache:

* **Key** — the packet's exact 20-field classification key
  (:func:`repro.up.keys.packet_key`).  Because the key embeds the
  session-selecting fields (TEID for UL, UE IP for DL, plus the source
  interface that encodes direction), a key uniquely determines the
  whole decision tuple.
* **Value** — :class:`FlowCacheEntry`: the resolved ``(session, PDR,
  FAR, QER enforcer, usage counter)``.  Only the *match* result is
  cached: QER policing and URR accounting are per-packet actions and
  always execute.
* **Invalidation** — epoch-based, reproducing §3.2's zero-cost state
  update at the cache layer.  A rule commit (``UPFSession.apply``, one
  per PFCP request) and a ``SessionTable.add``/``remove`` each bump a
  shared :class:`RuleEpoch` once, in one ``_publish`` call; entries
  record the epoch at fill time and a hit
  whose recorded epoch is stale self-invalidates.  No scan, no
  callback fan-out on the data path — a rule change is one integer
  increment.
* **Capacity** — CLOCK (second-chance) keeps memory flat under many
  flows: a hit sets one reference bit, and a full cache admits one
  miss in ``FULL_ADMIT_INTERVAL`` (the hand evicts the first entry not
  hit since it last passed) and declines the rest (DESIGN §8).
"""

from __future__ import annotations

from typing import Any, Hashable, Optional

from ..analysis import races as _races  # repro: noqa[W004] -- race-detector hooks, no-ops unless a detector is installed

__all__ = [
    "DEFAULT_FLOW_CACHE_CAPACITY",
    "RuleEpoch",
    "FlowCacheEntry",
    "FlowCache",
]

#: Default capacity.  Sized like OVS's EMC (8k entries): large enough
#: that a steady working set of flows stays resident, small enough that
#: the table is cache-friendly and memory stays flat under churn.
DEFAULT_FLOW_CACHE_CAPACITY = 8192

#: A full cache admits one miss in this many, like OVS's EMC
#: (``emc-insert-inv-prob``); evicting more cannot raise the hit ratio.
FULL_ADMIT_INTERVAL = 32


class RuleEpoch:
    """A monotonic generation counter shared by rule-mutating state.

    The counter is the entire invalidation protocol: mutators call
    :meth:`bump`, readers compare a remembered ``value`` against the
    current one.  Bumping never touches cached entries, so a PFCP rule
    install costs O(1) regardless of how many flows are cached.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self) -> int:
        """Invalidate every decision derived from the previous epoch."""
        self.value += 1
        return self.value

    def __repr__(self) -> str:
        return f"RuleEpoch({self.value})"


class FlowCacheEntry:
    """One memoized pipeline decision, stamped with its fill epoch.

    Attributes
    ----------
    generation:
        ``RuleEpoch.value`` at fill time; a stale stamp is a miss.
    session:
        The :class:`~repro.up.session.UPFSession` the slow path
        resolved — the very object the session table holds, so a hit
        buffers, meters and reports against live state.
    pdr, far, enforcer, counter:
        The matched rule, its forwarding action, and the QER enforcer
        / URR counter it names (None when it names none).  Only the
        match is cached: QER/URR verdicts are per packet.
    referenced, slot:
        CLOCK state: set by every hit, cleared by the passing hand;
        the index of the entry's key in the cache's ring.
    """

    __slots__ = (
        "generation", "session", "pdr", "far", "enforcer", "counter",
        "referenced", "slot",
    )

    def __init__(self, generation, session, pdr, far, enforcer, counter,
                 slot=-1):
        self.generation = generation
        self.session = session
        self.pdr = pdr
        self.far = far
        self.enforcer = enforcer
        self.counter = counter
        self.referenced = False
        self.slot = slot

    def __repr__(self) -> str:
        return (
            f"FlowCacheEntry(gen={self.generation}, "
            f"seid={getattr(self.session, 'seid', None)}, "
            f"pdr={getattr(self.pdr, 'pdr_id', self.pdr)})"
        )


class FlowCache:
    """Exact-match CLOCK cache of pipeline decisions, throttled when full.

    A resident key sits in one slot of a ring of at most ``capacity``
    keys; slots freed by stale deletion or a purge go on a free list.

    Parameters
    ----------
    epoch:
        The shared :class:`RuleEpoch` bumped by every rule mutation
        (normally ``SessionTable.epoch``).
    capacity:
        Bound on resident entries.
    """

    __slots__ = (
        "_epoch",
        "capacity",
        "_entries",
        "_ring",
        "_free",
        "_hand",
        "hits",
        "misses",
        "stale",
        "evictions",
        "inserts",
        "purged",
        "declined",
        "_declines_left",
    )

    def __init__(
        self,
        epoch: RuleEpoch,
        capacity: int = DEFAULT_FLOW_CACHE_CAPACITY,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity!r}")
        self._epoch = epoch
        self.capacity = capacity
        self._entries: "dict[Hashable, FlowCacheEntry]" = {}
        #: Ring slot -> resident key (None while the slot is free).
        self._ring: "list[Optional[Hashable]]" = []
        #: Slots vacated by stale deletion or a purge, refilled first.
        self._free: "list[int]" = []
        #: The next slot the eviction sweep examines.
        self._hand = 0
        #: Fast-path hits (valid entry, current epoch).
        self.hits = 0
        #: Probes that found nothing usable (absent or stale).
        self.misses = 0
        #: Misses caused specifically by epoch invalidation.
        self.stale = 0
        #: Entries dropped to enforce the capacity bound.
        self.evictions = 0
        #: Entries filled by the slow path.
        self.inserts = 0
        #: Entries dropped eagerly on session removal.
        self.purged = 0
        #: Misses a full cache did not admit (nothing built or evicted).
        self.declined = 0
        self._declines_left = 0
        detector = _races.active()
        if detector is not None:
            # The cache is UPF-U private state: only the forwarding
            # pipeline may fill, probe, or purge it.
            detector.register(self, label="flow-cache", owner="upf-u")

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def insert(
        self, key: Hashable, session: Any, pdr: Any, far: Any,
        enforcer: Any = None, counter: Any = None,
    ) -> Optional[FlowCacheEntry]:
        """Memoize one slow-path decision under the current epoch; None
        when :meth:`_admit` declines a new key (a resident one is
        replaced in its slot)."""
        detector = _races._ACTIVE
        if detector is not None:
            detector.on_write(
                self, "entries", value=len(self._entries) + 1,
                detail=f"insert(seid={getattr(session, 'seid', None)})",  # repro: noqa[W001] -- race-detector instrumentation, gated behind `detector is not None`
            )
        entries = self._entries
        resident = entries.get(key)
        if resident is not None:
            slot = resident.slot
        else:
            slot = self._admit(key)
            if slot is None:
                return None
        entry = FlowCacheEntry(  # repro: noqa[W001] -- cache-miss slow path only: the entry IS the memoization; never built on a hit
            self._epoch.value, session, pdr, far, enforcer, counter, slot
        )
        entries[key] = entry
        self.inserts += 1
        return entry

    def _admit(self, key: Hashable) -> Optional[int]:
        """Give an absent key a ring slot, or None to decline its miss.

        With room, every miss is admitted: a free slot first, then a
        new one at the ring's end.  Once full, a deterministic
        countdown admits the first miss and declines the next
        ``FULL_ADMIT_INTERVAL - 1``: under uniform traffic every
        replacement policy keeps the same share of the working set
        resident, so each eviction beyond that is pure cost.  The
        admitted miss sweeps the hand, clearing each reference bit it
        passes, and evicts the first entry whose bit was already clear
        — one not hit since the hand last passed it.  Stale deletion
        and :meth:`purge_session` free slots, which the next misses
        refill without waiting.
        """
        ring = self._ring
        free = self._free
        if free:
            slot = free.pop()
        elif len(ring) < self.capacity:
            slot = len(ring)
            ring.append(None)
        elif self._declines_left:
            self._declines_left -= 1
            self.declined += 1
            return None
        else:
            entries = self._entries
            capacity = self.capacity
            slot = self._hand
            while True:
                victim = entries[ring[slot]]
                if not victim.referenced:
                    break
                victim.referenced = False
                slot += 1
                if slot == capacity:
                    slot = 0
            del entries[ring[slot]]
            self._hand = slot + 1 if slot + 1 < capacity else 0
            self.evictions += 1
            self._declines_left = FULL_ADMIT_INTERVAL - 1
        ring[slot] = key
        return slot

    def _vacate(self, key: Hashable, entry: FlowCacheEntry) -> None:
        """Drop a resident entry and return its slot to the free list."""
        del self._entries[key]
        self._ring[entry.slot] = None
        self._free.append(entry.slot)

    def lookup(self, key: Hashable) -> Optional[FlowCacheEntry]:
        """One exact-match probe; None on miss or stale entry.  A hit
        hashes the key once: recency is one reference bit."""
        detector = _races._ACTIVE
        if detector is not None:
            detector.on_read(self, "entries")
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if entry.generation != self._epoch.value:
            # Lazy invalidation: the epoch moved since fill time, so
            # the decision may no longer be derivable — drop and re-run
            # the pipeline.
            self._vacate(key, entry)
            self.stale += 1
            self.misses += 1
            return None
        entry.referenced = True
        self.hits += 1
        return entry

    # ------------------------------------------------------------------
    # Bulk operations.  No caller left in src/ (process_burst probes
    # per packet, DESIGN §12); kept because the frozen benchmarks/e2e
    # drivers and layer probes name all three.  Removal belongs with
    # the next change to the benchmark harness (ROADMAP item 1a).
    # ------------------------------------------------------------------
    def lookup_many(self, keys):
        """Bulk exact-match probe over a burst's distinct keys.

        One race-detector read and one epoch load cover the whole
        batch.  Unlike :meth:`lookup` this sets *no* reference bit,
        counter or stale-entry deletion — those effects replay per
        packet in :meth:`commit_burst` so the cache evolves exactly
        as it would under one-at-a-time processing.

        Returns ``(found, stale)``: ``found`` maps each key holding a
        current-epoch entry to that entry; ``stale`` is the set of keys
        whose resident entry predates the epoch (left in place so the
        replay deletes each one in its packet's turn).
        """
        detector = _races._ACTIVE
        if detector is not None:
            detector.on_read(self, "entries")
        generation = self._epoch.value
        found = {}
        stale = set()
        get = self._entries.get
        for key in keys:
            entry = get(key)
            if entry is None:
                continue
            if entry.generation != generation:
                stale.add(key)
            else:
                found[key] = entry
        return found, stale

    def touch_burst(self, touch_keys, hits: int) -> None:
        """All-hit fast path: fold one burst's reference bits and hits.

        Precondition (asserted by the caller's probe): every distinct
        key of the burst is resident at the current epoch, so the
        per-packet replay would only set reference bits.  One bit per
        distinct key (``touch_keys``) leaves the state the replay
        would; ``hits`` (the burst's cache-keyed packet count) folds
        into the hit counter exactly as the per-packet replay would.
        """
        detector = _races._ACTIVE
        if detector is not None:
            detector.on_write(
                self, "entries", detail=f"touch_burst({hits} packets)"
            )
        entries = self._entries
        for key in touch_keys:
            entries[key].referenced = True
        self.hits += hits

    def commit_burst(self, keys, resolved, start: int = 0) -> None:
        """Replay a burst's per-packet cache effects in arrival order.

        ``keys`` is the burst's per-packet key list from index
        ``start`` on (``None`` entries — cache-bypassing packets — are
        skipped); ``resolved`` maps each distinct key with an
        apply-able decision to its :class:`FlowCacheEntry`.  Each
        position performs exactly what the sequential ``lookup`` +
        ``insert`` pair would have, through the same helpers: a
        resident current-epoch entry is referenced (hit); a stale
        entry is vacated and, when resolved, re-filled; an absent key
        is a miss, filled when resolved and admitted by :meth:`_admit`.
        Slots, bits, the hand, eviction victims, and the hit/miss/
        stale/insert/eviction/declined counters therefore match
        one-at-a-time processing exactly when no epoch bump lands
        mid-burst.  (The all-hit steady state takes :meth:`touch_burst`
        instead.)
        """
        detector = _races._ACTIVE
        if detector is not None:
            detector.on_write(
                self, "entries",
                detail=f"commit_burst({len(keys) - start} packets)",
            )
        entries = self._entries
        generation = self._epoch.value
        get = entries.get
        admit = self._admit
        hits = misses = stale = inserts = 0
        for i in range(start, len(keys)):
            key = keys[i]
            if key is None:
                continue
            entry = get(key)
            if entry is not None:
                if entry.generation == generation:
                    entry.referenced = True
                    hits += 1
                    continue
                self._vacate(key, entry)
                stale += 1
            misses += 1
            decision = resolved.get(key)
            if decision is None:
                continue
            slot = admit(key)
            if slot is None:
                continue
            decision.referenced = False
            decision.slot = slot
            entries[key] = decision
            inserts += 1
        self.hits += hits
        self.misses += misses
        self.stale += stale
        self.inserts += inserts

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def purge_session(self, session: Any) -> int:
        """Eagerly drop a removed session's entries (frees the refs).

        The epoch bump already guarantees correctness; this exists so a
        deleted session's context is not pinned in memory until the
        hand happens to evict its flows.
        """
        detector = _races._ACTIVE
        if detector is not None:
            detector.on_write(
                self, "entries",
                detail=f"purge_session(seid={getattr(session, 'seid', None)})",
            )
        dead = [
            (key, entry) for key, entry in self._entries.items()
            if entry.session is session
        ]
        for key, entry in dead:
            self._vacate(key, entry)
        self.purged += len(dead)
        return len(dead)

    def clear(self) -> None:
        detector = _races._ACTIVE
        if detector is not None:
            detector.on_write(self, "entries", detail="clear()")
        self._entries.clear()
        self._ring.clear()
        self._free.clear()
        self._hand = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @property
    def hit_rate(self) -> float:
        """Hits over all probes (0.0 before any traffic)."""
        probes = self.hits + self.misses
        return self.hits / probes if probes else 0.0

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def register_into(self, registry, prefix: str = "flow_cache") -> None:
        """Export the counters as live gauges on a MetricsRegistry."""
        for name in (
            "hits",
            "misses",
            "stale",
            "evictions",
            "inserts",
            "purged",
            "declined",
        ):
            registry.gauge(f"{prefix}.{name}").set_function(
                lambda name=name: getattr(self, name)
            )
        registry.gauge(f"{prefix}.entries").set_function(lambda: len(self))
        registry.gauge(f"{prefix}.hit_rate").set_function(
            lambda: self.hit_rate
        )
