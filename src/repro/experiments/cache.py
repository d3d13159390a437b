"""Measured cache-layout experiments: working-set sweep + flow-cache
ablation.

Two studies back the hot/cold session-state split:

* :func:`working_set_sweep` **measures** what
  :func:`repro.experiments.fig10.llc_cliff` *models*: per-decision cost
  as the session working set grows, resolved through the production
  hot-record slab (:class:`~repro.up.hot_store.HotSessionStore`:
  dict -> dense index -> compact ``__slots__`` record) versus the
  pre-split dict-of-objects layout (dict -> fat session object ->
  property-delegated rule reads).  Both series run the *identical*
  resolution steps — session probe, classifier lookup, PDR/FAR/QER/URR
  resolution — so the delta is purely the state layout.
* :func:`flow_cache_ablation_sweep` measures the flow-cache
  capacity/associativity trade: hit rate and per-packet cost as the
  cache shrinks below the flow working set (capacity misses) and as
  associativity drops at fixed capacity (conflict misses, via
  :class:`SetAssociativeFlowCache`, which lives here because this
  ablation is its only user).

Records from both land in ``BENCH_cache.json`` via
``benchmarks/record_bench.py --suite cache``.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, List, Optional, Sequence

from ..classifier import Rule, exact
from ..net.packet import Direction, FiveTuple, Packet
from ..pfcp import ies as pfcp_ies
from ..sim import Environment
from ..up import FAR, FARAction, PDR, SessionTable, UPFSession, UPFUserPlane
from ..up.flow_cache import FlowCache, FlowCacheEntry, RuleEpoch
from ..up.keys import packet_key

__all__ = [
    "WORKING_SET_SESSIONS",
    "ABLATION_CAPACITIES",
    "ABLATION_WAYS",
    "WorkingSetRow",
    "CacheAblationRow",
    "SetAssociativeFlowCache",
    "build_session_table",
    "working_set_packets",
    "working_set_sweep",
    "flow_cache_ablation_sweep",
]

#: Session counts swept by the measured working-set study.
WORKING_SET_SESSIONS = (100, 1_000, 10_000, 30_000)

#: Flow-cache capacities swept at fixed flow count (capacity misses).
ABLATION_CAPACITIES = (256, 1024, 4096, 8192)

#: Associativity sweep at fixed capacity (conflict misses); 0 means
#: the production fully-associative LRU cache.
ABLATION_WAYS = (1, 2, 4, 8, 0)

UE_BASE = 0x0A000001
TEID_BASE = 0x10000
GNB_ADDRESS = 0xC0A80201
FAR_ID = 2
PDR_ID = 2


@dataclass
class WorkingSetRow:
    """One session count's measured per-decision cost, both layouts."""

    sessions: int
    packets: int
    slab_ns_per_packet: float
    dict_ns_per_packet: float

    @property
    def dict_over_slab(self) -> float:
        """How much the fat-object layout costs over the hot slab."""
        return self.dict_ns_per_packet / self.slab_ns_per_packet


@dataclass
class CacheAblationRow:
    """One flow-cache configuration's steady-state behavior."""

    capacity: int
    #: Set-associativity (0 = fully associative LRU).
    ways: int
    flows: int
    packets: int
    hit_rate: float
    evictions: int
    per_packet_us: float


def build_session_table(sessions: int) -> SessionTable:
    """A table with ``sessions`` one-DL-PDR sessions (distinct UE IPs).

    Each session carries the minimal decision state a forwarded DL
    packet touches — one exact-match PDR and its FORW FAR — so the
    sweep measures state *layout*, not rule-set size.
    """
    table = SessionTable()
    for i in range(sessions):
        session = UPFSession(
            seid=i + 1, ue_ip=UE_BASE + i, ul_teid=TEID_BASE + i
        )
        session.install_far(
            FAR(
                far_id=FAR_ID,
                action=FARAction(
                    destination_interface=pfcp_ies.ACCESS,
                    outer_teid=0x500,
                    outer_address=GNB_ADDRESS,
                ),
            )
        )
        session.install_pdr(
            PDR(
                pdr_id=PDR_ID,
                precedence=10,
                match=Rule.from_fields(
                    priority=100,
                    rule_id=PDR_ID,
                    far_id=FAR_ID,
                    dst_ip=exact(UE_BASE + i),
                    source_iface=exact(pfcp_ies.CORE),
                ),
                far_id=FAR_ID,
                source_interface=pfcp_ies.CORE,
            )
        )
        table.add(session)
    return table


def working_set_packets(sessions: int) -> List[Packet]:
    """One DL packet per session, so a measurement pass touches every
    session's state exactly once (a full working-set traversal)."""
    return [
        Packet(
            direction=Direction.DOWNLINK,
            flow=FiveTuple(
                src_ip=1, dst_ip=UE_BASE + i, src_port=80, dst_port=4000
            ),
            size=128,
        )
        for i in range(sessions)
    ]


def _resolve_slab(store, packet):
    """The production resolution path: slab probe + hot-record reads.

    Step-for-step identical to :func:`_resolve_dict` — session probe,
    key build, classifier lookup, rule-container reads — so the
    measured delta is the state layout alone (dense slab + fixed-offset
    slot loads vs. object dict + property-delegated reads).
    """
    record = store.by_ue_ip(packet.flow.dst_ip)
    if record is None:
        return None
    key = packet_key(packet)
    rule = record.classifier.lookup(key)
    if rule is None:
        return None
    pdr = record.pdrs.get(rule.rule_id)
    far = record.fars.get(pdr.far_id)
    enforcer = (
        record.qer_enforcers.get(pdr.qer_id)
        if pdr.qer_id is not None
        else None
    )
    counter = (
        record.usage_counters.get(pdr.urr_id)
        if pdr.urr_id is not None
        else None
    )
    return far, enforcer, counter


def _resolve_dict(by_ue_ip, packet):
    """The pre-split layout: object dict probe + fat-object reads.

    Identical steps to :func:`_resolve_slab`; the session's rule
    containers are read through the cold object's delegation surface,
    which is how every access paid for the full session context before
    the split.
    """
    session = by_ue_ip.get(packet.flow.dst_ip)
    if session is None:
        return None
    key = packet_key(packet)
    rule = session.classifier.lookup(key)
    if rule is None:
        return None
    pdr = session.pdrs.get(rule.rule_id)
    far = session.fars.get(pdr.far_id)
    enforcer = (
        session.qer_enforcers.get(pdr.qer_id)
        if pdr.qer_id is not None
        else None
    )
    counter = (
        session.usage_counters.get(pdr.urr_id)
        if pdr.urr_id is not None
        else None
    )
    return far, enforcer, counter


def _measure_ns(resolve, arg, packets, passes: int) -> float:
    """Mean ns per resolution over ``passes`` working-set traversals."""
    # Warm pass: fault code paths and hash tables before timing.
    for packet in packets:
        resolve(arg, packet)
    begin = time.perf_counter()
    for _ in range(passes):
        for packet in packets:
            resolve(arg, packet)
    elapsed = time.perf_counter() - begin
    return elapsed / (passes * len(packets)) * 1e9


def working_set_sweep(
    session_counts: Sequence[int] = WORKING_SET_SESSIONS,
    repeats: int = 3,
    min_resolutions: int = 20_000,
) -> List[WorkingSetRow]:
    """Measured per-decision cost vs. working-set size, slab vs. dict.

    Each point takes the best of ``repeats`` measurements (the minimum
    is the least noisy estimator); every measurement traverses the
    whole working set round-robin so consecutive resolutions never
    reuse a session's state — the access pattern that defeats locality
    and exposes the layout.
    """
    rows: List[WorkingSetRow] = []
    for sessions in session_counts:
        table = build_session_table(sessions)
        packets = working_set_packets(sessions)
        # Legacy-layout emulation: the object dict the table kept per
        # key before the hot/cold split.
        by_ue_ip = {s.ue_ip: s for s in table.sessions()}
        passes = max(1, min_resolutions // sessions)
        slab_ns = min(
            _measure_ns(_resolve_slab, table.hot_store, packets, passes)
            for _ in range(repeats)
        )
        dict_ns = min(
            _measure_ns(_resolve_dict, by_ue_ip, packets, passes)
            for _ in range(repeats)
        )
        rows.append(
            WorkingSetRow(
                sessions=sessions,
                packets=passes * sessions,
                slab_ns_per_packet=slab_ns,
                dict_ns_per_packet=dict_ns,
            )
        )
    return rows


class SetAssociativeFlowCache(FlowCache):
    """A set-associative flow cache for the capacity/associativity
    ablation.

    Hardware exact-match caches are not fully associative: a key hashes
    to one of ``capacity // ways`` sets and competes only with the
    ``ways`` entries of that set, so colliding flows can thrash a set
    long before the cache is globally full (conflict misses).  This
    variant reproduces that behavior — per-set LRU over ``ways``
    entries — so the ablation can separate capacity misses (fixed by a
    bigger cache) from conflict misses (fixed by more ways).

    Each set is an ``OrderedDict``; every operation binds the set(s) it
    concerns as ``_entries`` and runs the inherited fully-associative
    code on it, so :attr:`capacity` is the per-set bound (= ways).  The
    inherited bulk operations are not set-aware and have no caller.
    """

    __slots__ = ("_sets",)

    def __init__(self, epoch: RuleEpoch, capacity: int, ways: int) -> None:
        if ways <= 0 or capacity % ways != 0:
            raise ValueError(
                f"ways must divide capacity: ways={ways!r}, "
                f"capacity={capacity!r}"
            )
        super().__init__(epoch, capacity=ways)
        self._sets: list = [OrderedDict() for _ in range(capacity // ways)]

    def _set_for(self, key: Hashable) -> "OrderedDict":
        return self._sets[hash(key) % len(self._sets)]

    def lookup(self, key: Hashable) -> Optional[FlowCacheEntry]:
        self._entries = self._set_for(key)
        return super().lookup(key)

    def insert(
        self,
        key: Hashable,
        session: Any,
        pdr: Any,
        far: Any,
        enforcer: Any = None,
        counter: Any = None,
    ) -> FlowCacheEntry:
        # A full set evicts even though the cache as a whole may not be
        # full: the conflict eviction the ablation counts.
        self._entries = self._set_for(key)
        return super().insert(key, session, pdr, far, enforcer, counter)

    def purge_session(self, session: Any) -> int:
        purged = 0
        for entries in self._sets:
            self._entries = entries
            purged += super().purge_session(session)
        return purged

    def clear(self) -> None:
        for entries in self._sets:
            self._entries = entries
            super().clear()

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._sets)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._set_for(key)


def _build_ablation_upf(
    flows: int, capacity: int, ways: int
) -> UPFUserPlane:
    """One-session UPF whose flow cache has the requested geometry."""
    table = build_session_table(1)
    upf_u = UPFUserPlane(
        Environment(), table, flow_cache=True, flow_cache_capacity=capacity
    )
    if ways:
        # Swap in the set-associative variant (UPF-U private state).
        upf_u.flow_cache = SetAssociativeFlowCache(
            table.epoch, capacity=capacity, ways=ways
        )
    return upf_u


def _ablation_packets(flows: int) -> List[Packet]:
    """``flows`` distinct DL microflows into the single test session."""
    return [
        Packet(
            direction=Direction.DOWNLINK,
            flow=FiveTuple(
                src_ip=1,
                dst_ip=UE_BASE,
                src_port=1024 + (i % 0xF000),
                dst_port=4000 + i // 0xF000,
            ),
            size=128,
        )
        for i in range(flows)
    ]


def flow_cache_ablation_sweep(
    capacities: Sequence[int] = ABLATION_CAPACITIES,
    ways_sweep: Sequence[int] = ABLATION_WAYS,
    flows: int = 2048,
    passes: int = 4,
) -> List[CacheAblationRow]:
    """Hit rate and cost vs. flow-cache capacity and associativity.

    The capacity sweep holds ``flows`` fixed and shrinks the cache
    through it: once ``capacity < flows`` the LRU round-robin working
    set thrashes (hit rate collapses — the capacity-miss cliff).  The
    associativity sweep holds capacity fixed at the largest value and
    reduces ways: conflict evictions appear even though the cache is
    bigger than the working set.
    """
    rows: List[CacheAblationRow] = []
    configs = [(capacity, 0) for capacity in capacities] + [
        (max(capacities), ways) for ways in ways_sweep if ways
    ]
    for capacity, ways in configs:
        upf_u = _build_ablation_upf(flows, capacity, ways)
        packets = _ablation_packets(flows)
        process = upf_u.process
        for packet in packets:  # warm/fill pass (not timed)
            process(packet)
            packet.teid = None
        cache = upf_u.flow_cache
        cache.hits = cache.misses = cache.stale = 0
        cache.evictions = 0
        begin = time.perf_counter()
        for _ in range(passes):
            for packet in packets:
                packet.teid = None  # undo the previous pass's encap
                process(packet)
        elapsed = time.perf_counter() - begin
        measured = passes * flows
        rows.append(
            CacheAblationRow(
                capacity=capacity,
                ways=ways,
                flows=flows,
                packets=measured,
                hit_rate=cache.hit_rate,
                evictions=cache.evictions,
                per_packet_us=elapsed / measured * 1e6,
            )
        )
    return rows
