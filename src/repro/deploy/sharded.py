"""Sharded multi-UPF scale-out: RSS dispatch, per-shard data planes.

One UPF-U pipeline serves every UE from a single ``SessionTable`` /
``FlowCache``; the ROADMAP's "millions of users" needs horizontal
scale-out.  This module runs N independent UPF-U workers behind the
NIC-style dispatch the paper already leans on (§4: RSS segregates
packets into per-unit receive queues):

* :class:`ShardRouter` — an RSS indirection table programmed from a
  consistent-hash ring.  Dispatch is one walk of four byte tables (the
  masked Toeplitz hash of the UL TEID or DL UE IP gives a bucket), then
  bucket to shard.  A shard failure remaps only that shard's buckets.
* TEID *steering* — Toeplitz is linear over GF(2), so the router
  allocates uplink TEIDs whose hash lands in the same bucket as the
  session's UE IP (the trick DPDK applications use to pin a flow to a
  chosen queue).  A session's UL and DL keys therefore live on the
  same shard under any bucket map, including after rebalance.
* :class:`ShardedSessionTable` — a :class:`SessionTableView` the
  UPF-C routes PFCP establish/modify/delete through unchanged.
* :class:`ShardedUserPlane` — the facade owning per-shard
  ``SessionTable`` + ``UPFUserPlane`` (each with its own ``FlowCache``
  and ``RuleEpoch``) and the failure/rebalance path.
* :class:`ShardedUPFControlPlane` — the N4 endpoint whose CHOOSE
  F-TEID allocations are steered.

Each fact has one record: where a session lives is the shard table
holding it (plus a SEID index written beside it), and which shards
serve is the router's membership.

Ownership is unchanged from the single-UPF split: the UPF-C role is
the only writer of session membership and rules (on every shard); each
shard's UPF-U owns its runtime state, as the race detector checks.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Set

from ..analysis import races as _races
from ..core.costs import DEFAULT_COSTS, CostModel
from ..net.packet import Direction, Packet
from ..obs.metrics import MetricsRegistry
from ..up import (
    DEFAULT_FLOW_CACHE_CAPACITY,
    ForwardingStats,
    SessionTable,
    SessionTableView,
    UPFControlPlane,
    UPFSession,
    UPFUserPlane,
)
from .rss import DEFAULT_RSS_KEY, bucket_tables, toeplitz_windows

__all__ = [
    "ShardRouter",
    "ShardedSessionTable",
    "ShardedUserPlane",
    "ShardedUPFControlPlane",
    "UPFShard",
]


def _ring_point(label: str) -> int:
    """A stable 64-bit ring position (never the salted builtin hash)."""
    return int.from_bytes(
        hashlib.blake2b(label.encode(), digest_size=8).digest(), "big"
    )


class _TeidSteering:
    """Solve ``bucket(teid) == target`` over GF(2).

    ``toeplitz_windows()[p]`` is the hash of input bit ``p`` alone; the
    low ``log2(table_size)`` bits of the first few windows form a
    matrix over GF(2).  Gaussian elimination finds, for every bucket
    *syndrome*, the XOR of input bits that produces it — the
    correction mask.  With the Microsoft key and 128 buckets only the
    TEID's top 7 bits are needed, leaving a 24-bit counter space
    untouched, so steered TEIDs stay unique.
    """

    #: Input bits the solver may claim, counted from the TEID MSB.
    #: Allocation counters must stay below 2**(32 - MAX_STEER_BITS).
    MAX_STEER_BITS = 16

    def __init__(self, key: bytes, table_size: int):
        mask = table_size - 1
        windows = toeplitz_windows(key, bits=self.MAX_STEER_BITS)
        pivots: Dict[int, tuple] = {}
        bits_needed = table_size.bit_length() - 1
        self.steer_bits = 0
        for position, window in enumerate(windows):
            syndrome = window & mask
            input_mask = 1 << (31 - position)
            for bit in sorted(pivots, reverse=True):
                if syndrome >> bit & 1:
                    pivot_syndrome, pivot_mask = pivots[bit]
                    syndrome ^= pivot_syndrome
                    input_mask ^= pivot_mask
            if syndrome:
                pivots[syndrome.bit_length() - 1] = (syndrome, input_mask)
            if len(pivots) == bits_needed:
                self.steer_bits = position + 1
                break
        if len(pivots) < bits_needed:
            raise ValueError(
                f"RSS key cannot steer {table_size} buckets with "
                f"{self.MAX_STEER_BITS} input bits"
            )
        # Enumerate every syndrome's correction once; steering is then
        # a single table lookup per allocation.
        self.fix: List[int] = []
        for syndrome in range(table_size):
            correction = 0
            for bit in sorted(pivots, reverse=True):
                if syndrome >> bit & 1:
                    pivot_syndrome, pivot_mask = pivots[bit]
                    syndrome ^= pivot_syndrome
                    correction ^= pivot_mask
            self.fix.append(correction)


class ShardRouter:
    """Consistent-hash-programmed RSS indirection for shard dispatch.

    The data plane sees pure RSS: ``bucket = toeplitz(key32) & mask``,
    ``shard = table[bucket]`` — the lookup a NIC performs, with hash
    and mask read from four byte tables built once.  The
    control plane programs ``table`` from a consistent-hash ring
    (``VNODES`` virtual nodes per shard), so removing a shard moves
    only the buckets that pointed at it.
    """

    VNODES = 16

    def __init__(
        self,
        num_shards: int,
        table_size: int = 128,
        key: bytes = DEFAULT_RSS_KEY,
    ):
        if num_shards <= 0:
            raise ValueError("need at least one shard")
        if table_size <= 0 or table_size & (table_size - 1):
            raise ValueError("table_size must be a power of two")
        self.num_shards = num_shards
        self.table_size = table_size
        self.key = key
        self._buckets = bucket_tables(key, table_size - 1)
        self._steering = _TeidSteering(key, table_size)
        self._ring: List[tuple] = []
        self._members: set = set()
        for shard in range(num_shards):
            self._add_to_ring(shard)
        #: Pre-hashed ring positions of each bucket index.
        self._bucket_points = [
            _ring_point(f"bucket-{bucket}") for bucket in range(table_size)
        ]
        self.table: List[int] = [0] * table_size
        #: Buckets whose owner changed across all reprogram calls.
        self.remapped_buckets = 0
        self._reprogram()

    # -- ring management ----------------------------------------------------
    def _add_to_ring(self, shard: int) -> None:
        for vnode in range(self.VNODES):
            self._ring.append((_ring_point(f"shard-{shard}/{vnode}"), shard))
        self._ring.sort()
        self._members.add(shard)

    def add_shard(self, shard: int) -> List[int]:
        """(Re-)admit a shard; returns the buckets that moved."""
        if shard in self._members:
            return []
        self._add_to_ring(shard)
        return self._reprogram()

    def remove_shard(self, shard: int) -> List[int]:
        """Drop a shard from the ring; returns the buckets that moved."""
        if shard not in self._members:
            return []
        if len(self._members) == 1:
            raise ValueError("cannot remove the last shard")
        self._ring = [entry for entry in self._ring if entry[1] != shard]
        self._members.discard(shard)
        return self._reprogram()

    def _successor(self, point: int) -> int:
        """The shard of the first ring point at or after ``point``."""
        index = bisect_left(self._ring, (point,))
        return self._ring[index % len(self._ring)][1]

    def _reprogram(self) -> List[int]:
        moved = []
        for bucket in range(self.table_size):
            owner = self._successor(self._bucket_points[bucket])
            if self.table[bucket] != owner:
                self.table[bucket] = owner
                moved.append(bucket)
        self.remapped_buckets += len(moved)
        return moved

    # -- dispatch -----------------------------------------------------------
    def bucket_of(self, value: int) -> int:
        """Indirection bucket of one 32-bit hash key (TEID / UE IP)."""
        b0, b1, b2, b3 = self._buckets
        return (b0[value >> 24 & 0xFF] ^ b1[value >> 16 & 0xFF]
                ^ b2[value >> 8 & 0xFF] ^ b3[value & 0xFF])

    def shard_for_teid(self, teid: int) -> int:
        return self.table[self.bucket_of(teid)]

    def shard_for_ue_ip(self, ue_ip: int) -> int:
        return self.table[self.bucket_of(ue_ip)]

    def shard_for_packet(self, packet: Packet) -> int:
        """RSS dispatch: UL hashes the TEID, DL hashes the UE IP."""
        if packet.direction is Direction.UPLINK:
            # TEID-less UL has no session: bucket of 0, dropped there.
            value = packet.teid or 0
        else:
            value = packet.flow.dst_ip
        b0, b1, b2, b3 = self._buckets  # bucket_of, inlined
        return self.table[b0[value >> 24 & 0xFF] ^ b1[value >> 16 & 0xFF]
                          ^ b2[value >> 8 & 0xFF] ^ b3[value & 0xFF]]

    # -- steering -----------------------------------------------------------
    def steer_teid(self, ue_ip: int, base_teid: int) -> int:
        """A TEID hashing into the same bucket as ``ue_ip``.

        XORs a correction into the TEID's steering bits (GF(2)
        linearity): uniqueness of ``base_teid`` below the steering bits
        implies uniqueness of the result, and the UL/DL co-location
        survives any bucket remap because both keys share a bucket.
        """
        syndrome = self.bucket_of(base_teid) ^ self.bucket_of(ue_ip)
        return base_teid ^ self._steering.fix[syndrome]


class ShardedSessionTable(SessionTableView):
    """Shard-aware session store the UPF-C writes through.

    Routes by the same hashes as the data plane: ``add`` places the
    session on the shard its UE IP's bucket maps to (after checking
    each uplink TEID was steered into the same bucket, as a rule
    commit's ``index_teids`` does for the TEIDs it adds), lookups route by
    key, and ``rehome`` implements the rebalance move.  The shard
    tables are the only record of placement; ``_shard_by_seid`` is
    their SEID index, written only after a table accepted the session.
    Membership stays single-writer: only the "upf-c" role calls the
    mutators, on whichever shard table they resolve to.
    """

    def __init__(self, router: ShardRouter, tables: List[SessionTable]):
        self.router = router
        self.tables = tables
        self._shard_by_seid: Dict[int, int] = {}
        self.size = self._shard_by_seid.__len__

    def shard_of(self, seid: int) -> Optional[int]:
        return self._shard_by_seid.get(seid)

    def add(self, session: UPFSession) -> None:
        if session.seid in self._shard_by_seid:
            # A shard table only knows the SEIDs it holds itself.
            raise ValueError(f"duplicate SEID {session.seid}")
        shard = self.router.shard_for_ue_ip(session.ue_ip)
        self._check_steered(session, uplink_teids := session.uplink_teids())
        self.tables[shard].add(session, uplink_teids)
        self._shard_by_seid[session.seid] = shard

    def index_teids(
        self, session: UPFSession, added: Set[int], dropped: Set[int]
    ) -> None:
        shard = self._shard_by_seid.get(session.seid)
        if shard is None:
            raise ValueError(f"SEID {session.seid} is not in this table")
        self._check_steered(session, added)
        self.tables[shard].index_teids(session, added, dropped)

    def _check_steered(self, session: UPFSession, teids) -> None:
        """Every uplink TEID must share the UE IP's RSS bucket, so a
        session's UL and DL land on one shard under any bucket map."""
        bucket = self.router.bucket_of(session.ue_ip)
        for teid in teids:
            if self.router.bucket_of(teid) != bucket:
                raise self._refuse_teid(
                    f"UL TEID {teid:#x} hashes to a different bucket "
                    f"than UE IP {session.ue_ip:#x}; allocate TEIDs via "
                    "ShardRouter.steer_teid"
                )

    def remove(self, seid: int) -> Optional[UPFSession]:
        shard = self._shard_by_seid.pop(seid, None)
        if shard is None:
            return None
        return self.tables[shard].remove(seid)

    def rehome(self, seid: int, target: int) -> bool:
        """Move one session to ``target`` (rebalance after remap).

        Remove-then-add through the shard tables: the old shard's
        removal listeners fire (flow-cache purge, drain-state drop), and
        the session refuses rule writes until the target (or, on a
        failed add, the source) adopts it.  Buffered packets go with it.
        """
        shard = self._shard_by_seid.get(seid)
        if shard is None or shard == target:
            return False
        session = self.tables[shard].remove(seid)
        if session is None:
            return False
        try:
            self.tables[target].add(session)
        except Exception:
            # Target rejected the session (e.g. a TEID collision with a
            # resident session); restore it to the source shard so the
            # session — and its buffered packets — is not lost.
            self.tables[shard].add(session)
            raise
        self._shard_by_seid[seid] = target
        return True

    def by_seid(self, seid: int) -> Optional[UPFSession]:
        shard = self._shard_by_seid.get(seid)
        if shard is None:
            return None
        return self.tables[shard].by_seid(seid)

    def by_teid(self, teid: int) -> Optional[UPFSession]:
        return self.tables[self.router.shard_for_teid(teid)].by_teid(teid)

    def by_ue_ip(self, ue_ip: int) -> Optional[UPFSession]:
        return self.tables[self.router.shard_for_ue_ip(ue_ip)].by_ue_ip(ue_ip)

    def __len__(self) -> int:
        return len(self._shard_by_seid)

    def sessions(self) -> List[UPFSession]:
        out: List[UPFSession] = []
        for table in self.tables:
            out.extend(table.sessions())
        return out

    def add_removal_listener(
        self, listener: Callable[[UPFSession], None]
    ) -> None:
        for table in self.tables:
            table.add_removal_listener(listener)


@dataclass
class UPFShard:
    """One worker: its table and pipeline."""

    shard_id: int
    table: SessionTable
    upf_u: UPFUserPlane


class ShardedUserPlane:
    """N independent UPF-U workers behind RSS dispatch.

    Duck-typed for the single ``UPFUserPlane``'s facade surface
    (``process`` / ``flush_session`` / ``stats`` / ``notify_cp`` /
    ``usage_report_sink``), so :class:`~repro.cp.core5g.FiveGCore` and
    the experiments drive it unchanged.  Each shard owns its
    ``SessionTable``, ``FlowCache`` and ``RuleEpoch``: a rule change on
    one shard never invalidates another shard's cache, and the
    per-shard working set is what keeps 1M sessions out of one
    lookup structure (the 5GC²ache collapse).
    """

    def __init__(
        self,
        env,
        num_shards: int,
        uplink_sink: Optional[Callable[[Packet], None]] = None,
        downlink_sink: Optional[Callable[[Packet, int, int], None]] = None,
        notify_cp: Optional[Callable[[UPFSession], None]] = None,
        fast_path: bool = True,
        session_scoped_buffering: bool = True,
        costs: CostModel = DEFAULT_COSTS,
        flow_cache: bool = True,
        flow_cache_capacity: int = DEFAULT_FLOW_CACHE_CAPACITY,
        burst_size: int = 1,
        table_size: int = 128,
        rss_key: bytes = DEFAULT_RSS_KEY,
    ):
        self.env = env
        self.router = ShardRouter(num_shards, table_size, rss_key)
        self.shards: List[UPFShard] = []
        self._notify_cp = notify_cp or (lambda session: None)
        self._usage_report_sink: Callable = lambda session, counter: None
        for shard_id in range(num_shards):
            table = SessionTable()
            upf_u = UPFUserPlane(
                env,
                table,
                name=f"upf-u-{shard_id}",
                instance_id=shard_id,
                uplink_sink=uplink_sink,
                downlink_sink=downlink_sink,
                notify_cp=self._notify_cp,
                fast_path=fast_path,
                session_scoped_buffering=session_scoped_buffering,
                costs=costs,
                flow_cache=flow_cache,
                flow_cache_capacity=flow_cache_capacity,
                burst_size=burst_size,
            )
            self.shards.append(UPFShard(shard_id, table, upf_u))
        self.sessions = ShardedSessionTable(
            self.router, [shard.table for shard in self.shards]
        )
        #: Packets dispatched to each shard (RSS queue depth proxy).
        self.dispatched: List[int] = [0] * num_shards
        self.failovers = 0
        self.sessions_rehomed = 0

    # -- data plane ---------------------------------------------------------
    def process(self, packet: Packet) -> str:
        """RSS dispatch + the owning shard's full pipeline."""
        shard_id = self.router.shard_for_packet(packet)
        self.dispatched[shard_id] += 1
        return self.shards[shard_id].upf_u.process(packet)

    def process_burst(self, packets) -> list:
        """RSS dispatch for a whole burst: one sub-burst per shard.

        Packets are grouped by their RSS bucket's shard (preserving
        per-shard arrival order — the same order the per-queue NIC
        delivery would produce), each shard runs its own
        ``process_burst``, and the outcomes scatter back into the
        original burst order.  Each shard touches only its own
        ``SessionTable``/``FlowCache``, so the single-writer discipline
        the race detector enforces per shard is untouched by batching.
        """
        shard_for_packet = self.router.shard_for_packet
        dispatched = self.dispatched
        groups: Dict[int, List[int]] = {}
        for index, packet in enumerate(packets):
            shard_id = shard_for_packet(packet)
            dispatched[shard_id] += 1
            group = groups.get(shard_id)
            if group is None:
                groups[shard_id] = [index]
            else:
                group.append(index)
        outcomes = [None] * len(packets)
        shards = self.shards
        for shard_id, indices in groups.items():
            sub_burst = [packets[index] for index in indices]
            sub_outcomes = shards[shard_id].upf_u.process_burst(sub_burst)
            for index, outcome in zip(indices, sub_outcomes):
                outcomes[index] = outcome
        return outcomes

    def flush_session(self, session: UPFSession) -> int:
        shard_id = self.sessions.shard_of(session.seid)
        if shard_id is None:
            return 0
        return self.shards[shard_id].upf_u.flush_session(session)

    # -- facade plumbing (FiveGCore wires these post-construction) ---------
    @property
    def notify_cp(self) -> Callable[[UPFSession], None]:
        return self._notify_cp

    @notify_cp.setter
    def notify_cp(self, callback: Callable[[UPFSession], None]) -> None:
        self._notify_cp = callback
        for shard in self.shards:
            shard.upf_u.notify_cp = callback

    @property
    def usage_report_sink(self) -> Callable:
        return self._usage_report_sink

    @usage_report_sink.setter
    def usage_report_sink(self, callback: Callable) -> None:
        self._usage_report_sink = callback
        for shard in self.shards:
            shard.upf_u.usage_report_sink = callback

    @property
    def stats(self) -> ForwardingStats:
        """Aggregate forwarding counters (snapshot, not live)."""
        total = ForwardingStats()
        for shard in self.shards:
            for spec in fields(ForwardingStats):
                setattr(
                    total,
                    spec.name,
                    getattr(total, spec.name)
                    + getattr(shard.upf_u.stats, spec.name),
                )
        return total

    @property
    def flow_cache_hit_rate(self) -> float:
        hits = misses = 0
        for shard in self.shards:
            cache = shard.upf_u.flow_cache
            if cache is not None:
                hits += cache.hits
                misses += cache.misses
        probes = hits + misses
        return hits / probes if probes else 0.0

    def load_skew(self) -> float:
        """max/mean sessions per serving shard (1.0 = perfect)."""
        members = self.router._members
        counts = [
            len(shard.table)
            for shard in self.shards
            if shard.shard_id in members
        ]
        if not counts:
            return 1.0
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean else 1.0

    # -- failure / rebalance ------------------------------------------------
    def mark_failed(self, shard_id: int) -> int:
        """Fail a shard: ring removal, then session rebalance.

        Returns the number of sessions moved: 0, with no failover
        counted and no rescan, for a shard already out of the ring.
        The router refuses to remove the last serving shard; that
        ``ValueError`` leaves everything unchanged.  Rebalance is
        control-plane work (membership writes), so it runs under the
        "upf-c" role; each move fires the failed shard's removal
        listeners, purging its flow-cache entries and drain state.
        """
        if shard_id not in self.router._members:
            return 0
        self.router.remove_shard(shard_id)
        self.failovers += 1
        return self._rebalance()

    def mark_recovered(self, shard_id: int) -> int:
        """Readmit a shard and pull its buckets' sessions back (0 and
        no rescan when it is already serving)."""
        if shard_id in self.router._members:
            return 0
        self.router.add_shard(shard_id)
        return self._rebalance()

    def _rebalance(self) -> int:
        detector = _races.active()
        if detector is None:
            return self._rebalance_sessions()
        with detector.role("upf-c"):
            return self._rebalance_sessions()

    def _rebalance_sessions(self) -> int:
        # Snapshot first: rehome mutates the shard tables underneath.
        moves = []
        for shard in self.shards:
            for session in shard.table.sessions():
                target = self.router.shard_for_ue_ip(session.ue_ip)
                if target != shard.shard_id:
                    moves.append((session.seid, target))
        for seid, target in moves:
            self.sessions.rehome(seid, target)
        self.sessions_rehomed += len(moves)
        return len(moves)

    # -- observability ------------------------------------------------------
    def register_into(
        self, registry: MetricsRegistry, prefix: str = "upf_u"
    ) -> None:
        """Per-shard gauges plus single-UPF-compatible aggregates.

        Shard series use the label convention ``name{shard=i}``; the
        aggregate gauges keep the unsharded names (``upf_u.forwarded``,
        ``sessions.active`` is the core's) so existing dashboards and
        the fig13/fig14 regressions read the same keys.
        """
        for shard in self.shards:
            index = shard.shard_id
            registry.gauge(f"sessions{{shard={index}}}").set_function(
                lambda table=shard.table: len(table)
            )
            registry.gauge(f"dispatched{{shard={index}}}").set_function(
                lambda i=index: self.dispatched[i]
            )
            cache = shard.upf_u.flow_cache
            if cache is not None:
                registry.gauge(
                    f"flow_cache_hits{{shard={index}}}"
                ).set_function(lambda c=cache: c.hits)
                registry.gauge(
                    f"flow_cache_hit_rate{{shard={index}}}"
                ).set_function(lambda c=cache: c.hit_rate)
                registry.gauge(
                    f"flow_cache_declined{{shard={index}}}"
                ).set_function(lambda c=cache: c.declined)
            shard.upf_u.stats.register_into(
                registry, prefix=f"{prefix}{{shard={index}}}"
            )
        for spec in fields(ForwardingStats):
            registry.gauge(f"{prefix}.{spec.name}").set_function(
                lambda name=spec.name: getattr(self.stats, name)
            )
        registry.gauge(f"{prefix}.forwarded").set_function(
            lambda: self.stats.forwarded
        )
        registry.gauge(f"{prefix}.dropped").set_function(
            lambda: self.stats.dropped
        )
        registry.gauge("flow_cache.hit_rate").set_function(
            lambda: self.flow_cache_hit_rate
        )
        registry.gauge("shard.count").set_function(
            lambda: len(self.shards)
        )
        registry.gauge("shard.load_skew").set_function(self.load_skew)


class ShardedUPFControlPlane(UPFControlPlane):
    """The sharded deployment's N4 endpoint.

    Inherits the full PFCP state machine; the only delta is TEID
    allocation: CHOOSE F-TEIDs are steered into the session's UE-IP
    bucket so UL and DL traffic co-locate on one shard (the
    ``ShardedSessionTable.add`` invariant).
    """

    def __init__(self, user_plane: ShardedUserPlane, **kwargs):
        super().__init__(
            user_plane.sessions, upf_u=user_plane, **kwargs
        )
        self.router = user_plane.router

    def allocate_teid(self, ue_ip: int = 0) -> int:
        return self.router.steer_teid(ue_ip, next(self._teid_counter))
