"""Sharded multi-UPF scale-out: router, dispatch, failover, PFCP.

The invariant that matters: **a sharded user plane is observationally
identical to the single UPF-U** — same per-packet outcomes, same
aggregate ForwardingStats, same URR accounting — under any
interleaving of packets and rule mutations, because sharding only
partitions the key space.  The property test replays randomized
interleavings against three stacks (sharded/cache-on, plain/cache-on,
plain/cache-off); the unit tests pin down the steering algebra, the
consistent-hash remap, and the failure/rebalance path individually.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import races
from repro.classifier import LinearClassifier, exact
from repro.cp import scenario
from repro.cp.scenario import ATTACH
from repro.deploy.rss import DEFAULT_RSS_KEY, toeplitz_hash32
from repro.deploy.sharded import (
    ShardRouter,
    ShardedSessionTable,
    ShardedUPFControlPlane,
    ShardedUserPlane,
)
from repro.net import Direction, FiveTuple, Packet
from repro.obs.metrics import MetricsRegistry
from repro.pfcp import ies as pfcp_ies
from repro.pfcp.builder import (
    build_buffering_update,
    build_session_establishment,
)
from repro.pfcp.messages import SessionDeletionRequest
from repro.sim import Environment
from repro.up import (
    FAR,
    PDR,
    RuleDelta,
    SessionTable,
    UPFSession,
    UPFUserPlane,
)

from .test_up_pipeline import (
    assert_accepts_rule_writes,
    assert_refuses_rule_writes,
    assert_second_uplink_endpoint_is_indexed,
    choose_pdr,
    modify,
    refusal,
)

GNB = 0xC0A80201
DN_IP = 0x08080808
UE_BASE = 0x0A3C0000

#: Module-level router used only to precompute steered TEIDs, so the
#: sharded and unsharded harnesses drive identical key material.
_STEER = ShardRouter(4)


def steered_teid(seid):
    return _STEER.steer_teid(UE_BASE + seid, 0x100 + seid)


# ----------------------------------------------------------------------
# Shared builders (steered-TEID variants of the flow-cache fixtures)
# ----------------------------------------------------------------------
def make_session(seid, classifier_class=LinearClassifier, qer=False,
                 urr=False, ul_teid=None):
    """UL+DL PDRs and forward FARs, with a steerable UL TEID."""
    from repro.up import QerEnforcer, TokenBucket, UsageCounter

    ue_ip = UE_BASE + seid
    if ul_teid is None:
        ul_teid = steered_teid(seid)
    session = UPFSession(
        seid=seid,
        ue_ip=ue_ip,
        ul_teid=ul_teid,
        classifier_class=classifier_class,
    )
    session.apply(RuleDelta(
        pdrs=(
            PDR.from_fields(
                priority=100,
                rule_id=1,
                far_id=1,
                teid=exact(ul_teid),
                source_iface=exact(pfcp_ies.ACCESS),
                qer_id=1 if qer else None,
                urr_id=1 if urr else None,
                outer_header_removal=True,
                source_interface=pfcp_ies.ACCESS,
            ),
            PDR.from_fields(
                priority=100,
                rule_id=2,
                far_id=2,
                dst_ip=exact(ue_ip),
                source_iface=exact(pfcp_ies.CORE),
                qer_id=1 if qer else None,
                urr_id=1 if urr else None,
                source_interface=pfcp_ies.CORE,
            ),
        ),
        fars=(
            FAR(far_id=1, destination_interface=pfcp_ies.CORE),
            FAR(
                far_id=2,
                destination_interface=pfcp_ies.ACCESS,
                outer_teid=0x500 + seid,
                outer_address=GNB,
            ),
        ),
        qers=(
            QerEnforcer(
                qer_id=1,
                ul_bucket=TokenBucket(8000.0, burst_bytes=300),
                dl_bucket=TokenBucket(8000.0, burst_bytes=300),
            ),
        ) if qer else (),
        urrs=(
            UsageCounter(urr_id=1, volume_threshold_bytes=256),
        ) if urr else (),
    ))
    return session


def ul_packet(seid, src_port=4000):
    return Packet(
        direction=Direction.UPLINK,
        teid=steered_teid(seid),
        flow=FiveTuple(
            src_ip=UE_BASE + seid,
            dst_ip=DN_IP,
            src_port=src_port,
            dst_port=80,
        ),
        size=100,
    )


def dl_packet(seid, src_port=80):
    return Packet(
        direction=Direction.DOWNLINK,
        flow=FiveTuple(
            src_ip=DN_IP,
            dst_ip=UE_BASE + seid,
            src_port=src_port,
            dst_port=4000,
        ),
        size=100,
    )


def build_sharded(num_shards=4, **kwargs):
    return ShardedUserPlane(Environment(), num_shards, **kwargs)


def assert_one_ledger(up):
    """Placement has one record, the shard tables (the SEID index is
    written beside them); serving shards have one, the router's
    membership."""
    view = up.sessions
    for shard in up.shards:
        for session in shard.table.sessions():
            assert view.shard_of(session.seid) == shard.shard_id
    # With the loop above: every indexed SEID sits in exactly the
    # table shard_of names, and in no other.
    assert len(view) == sum(len(table) for table in view.tables)
    members = up.router._members
    counts = [len(up.shards[shard_id].table) for shard_id in members]
    mean = sum(counts) / len(counts)
    assert up.load_skew() == (max(counts) / mean if mean else 1.0)


# ----------------------------------------------------------------------
# TEID steering: the GF(2) algebra
# ----------------------------------------------------------------------
class TestTeidSteering:
    def test_steered_teid_colocates_with_ue_ip(self):
        router = ShardRouter(4)
        for seid in range(200):
            ue_ip = UE_BASE + seid
            teid = router.steer_teid(ue_ip, 0x1000 + seid)
            assert router.bucket_of(teid) == router.bucket_of(ue_ip)
            assert router.shard_for_teid(teid) == router.shard_for_ue_ip(
                ue_ip
            )

    def test_corrections_confined_to_steering_bits(self):
        """Low bits carry the counter: steering must not touch them."""
        router = ShardRouter(4)
        steering = router._steering
        low_mask = (1 << (32 - steering.steer_bits)) - 1
        assert steering.steer_bits <= steering.MAX_STEER_BITS
        assert all(fix & low_mask == 0 for fix in steering.fix)

    def test_steering_preserves_counter_uniqueness(self):
        router = ShardRouter(8)
        ue_ip = UE_BASE + 7
        teids = {
            router.steer_teid(ue_ip, 0x1000 + i) for i in range(2000)
        }
        assert len(teids) == 2000

    def test_colocation_survives_remap(self):
        """§4 + consistent hashing: UL/DL share a *bucket*, so any
        bucket->shard remap moves them together."""
        router = ShardRouter(4)
        pairs = [
            (UE_BASE + i, router.steer_teid(UE_BASE + i, 0x1000 + i))
            for i in range(50)
        ]
        router.remove_shard(2)
        router.add_shard(4)
        for ue_ip, teid in pairs:
            assert router.shard_for_teid(teid) == router.shard_for_ue_ip(
                ue_ip
            )


# ----------------------------------------------------------------------
# ShardRouter: consistent-hash-programmed indirection
# ----------------------------------------------------------------------
class TestShardRouter:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShardRouter(0)
        with pytest.raises(ValueError):
            ShardRouter(2, table_size=100)

    def test_table_covers_all_members(self):
        router = ShardRouter(4)
        assert set(router.table) == {0, 1, 2, 3}

    def test_remove_last_shard_raises(self):
        router = ShardRouter(1)
        with pytest.raises(ValueError):
            router.remove_shard(0)

    def test_idempotent_membership_changes(self):
        router = ShardRouter(2)
        assert router.add_shard(0) == []       # already a member
        assert router.remove_shard(9) == []    # never a member

    def test_removal_moves_only_the_victims_buckets(self):
        router = ShardRouter(4)
        owned = [b for b, shard in enumerate(router.table) if shard == 2]
        moved = router.remove_shard(2)
        assert moved == owned
        assert 2 not in router.table

    def test_readmission_restores_the_same_table(self):
        router = ShardRouter(4)
        before = list(router.table)
        removed = router.remove_shard(2)
        restored = router.add_shard(2)
        assert router.table == before
        assert restored == removed  # the same buckets came back

    def test_dispatch_hashes_teid_ul_and_ue_ip_dl(self):
        router = ShardRouter(4)
        teid = router.steer_teid(UE_BASE + 1, 0x2000)
        ul = Packet(
            direction=Direction.UPLINK,
            teid=teid,
            flow=FiveTuple(src_ip=UE_BASE + 1, dst_ip=DN_IP),
        )
        dl = Packet(
            direction=Direction.DOWNLINK,
            flow=FiveTuple(src_ip=DN_IP, dst_ip=UE_BASE + 1),
        )
        assert router.shard_for_packet(ul) == router.shard_for_teid(teid)
        assert router.shard_for_packet(dl) == router.shard_for_ue_ip(
            UE_BASE + 1
        )
        # Steering makes the two agree for one session's traffic.
        assert router.shard_for_packet(ul) == router.shard_for_packet(dl)

    def test_teidless_uplink_still_dispatches(self):
        router = ShardRouter(4)
        packet = Packet(
            direction=Direction.UPLINK,
            teid=None,
            flow=FiveTuple(src_ip=1, dst_ip=2),
        )
        assert router.shard_for_packet(packet) == router.table[
            router.bucket_of(0)
        ]

    def test_bucket_of_is_masked_toeplitz(self):
        router = ShardRouter(2, table_size=64)
        value = 0xDEADBEEF
        assert router.bucket_of(value) == (
            toeplitz_hash32(value, DEFAULT_RSS_KEY) & 63
        )


# ----------------------------------------------------------------------
# ShardedSessionTable: the UPF-C's shard-aware view
# ----------------------------------------------------------------------
class TestShardedSessionTable:
    def _view(self, num_shards=4):
        router = ShardRouter(num_shards)
        tables = [SessionTable() for _ in range(num_shards)]
        return router, tables, ShardedSessionTable(router, tables)

    def test_add_places_on_the_ue_ip_shard(self):
        router, tables, view = self._view()
        session = make_session(1)
        view.add(session)
        shard = router.shard_for_ue_ip(session.ue_ip)
        assert view.shard_of(1) == shard
        assert tables[shard].by_seid(1) is session
        assert len(view) == 1

    def test_unsteered_teid_rejected(self):
        router, _, view = self._view()
        ue_ip = UE_BASE + 1
        teid = 0x100
        while router.shard_for_teid(teid) == router.shard_for_ue_ip(ue_ip):
            teid += 1
        with pytest.raises(ValueError, match="steer_teid"):
            view.add(make_session(1, ul_teid=teid))

    def test_lookups_route_by_key(self):
        _, _, view = self._view()
        for seid in (1, 2, 3):
            view.add(make_session(seid))
        for seid in (1, 2, 3):
            session = view.by_seid(seid)
            assert session is not None
            assert view.by_teid(session.ul_teid) is session
            assert view.by_ue_ip(session.ue_ip) is session
        assert {s.seid for s in view.sessions()} == {1, 2, 3}

    def test_size_is_the_live_session_count(self):
        """``size`` is the bound C call per-packet readers use for
        ``len``: it must follow every add and remove."""
        _, tables, view = self._view()
        for seid in (1, 2, 3):
            view.add(make_session(seid))
        view.remove(2)
        assert view.size() == len(view) == 2
        assert sum(table.size() for table in tables) == 2

    def test_remove_unknown_is_none(self):
        _, _, view = self._view()
        assert view.remove(99) is None
        assert view.by_seid(99) is None

    def test_rehome_moves_and_adopts_target_epoch(self):
        router, tables, view = self._view()
        session = make_session(1)
        view.add(session)
        source = view.shard_of(1)
        target = (source + 1) % 4
        assert view.rehome(1, target)
        assert view.shard_of(1) == target
        assert tables[source].by_seid(1) is None
        assert tables[target].by_seid(1) is session
        assert session.epoch is tables[target].epoch
        assert_accepts_rule_writes(session)
        # No-op moves report False.
        assert not view.rehome(1, target)
        assert not view.rehome(99, 0)

    def test_removal_listeners_fire_on_every_shard(self):
        _, _, view = self._view()
        removed = []
        view.add_removal_listener(lambda session: removed.append(session.seid))
        for seid in (1, 2, 3, 4):
            view.add(make_session(seid))
        for seid in (1, 2, 3, 4):
            view.remove(seid)
        assert sorted(removed) == [1, 2, 3, 4]

    def test_a_session_between_remove_and_add_refuses_rule_writes(self):
        _, tables, view = self._view()
        session = make_session(1)
        view.add(session)
        shard = view.shard_of(1)
        assert view.remove(1) is session
        assert_refuses_rule_writes(session, tables[shard])
        view.add(session)
        assert session.epoch is tables[view.shard_of(1)].epoch
        assert_accepts_rule_writes(session)

    def test_lb_counters_track_placement(self):
        # The shard tables are the placement record: each session sits
        # in exactly the table shard_of names.
        _, tables, view = self._view()
        for seid in range(1, 9):
            view.add(make_session(seid))
        for seid in range(1, 9):
            holders = [
                shard for shard, table in enumerate(tables)
                if table.by_seid(seid) is not None
            ]
            assert holders == [view.shard_of(seid)]
        shard = view.shard_of(1)
        before = len(tables[shard])
        view.remove(1)
        assert len(tables[shard]) == before - 1
        assert sum(len(table) for table in tables) == len(view) == 7

    def test_failed_add_releases_the_shard_pin(self):
        # Regression (found by the W007 typestate check): a duplicate
        # UE-IP/TEID rejection in the shard table used to leak the
        # placement record taken just before.  A rejected add must
        # leave every table, the view's size and the SEID index as
        # they were.
        _, tables, view = self._view()
        view.add(make_session(1))
        before = [table.sessions() for table in tables]
        dup = UPFSession(
            seid=2, ue_ip=UE_BASE + 1, ul_teid=steered_teid(1),
        )
        with pytest.raises(ValueError):
            view.add(dup)
        assert [table.sessions() for table in tables] == before
        assert len(view) == 1
        assert view.shard_of(2) is None

    def test_failed_rehome_restores_the_source_shard(self):
        # Regression (found by the W007 typestate check): when the
        # target shard rejected the moved session (key collision with a
        # resident), the session had already been removed from the
        # source — it vanished along with its buffered packets.
        router, tables, view = self._view()
        session = make_session(1)
        view.add(session)
        source = view.shard_of(1)
        target = (source + 1) % 4
        squatter = UPFSession(
            seid=99, ue_ip=session.ue_ip, ul_teid=0x9990,
        )
        tables[target].add(squatter)
        with pytest.raises(ValueError):
            view.rehome(1, target)
        assert view.shard_of(1) == source
        assert tables[source].by_seid(1) is session
        assert view.by_seid(1) is session
        assert tables[target].by_seid(1) is None
        # Restored, the session is writable again.
        assert session.epoch is tables[source].epoch
        assert_accepts_rule_writes(session)


# ----------------------------------------------------------------------
# ShardedUserPlane: dispatch, aggregation, failure/rebalance
# ----------------------------------------------------------------------
class TestShardedUserPlane:
    def test_dispatch_reaches_the_owning_shard(self):
        up = build_sharded()
        up.sessions.add(make_session(1))
        shard = up.sessions.shard_of(1)
        assert up.process(ul_packet(1)) == "forwarded-ul"
        assert up.process(dl_packet(1)) == "forwarded-dl"
        assert up.dispatched[shard] == 2
        assert sum(up.dispatched) == 2
        assert up.shards[shard].upf_u.stats.forwarded_ul == 1

    def test_aggregate_stats_sum_the_shards(self):
        up = build_sharded()
        for seid in range(1, 9):
            up.sessions.add(make_session(seid))
        for seid in range(1, 9):
            up.process(ul_packet(seid))
            up.process(dl_packet(seid))
        up.process(dl_packet(99))  # no session anywhere
        assert up.stats.forwarded_ul == 8
        assert up.stats.forwarded_dl == 8
        assert up.stats.dropped_no_session == 1
        assert up.stats.forwarded == sum(
            shard.upf_u.stats.forwarded for shard in up.shards
        )

    def test_flow_cache_hit_rate_aggregates(self):
        up = build_sharded()
        up.sessions.add(make_session(1))
        assert up.process(ul_packet(1)) == "forwarded-ul"  # fill
        assert up.process(ul_packet(1)) == "forwarded-ul"  # hit
        assert up.flow_cache_hit_rate == 0.5

    def test_flush_session_routes_by_shard(self):
        up = build_sharded()
        session = make_session(1)
        up.sessions.add(session)
        session.apply(RuleDelta(far_updates=(
            FAR(far_id=2, forward=False, buffer=True),
        )))
        assert up.process(dl_packet(1)) == "buffered"
        session.apply(RuleDelta(far_updates=(FAR(far_id=2, forward=True),)))
        assert up.flush_session(session) == 1
        assert up.flush_session(make_session(42)) == 0  # never added

    def test_load_skew_counts_healthy_shards(self):
        up = build_sharded(2)
        seid = 1
        placed = 0
        while placed < 4:  # four sessions on shard 0, none on shard 1
            session = make_session(seid)
            if up.router.shard_for_ue_ip(session.ue_ip) == 0:
                up.sessions.add(session)
                placed += 1
            seid += 1
        assert up.load_skew() == pytest.approx(2.0)

    def test_mark_failed_rehomes_every_session(self):
        up = build_sharded()
        for seid in range(1, 41):
            up.sessions.add(make_session(seid))
        victim = up.sessions.shard_of(1)
        stranded = len(up.shards[victim].table)
        moved = up.mark_failed(victim)
        assert moved == stranded
        assert up.failovers == 1
        assert len(up.shards[victim].table) == 0
        assert victim not in up.router.table
        # Every session is still reachable and carries traffic.
        for seid in range(1, 41):
            assert up.sessions.by_seid(seid) is not None
            assert up.process(dl_packet(seid)) == "forwarded-dl"
            assert up.process(ul_packet(seid)) == "forwarded-ul"

    def test_mark_failed_purges_the_victims_flow_cache(self):
        up = build_sharded()
        for seid in range(1, 21):
            up.sessions.add(make_session(seid))
            up.process(ul_packet(seid))
        victim = up.sessions.shard_of(1)
        assert len(up.shards[victim].upf_u.flow_cache) > 0
        up.mark_failed(victim)
        assert len(up.shards[victim].upf_u.flow_cache) == 0

    def test_mark_recovered_pulls_sessions_back(self):
        up = build_sharded()
        for seid in range(1, 41):
            up.sessions.add(make_session(seid))
        victim = up.sessions.shard_of(1)
        up.mark_failed(victim)
        moved_back = up.mark_recovered(victim)
        assert moved_back > 0
        assert len(up.shards[victim].table) == moved_back
        assert up.sessions.shard_of(1) == victim
        assert up.process(ul_packet(1)) == "forwarded-ul"

    def test_rebalance_is_race_clean(self):
        """Rebalance is membership writing — it must run as UPF-C."""
        env = Environment()
        with races.traced(env=env) as detector:
            up = ShardedUserPlane(env, 4)
            with detector.role("upf-c"):
                for seid in range(1, 21):
                    up.sessions.add(make_session(seid))
            victim = up.sessions.shard_of(1)
            up.mark_failed(victim)
            for seid in range(1, 21):
                up.process(dl_packet(seid))
        assert detector.violations == [], detector.report()

    def test_register_into_exports_per_shard_series(self):
        up = build_sharded(2)
        registry = MetricsRegistry()
        up.register_into(registry)
        for seid in range(1, 9):
            up.sessions.add(make_session(seid))
            up.process(ul_packet(seid))
            up.process(ul_packet(seid))
        per_shard_sessions = [
            registry[f"sessions{{shard={i}}}"].value for i in (0, 1)
        ]
        assert sum(per_shard_sessions) == 8
        assert sum(
            registry[f"dispatched{{shard={i}}}"].value for i in (0, 1)
        ) == 16
        assert registry["upf_u.forwarded"].value == 16
        assert registry["upf_u.forwarded_ul"].value == 16
        assert registry["upf_u.dropped"].value == 0
        assert registry["shard.count"].value == 2
        assert registry["shard.load_skew"].value >= 1.0
        assert registry["flow_cache.hit_rate"].value == 0.5
        hits = sum(
            registry[f"flow_cache_hits{{shard={i}}}"].value
            for i in (0, 1)
        )
        assert hits == 8

    def test_register_into_exports_per_shard_declined(self):
        # One slot per shard: a shard's first flow fills it, its second
        # is admitted (evicting the first) and its later ones declined.
        up = build_sharded(2, flow_cache_capacity=1)
        registry = MetricsRegistry()
        up.register_into(registry)
        for seid in range(1, 9):
            up.sessions.add(make_session(seid))
            up.process(ul_packet(seid))
        declined = [
            registry[f"flow_cache_declined{{shard={i}}}"].value
            for i in (0, 1)
        ]
        assert declined == [
            shard.upf_u.flow_cache.declined for shard in up.shards
        ]
        assert sum(declined) == 8 - sum(
            min(len(shard.table), 2) for shard in up.shards
        ) > 0

    def test_refused_failover_of_the_last_shard_changes_nothing(self):
        # Regression: the refusal used to come after the shard had been
        # marked unhealthy elsewhere, so every later establishment was
        # rejected while the router still sent all traffic to it.
        up = build_sharded()
        cp = ShardedUPFControlPlane(up)
        for seid in range(1, 9):
            up.sessions.add(make_session(seid))
        for shard_id in (0, 1, 2):
            up.mark_failed(shard_id)
        skew, failovers = up.load_skew(), up.failovers
        with pytest.raises(ValueError, match="last shard"):
            up.mark_failed(3)
        assert up.load_skew() == skew
        assert up.failovers == failovers
        ue_ip = UE_BASE + 99
        ul_teid = cp.allocate_teid(ue_ip=ue_ip)
        response = cp.handle(
            build_session_establishment(
                seid=99,
                sequence=1,
                ue_ip=ue_ip,
                upf_address=cp.address,
                ul_teid=ul_teid,
                gnb_address=GNB,
                dl_teid=0x500 + 99,
            )
        )
        assert response.find(pfcp_ies.CauseIE).cause == (
            pfcp_ies.CAUSE_ACCEPTED
        )
        assert up.sessions.shard_of(99) == 3
        packet = ul_packet(99)
        packet.teid = ul_teid
        assert up.process(packet) == "forwarded-ul"
        assert up.process(dl_packet(99)) == "forwarded-dl"


# ----------------------------------------------------------------------
# ShardedUPFControlPlane: the N4 endpoint
# ----------------------------------------------------------------------
class TestShardedControlPlane:
    def _cp(self, num_shards=4):
        up = build_sharded(num_shards)
        return up, ShardedUPFControlPlane(up)

    def _establish(self, cp, seid, sequence=1):
        ue_ip = UE_BASE + seid
        ul_teid = cp.allocate_teid(ue_ip=ue_ip)
        response = cp.handle(
            build_session_establishment(
                seid=seid,
                sequence=sequence,
                ue_ip=ue_ip,
                upf_address=cp.address,
                ul_teid=ul_teid,
                gnb_address=GNB,
                dl_teid=0x500 + seid,
            )
        )
        assert response.find(pfcp_ies.CauseIE).cause == (
            pfcp_ies.CAUSE_ACCEPTED
        )
        return ul_teid

    def test_establish_places_colocated_session(self):
        up, cp = self._cp()
        ul_teid = self._establish(cp, seid=1)
        session = up.sessions.by_seid(1)
        assert session is not None and session.ul_teid == ul_teid
        assert up.router.shard_for_teid(ul_teid) == (
            up.router.shard_for_ue_ip(session.ue_ip)
        )
        # The established session carries traffic through dispatch.
        packet = ul_packet(1)
        packet.teid = ul_teid
        assert up.process(packet) == "forwarded-ul"
        assert up.process(dl_packet(1)) == "forwarded-dl"

    def test_modification_choose_fteid_is_steered(self):
        """Handover prep (§3.3): the new F-TEID must stay on-shard."""
        up, cp = self._cp()
        self._establish(cp, seid=1)
        session = up.sessions.by_seid(1)
        response = cp.handle(
            build_buffering_update(
                seid=1,
                sequence=2,
                choose_new_teid=True,
                upf_address=cp.address,
            )
        )
        fteid = response.find(pfcp_ies.FTeidIE)
        assert fteid is not None and not fteid.choose
        assert up.router.shard_for_teid(fteid.teid) == (
            up.router.shard_for_ue_ip(session.ue_ip)
        )

    def test_second_uplink_endpoint_is_indexed(self):
        """The CHOOSE Create PDR's TEID is steered into the session's
        UE-IP bucket and indexed on its shard, and unindexed with the
        PDR."""
        up, cp = self._cp()
        self._establish(cp, seid=1)
        assert_second_uplink_endpoint_is_indexed(
            cp, up.process, seid=1, ue_ip=UE_BASE + 1
        )

    def test_an_unsteered_uplink_teid_is_refused(self):
        up, cp = self._cp()
        self._establish(cp, seid=1)
        session = up.sessions.by_seid(1)
        bucket = up.router.bucket_of(session.ue_ip)
        teid = next(t for t in range(0x9000, 0xA000)
                    if up.router.bucket_of(t) != bucket)
        create = choose_pdr()
        pdi = create.child(pfcp_ies.PdiIE)
        pdi.children[1] = pfcp_ies.FTeidIE(teid=teid, address=cp.address)
        epoch = up.shards[up.sessions.shard_of(1)].table.epoch.value
        assert refusal(modify(cp, create)) == (
            pfcp_ies.CAUSE_RULE_CREATION_MODIFICATION_FAILURE,
            pfcp_ies.FTeidIE.IE_TYPE,
        )
        assert 3 not in session.pdrs and up.sessions.by_teid(teid) is None
        assert up.shards[up.sessions.shard_of(1)].table.epoch.value == epoch

    def test_deletion_releases_the_shard(self):
        up, cp = self._cp()
        self._establish(cp, seid=1)
        shard = up.sessions.shard_of(1)
        assert [len(s.table) for s in up.shards] == [
            int(s.shard_id == shard) for s in up.shards
        ]
        cp.handle(SessionDeletionRequest(seid=1, sequence=3))
        assert len(up.sessions) == 0
        assert up.sessions.by_seid(1) is None
        assert up.sessions.shard_of(1) is None
        assert [len(s.table) for s in up.shards] == [0] * len(up.shards)

    def test_establishments_spread_over_shards(self):
        up, cp = self._cp()
        for seid in range(1, 33):
            self._establish(cp, seid=seid, sequence=seid)
        occupied = [shard for shard in up.shards if len(shard.table)]
        assert len(occupied) >= 2  # hash placement actually spreads
        assert len(up.sessions) == 32


# ----------------------------------------------------------------------
# Full system: FiveGCore(upf_shards=4), metrics, race cleanliness
# ----------------------------------------------------------------------
class TestFiveGCoreSharded:
    def _core(self, env, shards=4):
        from repro.cp import FiveGCore, SystemConfig

        config = SystemConfig.l25gc()
        config.upf_shards = shards
        config.flow_cache = True
        core = FiveGCore(env, config)
        for gnb in core.gnbs.values():
            gnb.radio_latency = 0.0
        return core

    def _attach(self, core, count=4):
        supis = [f"imsi-20893000007{index:04d}" for index in range(count)]
        scenario.run(core, dict.fromkeys(supis, ATTACH))
        return [core.ues[supi] for supi in supis]

    def test_sharded_core_delivers_end_to_end(self):
        env = Environment()
        core = self._core(env)
        ues = self._attach(core, count=4)
        for ue in ues:
            sm = core.smf.context_for(ue.supi, 1)
            for _ in range(5):
                core.inject_downlink(
                    Packet(
                        direction=Direction.DOWNLINK,
                        flow=FiveTuple(
                            src_ip=DN_IP, dst_ip=sm.ue_ip,
                            src_port=80, dst_port=4000,
                        ),
                        created_at=env.now,
                    )
                )
        env.run()
        assert all(len(ue.received) == 5 for ue in ues)
        assert core.upf_u.stats.forwarded_dl == 20
        # Every PFCP-established session is steered onto one shard.
        for session in core.sessions.sessions():
            assert core.upf_u.router.shard_for_teid(session.ul_teid) == (
                core.upf_u.router.shard_for_ue_ip(session.ue_ip)
            )

    def test_metrics_registry_exports_shard_series(self):
        env = Environment()
        core = self._core(env, shards=2)
        self._attach(core, count=4)
        registry = core.metrics_registry()
        assert registry["sessions.active"].value == 4
        assert registry["shard.count"].value == 2
        assert sum(
            registry[f"sessions{{shard={i}}}"].value for i in (0, 1)
        ) == 4
        assert registry["shard.load_skew"].value >= 1.0

    def test_repeated_membership_changes_are_no_ops(self):
        """Failing a failed shard, or recovering a serving one, moves
        nothing, counts no failover and rescans no session."""
        from repro.cp import FiveGCore, SystemConfig

        core = FiveGCore(Environment(), SystemConfig(upf_shards=4))
        self._attach(core, count=8)
        up = core.upf_u
        up.mark_failed(1)
        rehomed = up.sessions_rehomed
        table = list(up.router.table)
        rescans = []
        for shard in up.shards:
            shard.table.sessions = (
                lambda original=shard.table.sessions:
                rescans.append(1) or original()
            )
        assert up.mark_failed(1) == 0
        assert up.failovers == 1 and up.sessions_rehomed == rehomed
        assert up.mark_recovered(0) == 0
        assert (up.sessions_rehomed, up.router.table) == (rehomed, table)
        assert rescans == []

    def test_sharded_attach_and_handover_race_clean(self):
        """The ISSUE's acceptance scenario: attach + handover on the
        sharded config under the PR 4 race detector."""
        env = Environment()
        with races.traced(env=env) as detector:
            core = self._core(env)
            supi = "imsi-208930000080001"
            # Five downlink packets in 5 us, then the handover.
            scenario.run(core, {supi: [
                *ATTACH, ("downlink", 1e6, 5e-6), ("handover", 2),
            ]})
        assert detector.violations == [], detector.report()
        assert len(core.ues[supi].received) == 5


# ----------------------------------------------------------------------
# Property test: sharded == unsharded
# ----------------------------------------------------------------------
SEIDS = (1, 2, 3)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("ul"), st.sampled_from(SEIDS), st.integers(1, 3)),
        st.tuples(st.just("dl"), st.sampled_from(SEIDS), st.integers(1, 3)),
        st.tuples(st.just("add"), st.sampled_from(SEIDS), st.just(0)),
        st.tuples(st.just("del"), st.sampled_from(SEIDS), st.just(0)),
        st.tuples(st.just("buffer-far"), st.sampled_from(SEIDS), st.just(0)),
        st.tuples(st.just("forward-far"), st.sampled_from(SEIDS), st.just(0)),
        st.tuples(st.just("flush"), st.sampled_from(SEIDS), st.just(0)),
    ),
    min_size=1,
    max_size=60,
)


class _Stack:
    """One user plane (sharded or plain) driven by the op sequence."""

    def __init__(self, sharded, flow_cache):
        if sharded:
            self.upf = build_sharded(
                4, flow_cache=flow_cache, flow_cache_capacity=8
            )
            self.view = self.upf.sessions
        else:
            table = SessionTable()
            self.upf = UPFUserPlane(
                Environment(),
                table,
                flow_cache=flow_cache,
                flow_cache_capacity=8,
            )
            self.view = table
        self.outcomes = []
        self.usage = {}

    def step(self, op, seid, variant):
        session = self.view.by_seid(seid)
        if op == "ul":
            self.outcomes.append(
                self.upf.process(ul_packet(seid, src_port=4000 + variant))
            )
        elif op == "dl":
            self.outcomes.append(
                self.upf.process(dl_packet(seid, src_port=80 + variant))
            )
        elif op == "add":
            if session is None:
                self.view.add(make_session(seid, qer=True, urr=True))
        elif op == "del":
            removed = self.view.remove(seid)
            if removed is not None:
                # URR totals must match even for departed sessions.
                counter = removed.usage_counters[1]
                self.usage[seid] = (
                    self.usage.get(seid, (0, 0))[0] + counter.uplink_bytes,
                    self.usage.get(seid, (0, 0))[1] + counter.downlink_bytes,
                )
        elif op == "buffer-far" and session is not None:
            session.apply(RuleDelta(far_updates=(
                FAR(far_id=2, forward=False, buffer=True, notify_cp=True),
            )))
        elif op == "forward-far" and session is not None:
            session.apply(RuleDelta(far_updates=(
                FAR(far_id=2, forward=True),
            )))
        elif op == "flush" and session is not None:
            self.upf.flush_session(session)

    def usage_totals(self):
        totals = dict(self.usage)
        for session in self.view.sessions():
            counter = session.usage_counters[1]
            base = totals.get(session.seid, (0, 0))
            totals[session.seid] = (
                base[0] + counter.uplink_bytes,
                base[1] + counter.downlink_bytes,
            )
        return totals


@settings(max_examples=60, deadline=None)
@given(_ops)
def test_sharded_equals_unsharded(ops):
    sharded = _Stack(sharded=True, flow_cache=True)
    cached = _Stack(sharded=False, flow_cache=True)
    plain = _Stack(sharded=False, flow_cache=False)
    for op, seid, variant in ops:
        for stack in (sharded, cached, plain):
            stack.step(op, seid, variant)
        # Partitioning the key space must not change a single
        # forwarding decision, ever.
        assert sharded.outcomes == cached.outcomes == plain.outcomes
        assert_one_ledger(sharded.upf)
    assert sharded.upf.stats == cached.upf.stats == plain.upf.stats
    assert sharded.usage_totals() == plain.usage_totals()


@settings(max_examples=20, deadline=None)
@given(_ops, st.sampled_from((0, 1, 2, 3)))
def test_sharded_survives_mid_sequence_failover(ops, victim):
    """Failing one shard mid-stream must preserve the equivalence for
    every op after the rebalance (sessions moved, caches purged)."""
    sharded = _Stack(sharded=True, flow_cache=True)
    plain = _Stack(sharded=False, flow_cache=False)
    half = len(ops) // 2
    for op, seid, variant in ops[:half]:
        sharded.step(op, seid, variant)
        plain.step(op, seid, variant)
        assert_one_ledger(sharded.upf)
    before = len(sharded.view)
    sharded.upf.mark_failed(victim)
    assert len(sharded.view) == before  # rebalance loses nothing
    assert len(sharded.upf.shards[victim].table) == 0
    assert_one_ledger(sharded.upf)
    for op, seid, variant in ops[half:]:
        sharded.step(op, seid, variant)
        plain.step(op, seid, variant)
        assert sharded.outcomes == plain.outcomes
        assert_one_ledger(sharded.upf)
    assert sharded.upf.stats == plain.upf.stats


# ----------------------------------------------------------------------
# The scalability experiment (smoke of the 10k -> 1M sweep)
# ----------------------------------------------------------------------
class TestShardScaleExperiment:
    def test_sweep_produces_sane_rows(self):
        from repro.experiments.scalability import shard_scale_sweep

        def sweep():
            return shard_scale_sweep(
                session_counts=(2_000,),
                shard_counts=(1, 2),
                resident_per_shard=32,
                packets=200,
            )

        rows = sweep()
        # Placement, hit rate and modeled Mpps read no clock.
        assert rows == sweep()
        assert [
            (r.sessions, r.shards, r.resident_sessions) for r in rows
        ] == [(2_000, 1, 32), (2_000, 2, 64)]
        for row in rows:
            assert row.modeled_mpps_per_shard > 0
            assert row.load_skew >= 1.0
            assert row.flow_cache_hit_rate == 1.0
        single, double = rows
        assert double.modeled_mpps_total > single.modeled_mpps_total
