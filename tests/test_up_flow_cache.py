"""Flow-cache fast path: unit, integration, and property tests.

The invariant that matters: **a UPF-U with the flow cache on is
observationally identical to one with it off** — same per-packet
outcomes, bit-identical ForwardingStats — under any interleaving of
packets and rule mutations.  The property test replays randomized
interleavings against three stacks at once (cache-on/PartitionSort,
cache-off/PartitionSort, cache-off/Linear as the 3GPP oracle) and the
stale-entry tests pin down each epoch-bump site individually.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifier import LinearClassifier, exact
from repro.obs.metrics import MetricsRegistry
from repro.pfcp import ies as pfcp_ies
from repro.sim import Environment
from repro.up import (
    FAR,
    FlowCache,
    PDR,
    QerEnforcer,
    RuleEpoch,
    SessionTable,
    TokenBucket,
    UPFSession,
    UPFUserPlane,
    UsageCounter,
    packet_key,
)
from repro.up.flow_cache import FULL_ADMIT_INTERVAL
from repro.net import Direction, FiveTuple, Packet

GNB = 0xC0A80201
DN_IP = 0x08080808
UE_BASE = 0x0A3C0000


# ----------------------------------------------------------------------
# Shared builders
# ----------------------------------------------------------------------
def make_session(seid, classifier_class, qer=False, urr=False):
    """A session with UL+DL PDRs, forward FARs, optional QER/URR."""
    ue_ip = UE_BASE + seid
    ul_teid = 0x100 + seid
    session = UPFSession(
        seid=seid,
        ue_ip=ue_ip,
        ul_teid=ul_teid,
        classifier_class=classifier_class,
    )
    session.install_pdr(
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
        )
    )
    session.install_pdr(
        PDR.from_fields(
            priority=100,
            rule_id=2,
            far_id=2,
            dst_ip=exact(ue_ip),
            source_iface=exact(pfcp_ies.CORE),
            qer_id=1 if qer else None,
            urr_id=1 if urr else None,
            source_interface=pfcp_ies.CORE,
        )
    )
    session.install_far(
        FAR(far_id=1, destination_interface=pfcp_ies.CORE)
    )
    session.install_far(
        FAR(
            far_id=2,
            destination_interface=pfcp_ies.ACCESS,
            outer_teid=0x500 + seid,
            outer_address=GNB,
        )
    )
    if qer:
        session.install_qer_enforcer(
            QerEnforcer(
                qer_id=1,
                ul_bucket=TokenBucket(8000.0, burst_bytes=300),
                dl_bucket=TokenBucket(8000.0, burst_bytes=300),
            )
        )
    if urr:
        session.install_usage_counter(
            UsageCounter(urr_id=1, volume_threshold_bytes=256)
        )
    return session


def ul_packet(seid, src_port=4000):
    return Packet(
        direction=Direction.UPLINK,
        teid=0x100 + seid,
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


def build_stack(flow_cache, classifier_class, **kwargs):
    table = SessionTable()
    upf = UPFUserPlane(
        Environment(), table, flow_cache=flow_cache, **kwargs
    )
    upf.classifier_class = classifier_class  # remembered by the harness
    return table, upf


# ----------------------------------------------------------------------
# FlowCache unit tests
# ----------------------------------------------------------------------
class TestFlowCacheStructure:
    def test_insert_lookup_hit(self):
        cache = FlowCache(RuleEpoch(), capacity=4)
        cache.insert("k", "sess", "pdr", "far")
        entry = cache.lookup("k")
        assert entry is not None and entry.pdr == "pdr"
        assert (cache.hits, cache.misses) == (1, 0)

    def test_miss_counts(self):
        cache = FlowCache(RuleEpoch(), capacity=4)
        assert cache.lookup("absent") is None
        assert cache.misses == 1
        assert cache.hit_rate == 0.0

    def test_epoch_bump_invalidates_lazily(self):
        epoch = RuleEpoch()
        cache = FlowCache(epoch, capacity=4)
        cache.insert("k", "sess", "pdr", "far")
        epoch.bump()
        assert cache.lookup("k") is None
        assert cache.stale == 1
        assert len(cache) == 0  # the stale entry was dropped

    def test_lru_eviction_and_accounting(self):
        cache = FlowCache(RuleEpoch(), capacity=2)
        cache.insert("a", None, 1, None)
        cache.insert("b", None, 2, None)
        cache.lookup("a")  # "a" becomes most-recent
        cache.insert("c", None, 3, None)
        assert cache.evictions == 1
        assert "b" not in cache and "a" in cache and "c" in cache

    def test_reinsert_does_not_evict(self):
        cache = FlowCache(RuleEpoch(), capacity=2)
        cache.insert("a", None, 1, None)
        cache.insert("b", None, 2, None)
        cache.insert("a", None, 9, None)  # replacement, not growth
        assert cache.evictions == 0
        assert cache.lookup("a").pdr == 9

    def test_purge_session(self):
        cache = FlowCache(RuleEpoch(), capacity=8)
        sess_a, sess_b = object(), object()
        cache.insert("a1", sess_a, 1, None)
        cache.insert("a2", sess_a, 2, None)
        cache.insert("b1", sess_b, 3, None)
        assert cache.purge_session(sess_a) == 2
        assert cache.purged == 2
        assert len(cache) == 1 and "b1" in cache

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlowCache(RuleEpoch(), capacity=0)

    def test_register_into_exports_live_gauges(self):
        registry = MetricsRegistry()
        epoch = RuleEpoch()
        cache = FlowCache(epoch, capacity=4)
        cache.register_into(registry)
        cache.insert("k", None, 1, None)
        cache.lookup("k")
        cache.lookup("gone")
        assert registry.gauge("flow_cache.hits").value == 1
        assert registry.gauge("flow_cache.misses").value == 1
        assert registry.gauge("flow_cache.entries").value == 1
        assert registry.gauge("flow_cache.hit_rate").value == 0.5
        assert registry.gauge("flow_cache.declined").value == 0
        for key in "abcde":  # three fill, "d" is admitted, "e" declined
            cache.insert(key, None, 1, None)
        assert registry.gauge("flow_cache.declined").value == 1

    # -- admission once full (DESIGN §8) -------------------------------
    def test_with_room_every_miss_is_admitted(self):
        cache = FlowCache(RuleEpoch(), capacity=8)
        for key in range(8):
            assert cache.insert(key, None, key, None) is not None
        assert len(cache) == cache.inserts == 8
        assert (cache.evictions, cache.declined) == (0, 0)

    @pytest.mark.parametrize("misses", [1, 2, 31, 32, 33, 64, 65, 200])
    def test_full_cache_evicts_once_per_interval(self, misses):
        cache = FlowCache(RuleEpoch(), capacity=4)
        for key in range(4):
            cache.insert(key, None, key, None)
        admitted = [
            cache.insert(("new", n), None, n, None) is not None
            for n in range(misses)
        ]
        expected = 1 + (misses - 1) // FULL_ADMIT_INTERVAL
        assert cache.evictions == sum(admitted) == expected
        assert cache.declined == misses - expected
        assert admitted[0] and not any(admitted[1:FULL_ADMIT_INTERVAL])
        assert len(cache) == 4

    def test_replacing_a_resident_key_is_never_declined(self):
        cache = FlowCache(RuleEpoch(), capacity=2)
        cache.insert("a", None, 1, None)
        cache.insert("b", None, 2, None)
        cache.insert("c", None, 3, None)  # admitted: evicts "a"
        assert cache.insert("d", None, 4, None) is None  # declined
        for _ in range(2 * FULL_ADMIT_INTERVAL):
            assert cache.insert("b", None, 9, None) is not None
        assert (cache.evictions, cache.declined) == (1, 1)
        assert cache.lookup("b").pdr == 9

    def test_a_stale_slot_is_refilled_by_the_next_miss(self):
        epoch = RuleEpoch()
        cache = FlowCache(epoch, capacity=2)
        for key in "abc":  # "c" admitted: the countdown is running
            cache.insert(key, None, key, None)
        epoch.bump()
        assert cache.lookup("b") is None and len(cache) == 1
        assert cache.insert("d", None, "d", None) is not None
        assert (cache.evictions, cache.declined) == (1, 0)

    def test_a_purged_slot_is_refilled_by_the_next_miss(self):
        cache = FlowCache(RuleEpoch(), capacity=2)
        gone = object()
        cache.insert("a", None, 1, None)
        cache.insert("b", gone, 2, None)
        cache.insert("c", gone, 3, None)  # admitted: evicts "a"
        assert cache.purge_session(gone) == 2
        assert cache.insert("d", None, 4, None) is not None
        assert cache.insert("e", None, 5, None) is not None
        assert (cache.evictions, cache.declined) == (1, 0)

    def test_a_cycle_longer_than_the_cache_still_hits(self):
        """LRU scores 0 hits on any round-robin cycle longer than the
        cache: each flow is evicted just before it comes round again.
        Admitting one miss in 32 keeps admitted flows resident."""
        table, upf = build_stack(True, None, flow_cache_capacity=8)
        table.add(make_session(1, LinearClassifier))
        for _ in range(8):
            for port in range(64):
                assert upf.process(ul_packet(1, 1000 + port)) == (
                    "forwarded-ul"
                )
        cache = upf.flow_cache
        assert cache.hits > 0
        assert cache.hits + cache.misses == 512
        assert cache.evictions < cache.declined
        assert upf.stats.forwarded_ul == 512


# ----------------------------------------------------------------------
# Pipeline integration
# ----------------------------------------------------------------------
class TestPipelineFastPath:
    def test_first_packet_fills_then_hits(self):
        table, upf = build_stack(True, None)
        table.add(make_session(1, LinearClassifier))
        assert upf.process(ul_packet(1)) == "forwarded-ul"
        assert upf.flow_cache.inserts == 1
        assert upf.process(ul_packet(1)) == "forwarded-ul"
        assert upf.flow_cache.hits == 1
        assert upf.stats.forwarded_ul == 2

    def test_distinct_flows_get_distinct_entries(self):
        table, upf = build_stack(True, None)
        table.add(make_session(1, LinearClassifier))
        upf.process(ul_packet(1, src_port=1000))
        upf.process(ul_packet(1, src_port=2000))
        assert len(upf.flow_cache) == 2

    def test_install_pdr_invalidates(self):
        table, upf = build_stack(True, None)
        session = make_session(1, LinearClassifier)
        table.add(session)
        upf.process(dl_packet(1))
        # Install a higher-priority DL PDR pointing at a drop FAR: the
        # cached decision must not survive.
        session.install_far(FAR(far_id=9, drop=True))
        session.install_pdr(
            PDR.from_fields(
                priority=900,
                rule_id=3,
                far_id=9,
                dst_ip=exact(UE_BASE + 1),
                source_iface=exact(pfcp_ies.CORE),
                source_interface=pfcp_ies.CORE,
            )
        )
        assert upf.process(dl_packet(1)) == "drop-action"
        assert upf.flow_cache.stale >= 1

    def test_remove_pdr_invalidates(self):
        table, upf = build_stack(True, None)
        session = make_session(1, LinearClassifier)
        table.add(session)
        assert upf.process(ul_packet(1)) == "forwarded-ul"
        session.remove_pdr(1)
        assert upf.process(ul_packet(1)) == "drop-no-pdr"

    def test_update_far_invalidates(self):
        table, upf = build_stack(True, None)
        session = make_session(1, LinearClassifier)
        table.add(session)
        assert upf.process(dl_packet(1)) == "forwarded-dl"
        session.update_far(
            FAR(far_id=2, forward=False, buffer=True)
        )
        assert upf.process(dl_packet(1)) == "buffered"

    def test_session_removal_invalidates_and_purges(self):
        table, upf = build_stack(True, None)
        session = make_session(1, LinearClassifier)
        table.add(session)
        upf.process(ul_packet(1))
        upf.process(dl_packet(1))
        assert len(upf.flow_cache) == 2
        table.remove(1)
        assert len(upf.flow_cache) == 0  # purged eagerly
        assert upf.process(ul_packet(1)) == "drop-no-session"

    def test_qer_policing_runs_on_cache_hits(self):
        """The MBR bucket must drain per packet even on the fast path."""
        table, upf = build_stack(True, None)
        table.add(make_session(1, LinearClassifier, qer=True))
        outcomes = [upf.process(ul_packet(1)) for _ in range(5)]
        # burst 300 B at 100 B/packet: 3 conform, the rest police.
        assert outcomes == ["forwarded-ul"] * 3 + ["drop-qos"] * 2
        assert upf.flow_cache.hits == 4

    def test_urr_accounting_runs_on_cache_hits(self):
        table, upf = build_stack(True, None)
        session = make_session(1, LinearClassifier, urr=True)
        table.add(session)
        for _ in range(4):
            upf.process(ul_packet(1))
        assert session.usage_counters[1].uplink_bytes == 400
        # 256 B threshold: reports at 300 B and (next window) at 600 B.
        assert upf.stats.usage_reports == 1

    def test_teidless_uplink_bypasses_cache(self):
        table, upf = build_stack(True, None)
        table.add(make_session(1, LinearClassifier))
        packet = ul_packet(1)
        packet.teid = None
        assert upf.process(packet) == "drop-no-session"
        assert len(upf.flow_cache) == 0

    def test_cache_off_by_default(self):
        table, upf = build_stack(False, None)
        assert upf.flow_cache is None
        table.add(make_session(1, LinearClassifier))
        assert upf.process(ul_packet(1)) == "forwarded-ul"


class TestDrainStateLifecycle:
    def test_drain_until_evicted_on_session_removal(self):
        table, upf = build_stack(False, None)
        session = make_session(1, LinearClassifier)
        table.add(session)
        session.update_far(
            FAR(far_id=2, forward=False, buffer=True)
        )
        upf.process(dl_packet(1))
        session.update_far(FAR(far_id=2, forward=True))
        upf.flush_session(session)
        assert session.seid in upf._drain_until
        table.remove(1)
        assert session.seid not in upf._drain_until

    def test_unrelated_drain_state_survives(self):
        table, upf = build_stack(False, None)
        for seid in (1, 2):
            session = make_session(seid, LinearClassifier)
            table.add(session)
            session.update_far(
                FAR(far_id=2, forward=False, buffer=True)
            )
            upf.process(dl_packet(seid))
            session.update_far(FAR(far_id=2, forward=True))
            upf.flush_session(session)
        table.remove(1)
        assert 1 not in upf._drain_until
        assert 2 in upf._drain_until


# ----------------------------------------------------------------------
# Full-system wiring (SystemConfig -> FiveGCore -> metrics)
# ----------------------------------------------------------------------
class TestFullSystemWiring:
    def _core_with_traffic(self, flow_cache):
        from repro.cp import FiveGCore, SystemConfig, scenario
        from repro.cp.scenario import ATTACH
        from repro.sim import Environment as CoreEnv

        env = CoreEnv()
        config = SystemConfig.l25gc()
        config.flow_cache = flow_cache
        core = FiveGCore(env, config)
        for gnb in core.gnbs.values():
            gnb.radio_latency = 0.0
        _, (_, session) = scenario.run(
            core, {"imsi-208930000009001": ATTACH})
        detail = session.detail
        for _ in range(20):
            core.inject_downlink(
                Packet(
                    direction=Direction.DOWNLINK,
                    flow=FiveTuple(
                        src_ip=1, dst_ip=detail["ue_ip"],
                        src_port=80, dst_port=4000,
                    ),
                    created_at=env.now,
                )
            )
        env.run()
        return core, core.ues["imsi-208930000009001"]

    def test_config_flag_enables_cache_and_exports_gauges(self):
        core, ue = self._core_with_traffic(True)
        assert core.upf_u.flow_cache is not None
        assert len(ue.received) == 20
        assert core.upf_u.flow_cache.hits == 19  # first packet fills
        registry = core.metrics_registry()
        assert registry.gauge("flow_cache.hits").value == 19
        assert registry.gauge("flow_cache.hit_rate").value == 0.95

    def test_cache_off_core_identical_delivery(self):
        cached_core, cached_ue = self._core_with_traffic(True)
        plain_core, plain_ue = self._core_with_traffic(False)
        assert plain_core.upf_u.flow_cache is None
        assert len(cached_ue.received) == len(plain_ue.received)
        assert cached_core.upf_u.stats == plain_core.upf_u.stats


# ----------------------------------------------------------------------
# Epoch bookkeeping
# ----------------------------------------------------------------------
class TestEpochWiring:
    def test_table_add_adopts_shared_epoch(self):
        table = SessionTable()
        session = make_session(1, LinearClassifier)
        private = session.epoch
        table.add(session)
        assert session.epoch is table.epoch
        assert session.epoch is not private

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda s: s.install_pdr(make_session(2, LinearClassifier).pdrs[2]),
            lambda s: s.install_far(FAR(far_id=7)),
            lambda s: s.update_far(FAR(far_id=2)),
            lambda s: s.update_far(FAR(far_id=9)),
            lambda s: s.remove_pdr(1),
            lambda s: s.install_qer_enforcer(QerEnforcer(qer_id=5)),
            lambda s: s.install_usage_counter(UsageCounter(urr_id=5)),
        ],
        ids=[
            "install_pdr",
            "install_far",
            "update_far",
            "update_far-new",
            "remove_pdr",
            "install_qer_enforcer",
            "install_usage_counter",
        ],
    )
    def test_every_mutator_bumps(self, mutate):
        table = SessionTable()
        session = make_session(1, LinearClassifier)
        table.add(session)
        before = table.epoch.value
        mutate(session)
        assert table.epoch.value > before

    def test_table_membership_changes_bump(self):
        table = SessionTable()
        before = table.epoch.value
        table.add(make_session(1, LinearClassifier))
        assert table.epoch.value == before + 1
        table.remove(1)
        assert table.epoch.value == before + 2
        # Removing an unknown session changes nothing, so it publishes
        # nothing.
        table.remove(1)
        assert table.epoch.value == before + 2

    def test_packet_key_matches_session_key(self):
        """Classifying on the shared pre-built key == letting the
        session build its own."""
        packet = ul_packet(3)
        session = make_session(3, LinearClassifier)
        matched = session.match_pdr(packet, key=packet_key(packet))
        assert matched is session.match_pdr(packet) is session.pdrs[1]


class TestPublishThroughPfcp:
    """A PFCP session modification must reach a flow the cache already
    holds: each rule the UPF-C writes is published through the
    session's mutator, never written into the rule maps directly."""

    SUPI = "imsi-208930000009002"

    def _warm_core(self):
        from repro.cp import SystemConfig, scenario
        from repro.cp.scenario import ATTACH
        from repro.experiments.common import data_plane_core

        config = SystemConfig.l25gc()
        config.flow_cache = True
        core = data_plane_core(config)
        scenario.run(core, {self.SUPI: [*ATTACH, ("downlink", 10_000, 1e-3)]})
        assert len(core.ues[self.SUPI].received) == 10
        assert core.upf_u.flow_cache.hits == 9  # the flow is warm
        return core, core.smf.context_for(self.SUPI, 1)

    @staticmethod
    def _dl(core, sm):
        # The scenario's downlink flow: the same key as the warm entry.
        return Packet(
            direction=Direction.DOWNLINK,
            flow=FiveTuple(
                src_ip=core.DN_ADDRESS, dst_ip=sm.ue_ip,
                src_port=80, dst_port=40000,
            ),
            created_at=core.env.now,
        )

    def test_paging_buffer_update_reaches_the_warm_flow(self):
        from repro.cp import scenario

        core, sm = self._warm_core()
        ue = core.ues[self.SUPI]
        # AN release: the SMF's buffer_for_paging Update FAR.
        scenario.run(core, {self.SUPI: [("idle",)]})
        packets = [self._dl(core, sm) for _ in range(3)]
        outcomes = [core.upf_u.process(packet) for packet in packets]
        assert outcomes == ["buffered"] * 3
        # Paging: forward_again drains the buffer, in order.
        scenario.run(core, {self.SUPI: [("page",)]})
        assert ue.received[-3:] == packets
        assert core.upf_u.process(self._dl(core, sm)) == "forwarded-dl"

    def test_rules_created_by_a_modification_reach_the_warm_flow(self):
        from repro.pfcp.messages import SessionModificationRequest

        core, sm = self._warm_core()

        def modify(*created):
            core.upf_c.handle(SessionModificationRequest(
                seid=sm.seid, sequence=core.smf.next_sequence(),
                ies=list(created),
            ))
            return core.upf_u.process(self._dl(core, sm))

        def far_3(flags, *params):
            children = [pfcp_ies.FarIdIE(rule_id=3),
                        pfcp_ies.ApplyActionIE(flags=flags)]
            if params:
                children.append(
                    pfcp_ies.ForwardingParametersIE(children=list(params)))
            return pfcp_ies.CreateFarIE(children=children)

        # A dropping FAR 3 that nothing references yet.
        assert modify(far_3(pfcp_ies.ACTION_DROP)) == "forwarded-dl"
        # A DL PDR above the session's own (precedence 32) selects it.
        pdr_3 = pfcp_ies.CreatePdrIE(children=[
            pfcp_ies.PdrIdIE(rule_id=3),
            pfcp_ies.PrecedenceIE(precedence=1),
            pfcp_ies.PdiIE(children=[
                pfcp_ies.SourceInterfaceIE(interface=pfcp_ies.CORE),
                pfcp_ies.UeIpAddressIE(
                    address=sm.ue_ip, source_or_destination=1),
            ]),
            pfcp_ies.FarIdIE(rule_id=3),
        ])
        assert modify(pdr_3) == "drop-action"
        # FAR 3 re-created as forward-to-gNB: the decision follows.
        forward = far_3(
            pfcp_ies.ACTION_FORW,
            pfcp_ies.DestinationInterfaceIE(interface=pfcp_ies.ACCESS),
            pfcp_ies.OuterHeaderCreationIE(
                teid=sm.dl_teid, address=sm.gnb_address),
        )
        assert modify(forward) == "forwarded-dl"


# ----------------------------------------------------------------------
# Property test: cache-on == cache-off == linear oracle
# ----------------------------------------------------------------------
SEIDS = (1, 2, 3)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("ul"), st.sampled_from(SEIDS),
                  st.integers(1, 3)),
        st.tuples(st.just("dl"), st.sampled_from(SEIDS),
                  st.integers(1, 3)),
        st.tuples(st.just("add"), st.sampled_from(SEIDS), st.just(0)),
        st.tuples(st.just("del"), st.sampled_from(SEIDS), st.just(0)),
        st.tuples(st.just("buffer-far"), st.sampled_from(SEIDS), st.just(0)),
        st.tuples(st.just("forward-far"), st.sampled_from(SEIDS), st.just(0)),
        st.tuples(st.just("drop-pdr"), st.sampled_from(SEIDS), st.just(0)),
        st.tuples(st.just("flush"), st.sampled_from(SEIDS), st.just(0)),
    ),
    min_size=1,
    max_size=60,
)


class _Harness:
    """One UPF stack driven by the shared op sequence."""

    def __init__(self, flow_cache, classifier_class):
        self.classifier_class = classifier_class
        self.table = SessionTable()
        self.upf = UPFUserPlane(
            Environment(),
            self.table,
            flow_cache=flow_cache,
            flow_cache_capacity=8,  # tiny: exercise LRU eviction too
        )
        self.outcomes = []

    def step(self, op, seid, variant):
        table, upf = self.table, self.upf
        session = table.by_seid(seid)
        if op == "ul":
            self.outcomes.append(
                upf.process(ul_packet(seid, src_port=4000 + variant))
            )
        elif op == "dl":
            self.outcomes.append(
                upf.process(dl_packet(seid, src_port=80 + variant))
            )
        elif op == "add":
            if session is None:
                table.add(
                    make_session(
                        seid, self.classifier_class, qer=True, urr=True
                    )
                )
        elif op == "del":
            table.remove(seid)
        elif op == "buffer-far" and session is not None:
            session.update_far(
                FAR(far_id=2, forward=False, buffer=True, notify_cp=True)
            )
        elif op == "forward-far" and session is not None:
            session.update_far(FAR(far_id=2, forward=True))
        elif op == "drop-pdr" and session is not None:
            if 2 in session.pdrs:
                session.remove_pdr(2)
            else:
                # Re-install the DL PDR removed by a previous op.
                fresh = make_session(seid, self.classifier_class)
                session.install_pdr(fresh.pdrs[2])
        elif op == "flush" and session is not None:
            upf.flush_session(session)


@settings(max_examples=60, deadline=None)
@given(_ops)
def test_cache_on_equals_cache_off_equals_oracle(ops):
    from repro.classifier import PartitionSortClassifier

    cached = _Harness(True, PartitionSortClassifier)
    plain = _Harness(False, PartitionSortClassifier)
    oracle = _Harness(False, LinearClassifier)
    for op, seid, variant in ops:
        for harness in (cached, plain, oracle):
            harness.step(op, seid, variant)
        # Outcomes must agree after *every* packet, not just at the
        # end — stale entries may never influence a single decision.
        assert cached.outcomes == plain.outcomes == oracle.outcomes
    assert cached.upf.stats == plain.upf.stats == oracle.upf.stats


@settings(max_examples=25, deadline=None)
@given(_ops)
def test_stale_entries_never_survive_mutations(ops):
    """After any op sequence, every resident entry is re-derivable."""
    from repro.classifier import PartitionSortClassifier

    harness = _Harness(True, PartitionSortClassifier)
    for op, seid, variant in ops:
        harness.step(op, seid, variant)
    cache = harness.upf.flow_cache
    epoch = harness.table.epoch.value
    for key, entry in cache._entries.items():
        if entry.generation != epoch:
            continue  # stale: would be dropped on its next probe
        # A current-epoch entry must match what the pipeline derives.
        session = harness.table.by_seid(entry.session.seid)
        assert session is entry.session
        pdr = session.classifier.lookup(key)
        assert pdr is not None and pdr.rule_id == entry.pdr.pdr_id
        assert session.fars.get(entry.pdr.far_id) is entry.far
