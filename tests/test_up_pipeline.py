"""Tests for the user plane: rules, sessions, buffer, UPF-C/UPF-U."""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import races, sanitizer
from repro.analysis.lifecycle import RULE_CONTAINERS
from repro.classifier import LinearClassifier, exact
from repro.classifier.partition_sort import PartitionSortClassifier
from repro.classifier.rule import FIELD_INDEX, FULL_DOMAIN
from repro.net import Direction, FiveTuple, Packet
from repro.pfcp import ies as pfcp_ies
from repro.pfcp.builder import (
    build_buffering_update,
    build_forward_update,
    build_path_switch,
    build_session_establishment,
)
from repro.pfcp.messages import (
    SessionDeletionRequest,
    SessionModificationRequest,
)
from repro.sim import Environment
from repro.up import (
    FAR,
    PDR,
    SessionTable,
    QerEnforcer,
    SmartBuffer,
    UPFControlPlane,
    UPFSession,
    UPFUserPlane,
    UsageCounter,
    far_from_ie,
    pdr_from_create_ie,
)
from repro.up.rules import precedence_to_priority

from .test_classifier_rule import key_of

UE_IP = 0x0A3C0001
GNB = 0xC0A80201
UPF = 0xC0A80102


def build_upf(env=None, **kwargs):
    env = env or Environment()
    table = SessionTable()
    ul_sink, dl_sink, reports = [], [], []
    upf_u = UPFUserPlane(
        env,
        table,
        uplink_sink=ul_sink.append,
        downlink_sink=lambda packet, teid, address: dl_sink.append(
            (packet, teid, address)
        ),
        **kwargs,
    )
    upf_c = UPFControlPlane(
        table, upf_u=upf_u, address=UPF, send_report=reports.append
    )
    upf_u.notify_cp = upf_c.on_buffered_data
    return env, table, upf_u, upf_c, ul_sink, dl_sink, reports


def establish(upf_c, seid=1, ue_ip=UE_IP, ul_teid=0x100, dl_teid=0x500):
    request = build_session_establishment(
        seid=seid,
        sequence=1,
        ue_ip=ue_ip,
        upf_address=UPF,
        ul_teid=ul_teid,
        gnb_address=GNB,
        dl_teid=dl_teid,
    )
    return upf_c.handle(request)


DETACHED = "rule write on a session no table holds"


def rule_writes(session):
    """One call per ``UPFSession`` rule mutator, each of which ends in
    ``_publish``; id 9 is new to every fixture session."""
    return [
        lambda: session.install_pdr(PDR.from_fields(
            priority=precedence_to_priority(32), rule_id=9, far_id=9,
        )),
        lambda: session.remove_pdr(9),
        lambda: session.install_far(FAR(far_id=9, forward=True)),
        lambda: session.update_far(FAR(far_id=9, drop=True)),
        lambda: session.install_qer_enforcer(QerEnforcer(qer_id=9)),
        lambda: session.install_usage_counter(UsageCounter(urr_id=9)),
    ]


def assert_refuses_rule_writes(session, table):
    """Every mutator raises on ``session``; ``table``'s epoch (the one
    its flow cache reads) does not move."""
    before = table.epoch.value
    for write in rule_writes(session):
        with pytest.raises(RuntimeError, match=DETACHED):
            write()
    assert table.epoch.value == before


def assert_accepts_rule_writes(session):
    for write in rule_writes(session):
        write()


def dl_packet(ue_ip=UE_IP, seq=None):
    return Packet(
        direction=Direction.DOWNLINK,
        flow=FiveTuple(src_ip=0x08080808, dst_ip=ue_ip, src_port=80,
                       dst_port=4000),
        seq=seq,
    )


def ul_packet(teid=0x100, ue_ip=UE_IP):
    return Packet(
        direction=Direction.UPLINK,
        teid=teid,
        flow=FiveTuple(src_ip=ue_ip, dst_ip=0x08080808, src_port=4000,
                       dst_port=80),
    )


class TestSmartBuffer:
    def test_capacity_default_is_3k(self):
        assert SmartBuffer().capacity == 3000

    def test_push_drain_order(self):
        buffer = SmartBuffer(capacity=10)
        packets = [Packet(seq=i) for i in range(5)]
        for packet in packets:
            assert buffer.push(packet)
        drained = buffer.drain()
        assert [packet.seq for packet in drained] == [0, 1, 2, 3, 4]
        assert len(buffer) == 0
        assert buffer.drained_total == 5

    def test_tail_drop(self):
        buffer = SmartBuffer(capacity=2)
        assert buffer.push(Packet())
        assert buffer.push(Packet())
        assert not buffer.push(Packet())
        assert buffer.dropped == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SmartBuffer(capacity=0)


class TestSessionTable:
    def test_dual_key_lookup(self):
        table = SessionTable()
        session = UPFSession(seid=1, ue_ip=UE_IP, ul_teid=0x100)
        table.add(session)
        assert table.by_teid(0x100) is session
        assert table.by_ue_ip(UE_IP) is session
        assert table.by_seid(1) is session

    def test_duplicate_keys_rejected(self):
        table = SessionTable()
        table.add(UPFSession(seid=1, ue_ip=1, ul_teid=10))
        with pytest.raises(ValueError):
            table.add(UPFSession(seid=1, ue_ip=2, ul_teid=11))
        with pytest.raises(ValueError):
            table.add(UPFSession(seid=2, ue_ip=1, ul_teid=11))
        with pytest.raises(ValueError):
            table.add(UPFSession(seid=2, ue_ip=2, ul_teid=10))

    def test_remove_clears_all_keys(self):
        table = SessionTable()
        session = UPFSession(seid=1, ue_ip=1, ul_teid=10)
        # A session no table has held yet keeps its own epoch and
        # accepts writes (how unit tests drive a bare session).
        assert_accepts_rule_writes(session)
        table.add(session)
        assert table.remove(1) is session
        assert table.by_teid(10) is None
        assert table.by_ue_ip(1) is None
        assert table.remove(1) is None
        # Removed, it refuses rule writes; added again, it takes them.
        assert_refuses_rule_writes(session, table)
        table.add(session)
        assert session.epoch is table.epoch
        assert_accepts_rule_writes(session)

    def test_session_object_is_closed(self):
        """Per-session state is what ``UPFSession.__slots__`` declares:
        a later change cannot quietly grow it, and every rule container
        the analyser tracks is one of the declared attributes.  What a
        decoded session owns -- its PDRs, its FARs, its buffer and its
        classifier -- is closed too, and the classifier stores the
        session's own PDR objects: one object per rule."""
        _env, table, _upf_u, upf_c, *_ = build_upf()
        establish(upf_c)
        session = table.by_seid(1)
        pdr, far = session.pdrs[1], session.fars[1]
        classifier = session.classifier
        assert isinstance(classifier, PartitionSortClassifier)
        for obj in (session, pdr, far, session.buffer, classifier):
            assert not hasattr(obj, "__dict__"), type(obj).__name__
            with pytest.raises(AttributeError):
                obj.undeclared = 1
        assert set(RULE_CONTAINERS) <= set(UPFSession.__slots__)
        assert {id(r) for r in classifier.rules()} == {
            id(p) for p in session.pdrs.values()
        }
        assert len(classifier) == len(session.pdrs) == 2

    def test_rules_share_the_full_domain_wildcards(self):
        """A decoded PDR owns only the ranges its PDI names; every other
        field is the one shared ``FULL_DOMAIN`` tuple."""
        _env, table, _upf_u, upf_c, *_ = build_upf()
        establish(upf_c)
        for pdr in table.by_seid(1).pdrs.values():
            ranges = pdr.ranges
            shared = [r is w for r, w in zip(ranges, FULL_DOMAIN)]
            constrained = [r != w for r, w in zip(ranges, FULL_DOMAIN)]
            assert shared == [not c for c in constrained]
            assert sum(constrained) == 2  # source_iface + TEID / UE IP

    def test_sessions_share_small_ranges_and_empty_qos_maps(self):
        """Across sessions, equal small ``exact`` ranges are one tuple,
        and a session without QERs/URRs holds the one shared read-only
        empty mapping until its first install swaps in its own dict."""
        _env, table, _upf_u, upf_c, *_ = build_upf()
        establish(upf_c)
        establish(upf_c, seid=2, ue_ip=UE_IP + 1, ul_teid=0x101, dl_teid=0x501)
        one, two = table.by_seid(1), table.by_seid(2)
        iface = FIELD_INDEX["source_iface"]
        for pdr_id in (1, 2):
            mine, theirs = one.pdrs[pdr_id], two.pdrs[pdr_id]
            assert mine.ranges[iface] is theirs.ranges[iface]
        assert one.qer_enforcers is two.qer_enforcers
        assert one.usage_counters is two.usage_counters
        with pytest.raises(TypeError):
            one.usage_counters[1] = UsageCounter(urr_id=1)
        one.install_usage_counter(UsageCounter(urr_id=1))
        assert 1 in one.usage_counters and not two.usage_counters

    def test_cached_decision_holds_the_table_s_session(self):
        """One object per session: what the pipeline memoizes after a
        miss, and applies on the hit, is what N4 addresses by SEID."""
        _env, table, upf_u, upf_c, *_ = build_upf(flow_cache=True)
        establish(upf_c)
        assert upf_u.process(dl_packet()) == "forwarded-dl"  # miss
        assert upf_u.process(dl_packet()) == "forwarded-dl"  # hit
        assert (upf_u.flow_cache.misses, upf_u.flow_cache.hits) == (1, 1)
        (entry,) = upf_u.flow_cache._entries.values()
        assert entry.session is table.by_seid(1)


#: One install or removal on a session: (verb, PDR id, TEID or None for
#: wildcard, QFI or None, precedence).  Few ids, so most installs reuse
#: one with new ranges or a new precedence.
_PDR_OPS = st.lists(
    st.tuples(
        st.sampled_from(["install", "install", "remove"]),
        st.integers(1, 5),
        st.one_of(st.none(), st.integers(0, 3)),
        st.one_of(st.none(), st.integers(0, 3)),
        st.sampled_from([1, 10, 10, 255, 5000]),
    ),
    max_size=30,
)


@pytest.mark.parametrize(
    "classifier_class", [PartitionSortClassifier, LinearClassifier]
)
@settings(max_examples=60, deadline=None)
@given(ops=_PDR_OPS)
def test_pdrs_is_the_one_index_of_the_classifier(classifier_class, ops):
    """``session.pdrs`` is the only id index: after every install
    (fresh or reused id) and removal, the classifier holds exactly the
    mapped PDR objects, and ``match_pdr`` is a brute-force
    highest-priority ``Rule.matches`` over them."""
    session = UPFSession(
        seid=1, ue_ip=UE_IP, ul_teid=0x100, classifier_class=classifier_class
    )
    keys = [key_of(teid=t, qfi=q) for t in range(4) for q in range(4)]
    for verb, pdr_id, teid, qfi, precedence in ops:
        if verb == "remove":
            present = pdr_id in session.pdrs
            assert session.remove_pdr(pdr_id) is present
        else:
            constrained = {}
            if teid is not None:
                constrained["teid"] = exact(teid)
            if qfi is not None:
                constrained["qfi"] = exact(qfi)
            session.install_pdr(PDR.from_fields(
                priority=precedence_to_priority(precedence),
                rule_id=pdr_id, far_id=pdr_id, **constrained,
            ))
        assert len(session.classifier) == len(session.pdrs)
        for key in keys:
            hit = session.match_pdr(None, key=key)
            matching = [p for p in session.pdrs.values() if p.matches(key)]
            if not matching:
                assert hit is None
                continue
            assert hit is session.pdrs[hit.pdr_id]
            assert hit.matches(key)
            assert hit.priority == max(p.priority for p in matching)


class TestSessionBytes:
    """Bytes per installed session are pinned (§3.2: the session
    context is the table the paper shards to 1M sessions).  A two-PDR
    session installed over N4 costs at most ``BOUND`` bytes under
    tracemalloc, and the cost per session does not grow with the table.
    """

    BOUND = 2600

    @pytest.fixture(autouse=True)
    def _plain_layout(self):
        if races.active() is not None or sanitizer.active() is not None:
            pytest.skip(
                "the race detector registers each session and its buffer "
                "and the sanitizer tracks descriptors: bytes measured "
                "under either are not the plain session layout's"
            )

    @staticmethod
    def _bytes_per_session(count):
        _env, table, _upf_u, upf_c, *_ = build_upf()
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for n in range(count):
                establish(
                    upf_c, seid=n + 1, ue_ip=UE_IP + n, ul_teid=0x100 + n,
                    dl_teid=0x500 + n,
                )
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == count
        assert all(len(s.pdrs) == 2 for s in table.sessions())
        return (after - before) / count

    def test_bytes_per_session_are_bounded_and_flat(self):
        small = self._bytes_per_session(1_000)
        large = self._bytes_per_session(4_000)
        assert small <= self.BOUND
        assert large <= self.BOUND
        assert abs(large - small) <= 0.05 * small


class TestRuleDecoding:
    def test_pdr_from_create_ie(self):
        request = build_session_establishment(
            seid=1, sequence=1, ue_ip=UE_IP, upf_address=UPF,
            ul_teid=0x100, gnb_address=GNB, dl_teid=0x500,
        )
        creates = request.find_all(pfcp_ies.CreatePdrIE)
        ul_pdr = pdr_from_create_ie(creates[0])
        dl_pdr = pdr_from_create_ie(creates[1])
        assert ul_pdr.outer_header_removal
        assert ul_pdr.source_interface == pfcp_ies.ACCESS
        assert dl_pdr.source_interface == pfcp_ies.CORE
        # One stored ordering: precedence is derived from the priority,
        # and equal precedences share one priority int.
        assert ul_pdr.precedence == dl_pdr.precedence == 32
        assert ul_pdr.priority is dl_pdr.priority

    def test_far_from_ie_merging_semantics(self):
        request = build_session_establishment(
            seid=1, sequence=1, ue_ip=UE_IP, upf_address=UPF,
            ul_teid=0x100, gnb_address=GNB, dl_teid=0x500,
        )
        fars = [far_from_ie(ie) for ie in request.find_all(pfcp_ies.CreateFarIE)]
        dl_far = next(far for far in fars if far.far_id == 2)
        assert dl_far.outer_teid == 0x500
        assert dl_far.outer_address == GNB

    def test_pdr_without_id_raises(self):
        with pytest.raises(ValueError):
            pdr_from_create_ie(pfcp_ies.CreatePdrIE(children=[]))


class TestForwarding:
    def test_uplink_decap_to_dn(self):
        env, table, upf_u, upf_c, ul_sink, dl_sink, _ = build_upf()
        establish(upf_c)
        upf_u.process(ul_packet())
        assert len(ul_sink) == 1
        assert ul_sink[0].teid is None  # outer header removed
        assert upf_u.stats.forwarded_ul == 1

    def test_downlink_encap_to_gnb(self):
        env, table, upf_u, upf_c, ul_sink, dl_sink, _ = build_upf()
        establish(upf_c)
        upf_u.process(dl_packet())
        assert len(dl_sink) == 1
        packet, teid, address = dl_sink[0]
        assert teid == 0x500 and address == GNB
        assert packet.teid == 0x500

    def test_unknown_session_dropped(self):
        env, table, upf_u, upf_c, *_ = build_upf()
        establish(upf_c)
        upf_u.process(dl_packet(ue_ip=0x0A3C0099))
        upf_u.process(ul_packet(teid=0x999))
        assert upf_u.stats.dropped_no_session == 2

    def test_uplink_without_teid_dropped(self):
        env, table, upf_u, upf_c, *_ = build_upf()
        establish(upf_c)
        packet = ul_packet()
        packet.teid = None
        upf_u.process(packet)
        assert upf_u.stats.dropped_no_session == 1

    def test_session_deletion_stops_forwarding(self):
        env, table, upf_u, upf_c, ul_sink, *_ = build_upf()
        establish(upf_c)
        removed = table.by_seid(1)
        response = upf_c.handle(SessionDeletionRequest(seid=1, sequence=2))
        assert response.find(pfcp_ies.CauseIE).accepted
        upf_u.process(ul_packet())
        assert upf_u.stats.dropped_no_session == 1
        # A rule write on the deleted session raises instead of landing
        # where no packet can see it.
        assert_refuses_rule_writes(removed, table)
        # A re-establishment is a new session, and a writable one.
        establish(upf_c)
        assert_accepts_rule_writes(table.by_seid(1))
        assert upf_u.process(ul_packet()) == "forwarded-ul"

    def test_delete_unknown_session(self):
        env, table, upf_u, upf_c, *_ = build_upf()
        response = upf_c.handle(SessionDeletionRequest(seid=42, sequence=1))
        assert not response.find(pfcp_ies.CauseIE).accepted

    def test_remove_pdr_in_a_modification_stops_matching(self):
        env, table, upf_u, upf_c, *_ = build_upf()
        establish(upf_c)
        assert upf_u.process(ul_packet()) == "forwarded-ul"
        remove = pfcp_ies.RemovePdrIE(children=[pfcp_ies.PdrIdIE(rule_id=1)])
        response = upf_c.handle(
            SessionModificationRequest(seid=1, sequence=2, ies=[remove])
        )
        assert response.find(pfcp_ies.CauseIE).accepted
        assert sorted(table.by_seid(1).pdrs) == [2]
        assert upf_u.process(ul_packet()) == "drop-no-pdr"


class TestBufferingFlow:
    def test_buffering_update_buffers_and_notifies_once(self):
        env, table, upf_u, upf_c, _, dl_sink, reports = build_upf()
        establish(upf_c)
        upf_c.handle(build_buffering_update(seid=1, sequence=2, notify_cp=True))
        for seq in range(5):
            upf_u.process(dl_packet(seq=seq))
        session = table.by_seid(1)
        assert len(session.buffer) == 5
        assert len(reports) == 1  # exactly one downlink data report
        assert dl_sink == []

    def test_forward_update_flushes_in_order(self):
        env, table, upf_u, upf_c, _, dl_sink, _ = build_upf()
        establish(upf_c)
        upf_c.handle(build_buffering_update(seid=1, sequence=2, notify_cp=True))
        for seq in range(5):
            upf_u.process(dl_packet(seq=seq))
        upf_c.handle(
            build_forward_update(seid=1, sequence=3, gnb_address=GNB,
                                 dl_teid=0x500)
        )
        assert [p.seq for p, _t, _a in dl_sink] == [0, 1, 2, 3, 4]
        assert len(table.by_seid(1).buffer) == 0
        # Drained packets carry their serial re-injection delay.
        delays = [p.meta["extra_delay"] for p, _t, _a in dl_sink]
        assert delays == sorted(delays)

    def test_report_pending_resets_after_flush(self):
        env, table, upf_u, upf_c, _, _, reports = build_upf()
        establish(upf_c)
        upf_c.handle(build_buffering_update(seid=1, sequence=2, notify_cp=True))
        upf_u.process(dl_packet(seq=0))
        upf_c.handle(
            build_forward_update(seid=1, sequence=3, gnb_address=GNB,
                                 dl_teid=0x500)
        )
        upf_c.handle(build_buffering_update(seid=1, sequence=4, notify_cp=True))
        upf_u.process(dl_packet(seq=1))
        assert len(reports) == 2  # a fresh episode notifies again

    def test_report_pending_resets_when_flush_has_no_tunnel(self):
        """A FORW update without an outer header drops the buffered
        packets — and still ends the episode, so the next one pages."""
        env, table, upf_u, upf_c, _, dl_sink, reports = build_upf()
        establish(upf_c)
        session = table.by_seid(1)
        buffering = FAR(far_id=2, forward=False, buffer=True, notify_cp=True)
        session.update_far(buffering)
        assert upf_u.process(dl_packet(seq=0)) == "buffered"
        # install (not update, which would keep the old outer header)
        session.install_far(FAR(far_id=2, forward=True))
        assert upf_u.flush_session(session) == 0
        assert upf_u.stats.dropped_action == 1 and dl_sink == []
        session.update_far(buffering)
        assert upf_u.process(dl_packet(seq=1)) == "buffered"
        assert upf_u.stats.notifications == len(reports) == 2

    def test_drain_entry_expires_once_the_drain_is_over(self):
        env, table, upf_u, upf_c, _, dl_sink, _ = build_upf()
        establish(upf_c)
        upf_c.handle(build_buffering_update(seid=1, sequence=2))
        for seq in range(3):
            upf_u.process(dl_packet(seq=seq))
        upf_c.handle(
            build_forward_update(seid=1, sequence=3, gnb_address=GNB,
                                 dl_teid=0x500)
        )
        assert upf_u._drain_until[1] > env.now
        # During the drain a forwarded packet queues behind it...
        upf_u.process(dl_packet(seq=3))
        assert dl_sink[-1][0].meta["extra_delay"] > 0
        # ...and once the clock passes its end the entry is dropped by
        # the next forwarded packet, which pays no extra delay.
        env.run(until=upf_u._drain_until[1])
        assert upf_u.process(dl_packet(seq=4)) == "forwarded-dl"
        assert upf_u._drain_until == {}
        assert "extra_delay" not in dl_sink[-1][0].meta

    def test_choose_teid_allocates(self):
        env, table, upf_u, upf_c, *_ = build_upf()
        establish(upf_c)
        response = upf_c.handle(
            build_buffering_update(
                seid=1, sequence=2, choose_new_teid=True, upf_address=UPF
            )
        )
        allocated = response.find(pfcp_ies.FTeidIE)
        assert allocated is not None
        assert allocated.teid >= 0x1000

    def test_create_pdr_with_choose_in_a_modification_allocates(self):
        # The CHOOSE F-TEID sits inside the Create PDR's PDI, not at the
        # top level of the message: the PDR must match the endpoint the
        # UPF allocated (and returned), not every TEID.
        env, table, upf_u, upf_c, *_ = build_upf()
        establish(upf_c)
        create = pfcp_ies.CreatePdrIE(children=[
            pfcp_ies.PdrIdIE(rule_id=3),
            pfcp_ies.PrecedenceIE(precedence=32),
            pfcp_ies.PdiIE(children=[
                pfcp_ies.SourceInterfaceIE(interface=pfcp_ies.ACCESS),
                pfcp_ies.FTeidIE(address=UPF, choose=True),
            ]),
            pfcp_ies.FarIdIE(rule_id=1),
        ])
        response = upf_c.handle(
            SessionModificationRequest(seid=1, sequence=2, ies=[create])
        )
        allocated = response.find(pfcp_ies.FTeidIE)
        assert allocated is not None and allocated.teid >= 0x1000
        assert allocated.address == UPF
        pdr = table.by_seid(1).pdrs[3]
        assert pdr.ranges[FIELD_INDEX["teid"]] == exact(allocated.teid)

    @staticmethod
    def _choose_request():
        """An establishment whose UL PDR asks the UPF to CHOOSE its
        F-TEID; returns it with that PDR's PDI."""
        request = build_session_establishment(
            seid=1, sequence=1, ue_ip=UE_IP, upf_address=UPF, ul_teid=0,
            gnb_address=GNB, dl_teid=0x500,
        )
        pdi = request.find(pfcp_ies.CreatePdrIE).child(pfcp_ies.PdiIE)
        at = pdi.children.index(pdi.child(pfcp_ies.FTeidIE))
        pdi.children[at] = pfcp_ies.FTeidIE(address=UPF, choose=True)
        return request, pdi

    def test_choose_fteid_establishment_leaves_the_request_alone(self):
        env, table, upf_u, upf_c, ul_sink, *_ = build_upf()
        request, pdi = self._choose_request()
        allocated = upf_c.handle(request).find(pfcp_ies.FTeidIE)
        assert allocated is not None and allocated.teid >= 0x1000
        assert pdi.child(pfcp_ies.FTeidIE) == pfcp_ies.FTeidIE(
            address=UPF, choose=True
        )
        # The session and its UL PDR match the allocated endpoint only.
        assert table.by_seid(1).ul_teid == allocated.teid
        assert upf_u.process(ul_packet(teid=allocated.teid)) == "forwarded-ul"
        assert upf_u.process(ul_packet(teid=0)) == "drop-no-session"
        assert len(ul_sink) == 1

    def test_choose_fteid_request_handled_again_allocates_again(self):
        env, table, upf_u, upf_c, *_ = build_upf()
        request, _ = self._choose_request()
        first = upf_c.handle(request).find(pfcp_ies.FTeidIE)
        upf_c.handle(SessionDeletionRequest(seid=1, sequence=2))
        second = upf_c.handle(request).find(pfcp_ies.FTeidIE)
        assert second is not None and second.teid != first.teid
        assert table.by_seid(1).ul_teid == second.teid
        assert upf_u.process(ul_packet(teid=second.teid)) == "forwarded-ul"
        assert upf_u.process(ul_packet(teid=first.teid)) == "drop-no-session"

    def test_modify_unknown_session_rejected(self):
        env, table, upf_u, upf_c, *_ = build_upf()
        response = upf_c.handle(
            build_buffering_update(seid=77, sequence=1)
        )
        cause = response.find(pfcp_ies.CauseIE)
        assert cause.cause == pfcp_ies.CAUSE_SESSION_NOT_FOUND

    def test_path_switch_redirects(self):
        env, table, upf_u, upf_c, _, dl_sink, _ = build_upf()
        establish(upf_c)
        new_gnb = 0xC0A80202
        upf_c.handle(
            build_path_switch(seid=1, sequence=2, new_gnb_address=new_gnb,
                              new_dl_teid=0x600)
        )
        upf_u.process(dl_packet())
        _, teid, address = dl_sink[0]
        assert (teid, address) == (0x600, new_gnb)

    def test_session_scoped_capacity(self):
        env, table, upf_u, upf_c, *_ = build_upf()
        establish(upf_c, seid=1, ue_ip=UE_IP, ul_teid=0x100)
        establish(upf_c, seid=2, ue_ip=UE_IP + 1, ul_teid=0x101)
        session = table.by_seid(1)
        # Session-scoped (L25GC): full capacity regardless of others.
        assert upf_u._effective_capacity(session) == session.buffer.capacity

    def test_shared_capacity_shrinks_with_sessions(self):
        env, table, upf_u, upf_c, *_ = build_upf(
            session_scoped_buffering=False
        )
        establish(upf_c, seid=1, ue_ip=UE_IP, ul_teid=0x100)
        establish(upf_c, seid=2, ue_ip=UE_IP + 1, ul_teid=0x101)
        session = table.by_seid(1)
        expected = session.buffer.capacity - upf_u.SHARED_BACKLOG_PER_SESSION
        assert upf_u._effective_capacity(session) == expected


class TestMultiSession:
    def test_sessions_isolated(self):
        env, table, upf_u, upf_c, ul_sink, dl_sink, _ = build_upf()
        establish(upf_c, seid=1, ue_ip=UE_IP, ul_teid=0x100, dl_teid=0x500)
        establish(upf_c, seid=2, ue_ip=UE_IP + 1, ul_teid=0x101, dl_teid=0x501)
        # Buffer only session 2.
        upf_c.handle(build_buffering_update(seid=2, sequence=5))
        upf_u.process(dl_packet(ue_ip=UE_IP))
        upf_u.process(dl_packet(ue_ip=UE_IP + 1))
        assert len(dl_sink) == 1  # session 1 still flows
        assert len(table.by_seid(2).buffer) == 1
