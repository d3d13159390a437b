"""Hot/cold session-state split: slab unit tests + equivalence property.

The invariant that matters: **resolving the per-packet decision through
the compact hot slab is observationally identical to resolving it
through the cold-object delegation surface** — same per-packet
outcomes, bit-identical :class:`ForwardingStats`, identical URR byte
counts, identical flow-cache contents and counters — over any
interleaving of packets, session churn, and rule mutations.  The
property test replays randomized op scripts
against the production stack and a cold-path oracle stack whose only
difference is ``_lookup_hot`` going table -> ``UPFSession`` -> ``.hot``
instead of probing the slab.

The unit tests pin the slab mechanics individually: dense-index
assignment, free-list recycling, duplicate-key rejection before any
mutation, churn accounting, and the gauge surface.  The race tests
assert the split preserved the pre-split ownership semantics (UPF-C
owns membership and rules, UPF-U reads them on the data path).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import races
from repro.classifier import LinearClassifier, PartitionSortClassifier
from repro.net import Direction
from repro.obs.metrics import MetricsRegistry
from repro.sim import Environment
from repro.up import (
    FAR,
    FARAction,
    RuleEpoch,
    SessionTable,
    UPFSession,
    UPFUserPlane,
)
from repro.up.hot_store import UNSLABBED, HotSessionRecord, HotSessionStore

from .test_up_flow_cache import UE_BASE, dl_packet, make_session, ul_packet


def _record(seid, classifier_class=LinearClassifier):
    return HotSessionRecord(
        seid=seid,
        ue_ip=UE_BASE + seid,
        ul_teid=0x100 + seid,
        classifier=classifier_class(),
        epoch=RuleEpoch(),
    )


# ----------------------------------------------------------------------
# HotSessionStore slab mechanics
# ----------------------------------------------------------------------
class TestHotSessionStore:
    def test_adopt_assigns_dense_indices(self):
        store = HotSessionStore()
        records = [_record(seid) for seid in (1, 2, 3)]
        assert [store.adopt(r) for r in records] == [0, 1, 2]
        assert [r.index for r in records] == [0, 1, 2]
        assert len(store) == store.slab_size == 3
        for record in records:
            assert store.by_teid(record.ul_teid) is record
            assert store.by_ue_ip(record.ue_ip) is record
            assert store.by_index(record.index) is record

    def test_release_recycles_through_free_list(self):
        store = HotSessionStore()
        records = [_record(seid) for seid in (1, 2, 3)]
        for record in records:
            store.adopt(record)
        store.release(records[1])
        assert records[1].index == UNSLABBED
        assert store.by_teid(records[1].ul_teid) is None
        assert store.by_ue_ip(records[1].ue_ip) is None
        assert len(store) == 2 and store.slab_size == 3
        # The freed middle slot is reused — the slab stays dense.
        replacement = _record(4)
        assert store.adopt(replacement) == 1
        assert store.slab_size == 3
        assert store.by_index(1) is replacement

    def test_duplicate_keys_rejected_before_any_mutation(self):
        store = HotSessionStore()
        store.adopt(_record(1))
        same_teid = _record(2)
        same_teid.ul_teid = 0x101
        with pytest.raises(ValueError, match="duplicate UL TEID"):
            store.adopt(same_teid)
        same_ip = _record(3)
        same_ip.ue_ip = UE_BASE + 1
        with pytest.raises(ValueError, match="duplicate UE IP"):
            store.adopt(same_ip)
        # Nothing leaked from the rejected adopts.
        assert same_teid.index == same_ip.index == UNSLABBED
        assert len(store) == store.slab_size == 1
        assert store.adopted == 1

    def test_double_adopt_and_foreign_release_rejected(self):
        store = HotSessionStore()
        record = _record(1)
        store.adopt(record)
        with pytest.raises(ValueError, match="already slabbed"):
            store.adopt(record)
        stranger = _record(2)
        with pytest.raises(ValueError, match="not resident"):
            store.release(stranger)
        other = HotSessionStore()
        resident_elsewhere = _record(3)
        other.adopt(resident_elsewhere)
        with pytest.raises(ValueError, match="not resident"):
            store.release(resident_elsewhere)

    def test_churn_accounting_and_peak(self):
        store = HotSessionStore()
        records = [_record(seid) for seid in (1, 2, 3)]
        for record in records:
            store.adopt(record)
        for record in records[:2]:
            store.release(record)
        store.adopt(_record(4))
        assert (store.adopted, store.released) == (4, 2)
        assert store.peak_live == 3
        assert len(store) == 2
        assert [r.seid for r in store.records()] == [4, 3]

    def test_register_into_exports_live_gauges(self):
        store = HotSessionStore()
        registry = MetricsRegistry()
        store.register_into(registry)
        record = _record(1)
        store.adopt(record)
        store.adopt(_record(2))
        store.release(record)
        assert registry.gauge("hot_store.live").value == 1
        assert registry.gauge("hot_store.slab_size").value == 2
        assert registry.gauge("hot_store.peak_live").value == 2
        assert registry.gauge("hot_store.adopted").value == 2
        assert registry.gauge("hot_store.released").value == 1


# ----------------------------------------------------------------------
# SessionTable <-> slab integration and the delegation surface
# ----------------------------------------------------------------------
class TestSessionTableSlab:
    def test_add_adopts_and_remove_releases(self):
        table = SessionTable()
        session = make_session(1, LinearClassifier)
        table.add(session)
        assert session.hot.index != UNSLABBED
        assert table.hot_store.by_teid(session.ul_teid) is session.hot
        assert table.by_teid(session.ul_teid) is session
        assert table.by_ue_ip(session.ue_ip) is session
        table.remove(1)
        assert session.hot.index == UNSLABBED
        assert table.by_teid(session.ul_teid) is None
        assert len(table.hot_store) == 0

    def test_duplicate_add_leaves_table_and_slab_unchanged(self):
        table = SessionTable()
        table.add(make_session(1, LinearClassifier))
        with pytest.raises(ValueError, match="duplicate SEID"):
            table.add(make_session(1, LinearClassifier))
        clash = UPFSession(seid=2, ue_ip=UE_BASE + 1, ul_teid=0x999)
        with pytest.raises(ValueError, match="duplicate UE IP"):
            table.add(clash)
        assert table.by_seid(2) is None
        assert len(table.hot_store) == 1

    def test_hot_record_shares_rule_state_with_cold_session(self):
        """The delegation properties and the hot record read the same
        underlying containers — rule installs are visible to both."""
        session = make_session(1, LinearClassifier, qer=True, urr=True)
        assert session.pdrs is session.hot.pdrs
        assert session.fars is session.hot.fars
        assert session.qer_enforcers is session.hot.qer_enforcers
        assert session.usage_counters is session.hot.usage_counters
        assert session.classifier is session.hot.classifier
        assert session.epoch is session.hot.epoch
        session.update_far(FAR(far_id=9, action=FARAction(drop=True)))
        assert session.hot.fars[9] is session.fars[9]

    def test_install_rebinds_epoch_on_hot_record(self):
        table = SessionTable()
        session = make_session(1, LinearClassifier)
        assert session.epoch is not table.epoch
        table.add(session)
        assert session.hot.epoch is table.epoch
        assert session.epoch is table.epoch

    def test_match_pdr_equivalent_through_both_surfaces(self):
        session = make_session(1, LinearClassifier)
        packet = ul_packet(1)
        assert session.match_pdr(packet) is session.hot.match_pdr(packet)
        assert session.match_pdr(packet).pdr_id == 1


# ----------------------------------------------------------------------
# Ownership: the split preserves pre-split race semantics
# ----------------------------------------------------------------------
class TestSlabRaceSemantics:
    def test_membership_and_data_path_roles_are_clean(self):
        with races.traced() as det:
            table = SessionTable()
            upf = UPFUserPlane(Environment(), table, flow_cache=True)
            with det.role("upf-c"):
                for seid in (1, 2):
                    table.add(make_session(seid, LinearClassifier))
            with det.role("upf-u"):
                assert upf.process(ul_packet(1)) == "forwarded-ul"
                assert upf.process(dl_packet(2)) == "forwarded-dl"
                assert upf.process(ul_packet(1)) == "forwarded-ul"  # hit
            with det.role("upf-c"):
                table.remove(1)
        assert det.violations == [], det.report()

    def test_upf_u_adding_membership_is_flagged(self):
        """Slab membership is UPF-C-owned state; a data-plane role
        mutating it must still trip the detector after the split."""
        with races.traced() as det:
            table = SessionTable()
            with det.role("upf-u"):
                table.add(make_session(1, LinearClassifier))
        assert any(v.kind == "non-owner-write" for v in det.violations)


# ----------------------------------------------------------------------
# Property: slab resolution == cold-object resolution
# ----------------------------------------------------------------------
class ColdPathUPF(UPFUserPlane):
    """The oracle: identical pipeline, but the session lookup resolves
    through the cold delegation surface (table probe -> ``UPFSession``
    -> ``.hot``) instead of probing the slab directly.  Any divergence
    between the two lookups — a stale index map, a record the table
    knows but the slab lost, mismatched rule containers — surfaces as
    an observable difference downstream."""

    def _lookup_hot(self, packet):
        if packet.direction is not Direction.UPLINK:
            session = self.sessions.by_ue_ip(packet.flow.dst_ip)
        elif packet.teid is not None:
            session = self.sessions.by_teid(packet.teid)
        else:
            return None
        if session is None:
            return None
        return session.hot


SEIDS = (1, 2, 3)

_hot_ops = st.lists(
    st.one_of(
        st.tuples(st.just("ul"), st.sampled_from(SEIDS), st.integers(1, 3)),
        st.tuples(st.just("dl"), st.sampled_from(SEIDS), st.integers(1, 3)),
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


def _mutate(op, seid, table, upf):
    session = table.by_seid(seid)
    if op == "add":
        if session is None:
            table.add(
                make_session(seid, PartitionSortClassifier, qer=True,
                             urr=True)
            )
    elif op == "del":
        table.remove(seid)
    elif op == "buffer-far" and session is not None:
        session.update_far(
            FAR(
                far_id=2,
                action=FARAction(forward=False, buffer=True, notify_cp=True),
            )
        )
    elif op == "forward-far" and session is not None:
        session.update_far(FAR(far_id=2, action=FARAction(forward=True)))
    elif op == "drop-pdr" and session is not None:
        if 2 in session.pdrs:
            session.remove_pdr(2)
        else:
            fresh = make_session(seid, PartitionSortClassifier)
            session.install_pdr(fresh.pdrs[2])
    elif op == "flush" and session is not None:
        upf.flush_session(session)


def _packets_for(run, teidless_variant=3):
    out = []
    for op, seid, variant in run:
        if op == "ul":
            packet = ul_packet(seid, src_port=4000 + variant)
            if variant == teidless_variant:
                packet.teid = None  # exercise the no-session lane
            out.append(packet)
        else:
            out.append(dl_packet(seid, src_port=80 + variant))
    return out


def _replay(ops, flow_cache):
    """Drive the production stack and the cold-path oracle in lockstep."""

    def build(upf_class):
        table = SessionTable()
        upf = upf_class(
            Environment(), table, flow_cache=flow_cache,
            flow_cache_capacity=8,  # tiny: exercise LRU eviction too
        )
        return table, upf

    hot_table, hot_upf = build(UPFUserPlane)
    cold_table, cold_upf = build(ColdPathUPF)
    hot_out, cold_out = [], []
    for op in ops:
        if op[0] in ("ul", "dl"):
            hot_out.extend(hot_upf.process(p) for p in _packets_for([op]))
            cold_out.extend(cold_upf.process(p) for p in _packets_for([op]))
        else:
            _mutate(op[0], op[1], hot_table, hot_upf)
            _mutate(op[0], op[1], cold_table, cold_upf)
    assert hot_out == cold_out
    assert hot_upf.stats == cold_upf.stats  # bit-identical dataclass
    for seid in SEIDS:
        hot_session = hot_table.by_seid(seid)
        cold_session = cold_table.by_seid(seid)
        assert (hot_session is None) == (cold_session is None)
        if hot_session is not None:
            # The slab and the table agree on membership...
            record = hot_table.hot_store.by_teid(hot_session.ul_teid)
            assert record is hot_session.hot
            # ...and URR accounting (cold state) matched the oracle.
            if 1 in hot_session.usage_counters:
                for attr in ("uplink_bytes", "downlink_bytes"):
                    assert (
                        getattr(hot_session.usage_counters[1], attr)
                        == getattr(cold_session.usage_counters[1], attr)
                    ), attr
            assert len(hot_session.buffer) == len(cold_session.buffer)
    if flow_cache:
        hc, cc = hot_upf.flow_cache, cold_upf.flow_cache
        assert list(hc._entries) == list(cc._entries)
        for name in ("hits", "misses", "stale", "inserts", "evictions",
                     "purged"):
            assert getattr(hc, name) == getattr(cc, name), name
    # Slab invariants hold after arbitrary churn.
    store = hot_table.hot_store
    assert len(store) == sum(
        1 for seid in SEIDS if hot_table.by_seid(seid) is not None
    )
    for record in store.records():
        assert store.by_index(record.index) is record


@settings(max_examples=60, deadline=None)
@given(_hot_ops)
def test_slab_equals_cold_path_sequential(ops):
    _replay(ops, flow_cache=True)


@settings(max_examples=30, deadline=None)
@given(_hot_ops)
def test_slab_equals_cold_path_cache_off(ops):
    _replay(ops, flow_cache=False)
