"""Session table: the two data-path hash tables against the N4 view.

One :class:`UPFSession` per PDU session, reached three ways: by SEID
(N4), and by UL TEID / UE IP (the paper's two hash tables, §3.2).  The
invariant that matters: **the index the UPF-U probes per packet
(``SessionTable.index``) and the lookups the UPF-C takes
(``by_teid`` / ``by_ue_ip``) resolve every key to the same object** —
same per-packet outcomes, bit-identical :class:`ForwardingStats`,
identical URR byte counts, identical flow-cache contents and counters —
over any interleaving of packets, session churn, and rule mutations.
The property test replays randomized op scripts against the production
stack and an oracle stack whose only difference is the session lookup
going through the control-plane methods.

The unit tests pin membership: every key is checked before any of the
three maps is touched, a repeated add or an unknown remove changes
nothing, ``add`` rebinds the session's epoch to the table's.  The race
tests assert the ownership semantics (UPF-C owns membership and rules,
UPF-U reads them on the data path).

Class and test names predate the one-session-object table (they date
from the hot/cold slab this file was written for) and are kept because
the suite's floor tracks tests by id.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import races
from repro.classifier import LinearClassifier, PartitionSortClassifier
from repro.sim import Environment
from repro.up import (
    FAR,
    RuleDelta,
    SessionTable,
    UPFSession,
    UPFUserPlane,
)
from repro.up.session import SessionIndex

from .test_up_flow_cache import (
    UE_BASE, cache_state, dl_packet, make_session, ul_packet,
)


def _snapshot(table):
    """Everything a rejected add/remove must leave alone."""
    return (
        sorted(table._by_seid), sorted(table._teid_index),
        sorted(table._ue_ip_index), table.epoch.value,
    )


# ----------------------------------------------------------------------
# Membership: all-or-nothing adds and removes
# ----------------------------------------------------------------------
class TestHotSessionStore:
    def test_duplicate_keys_rejected_before_any_mutation(self):
        table = SessionTable()
        table.add(make_session(1, LinearClassifier))
        before = _snapshot(table)
        same_teid = UPFSession(seid=2, ue_ip=UE_BASE + 2, ul_teid=0x101)
        with pytest.raises(ValueError, match="duplicate UL TEID"):
            table.add(same_teid)
        same_ip = UPFSession(seid=3, ue_ip=UE_BASE + 1, ul_teid=0x103)
        with pytest.raises(ValueError, match="duplicate UE IP"):
            table.add(same_ip)
        # Nothing leaked from the rejected adds: not the SEID, not the
        # key that did not clash, not the shared epoch.
        assert _snapshot(table) == before
        assert same_teid.epoch is not table.epoch
        assert same_ip.epoch is not table.epoch

    def test_double_adopt_and_foreign_release_rejected(self):
        table = SessionTable()
        session = make_session(1, LinearClassifier)
        table.add(session)
        removed = []
        table.add_removal_listener(removed.append)
        before = _snapshot(table)
        with pytest.raises(ValueError, match="duplicate SEID"):
            table.add(session)
        assert table.remove(2) is None  # never installed here
        other = SessionTable()
        other.add(make_session(3, LinearClassifier))
        assert table.remove(3) is None  # resident elsewhere
        assert _snapshot(table) == before
        assert removed == [] and len(other) == 1


# ----------------------------------------------------------------------
# SessionTable: one object behind the three maps
# ----------------------------------------------------------------------
class TestSessionTableSlab:
    def test_add_adopts_and_remove_releases(self):
        table = SessionTable()
        session = make_session(1, LinearClassifier)
        table.add(session)
        assert table.index.by_teid(session.ul_teid) is session
        assert table.index.by_ue_ip(session.ue_ip) is session
        assert table.by_teid(session.ul_teid) is session
        assert table.by_ue_ip(session.ue_ip) is session
        assert table.remove(1) is session
        assert table.index.by_teid(session.ul_teid) is None
        assert table.index.by_ue_ip(session.ue_ip) is None
        assert table.by_teid(session.ul_teid) is None
        assert len(table) == 0

    def test_duplicate_add_leaves_table_and_slab_unchanged(self):
        table = SessionTable()
        table.add(make_session(1, LinearClassifier))
        with pytest.raises(ValueError, match="duplicate SEID"):
            table.add(make_session(1, LinearClassifier))
        clash = UPFSession(seid=2, ue_ip=UE_BASE + 1, ul_teid=0x999)
        with pytest.raises(ValueError, match="duplicate UE IP"):
            table.add(clash)
        assert table.by_seid(2) is None
        assert table.index.by_teid(0x999) is None
        assert len(table) == 1

    def test_install_rebinds_epoch_on_hot_record(self):
        table = SessionTable()
        session = make_session(1, LinearClassifier)
        assert session.epoch is not table.epoch
        table.add(session)
        assert session.epoch is table.epoch
        stamp = table.epoch.value
        session.apply(RuleDelta(far_updates=(FAR(far_id=9, drop=True),)))
        assert table.epoch.value == stamp + 1


# ----------------------------------------------------------------------
# Ownership: membership is UPF-C state, the data path only reads it
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
        """Membership is UPF-C-owned state; a data-plane role mutating
        it must trip the detector."""
        with races.traced() as det:
            table = SessionTable()
            with det.role("upf-u"):
                table.add(make_session(1, LinearClassifier))
        assert any(v.kind == "non-owner-write" for v in det.violations)


# ----------------------------------------------------------------------
# Property: data-path index == control-plane view under churn
# ----------------------------------------------------------------------
class ControlPlaneViewUPF(UPFUserPlane):
    """The oracle: identical pipeline, but its table's index is the
    route the UPF-C takes (``SessionTable.by_teid`` / ``by_ue_ip``)
    instead of the two dicts' bound ``get``.  Any divergence between
    the two — a key one map lost, a stale entry for a removed session,
    two maps naming different objects — surfaces as an observable
    difference downstream."""

    def __init__(self, env, sessions, **kwargs):
        sessions.index = SessionIndex(sessions.by_teid, sessions.by_ue_ip)
        super().__init__(env, sessions, **kwargs)


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
        session.apply(RuleDelta(far_updates=(
            FAR(far_id=2, forward=False, buffer=True, notify_cp=True),
        )))
    elif op == "forward-far" and session is not None:
        session.apply(RuleDelta(far_updates=(FAR(far_id=2, forward=True),)))
    elif op == "drop-pdr" and session is not None:
        if 2 in session.pdrs:
            session.apply(RuleDelta(removed_pdrs=(2,)))
        else:
            fresh = make_session(seid, PartitionSortClassifier)
            session.apply(RuleDelta(pdrs=(fresh.pdrs[2],)))
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
    """Drive the production stack and the oracle in lockstep."""

    def build(upf_class):
        table = SessionTable()
        upf = upf_class(
            Environment(), table, flow_cache=flow_cache,
            flow_cache_capacity=8,  # tiny: exercise LRU eviction too
        )
        return table, upf

    hot_table, hot_upf = build(UPFUserPlane)
    cold_table, cold_upf = build(ControlPlaneViewUPF)
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
        # The three maps agree for every live session and miss for
        # every removed one.
        teid, ue_ip = 0x100 + seid, UE_BASE + seid
        index = hot_table.index
        assert index.by_teid(teid) is hot_session
        assert index.by_ue_ip(ue_ip) is hot_session
        assert hot_table.by_teid(teid) is hot_session
        assert hot_table.by_ue_ip(ue_ip) is hot_session
        if hot_session is not None:
            assert (hot_session.ul_teid, hot_session.ue_ip) == (teid, ue_ip)
            # URR accounting matched the oracle.
            if 1 in hot_session.usage_counters:
                for attr in ("uplink_bytes", "downlink_bytes"):
                    assert (
                        getattr(hot_session.usage_counters[1], attr)
                        == getattr(cold_session.usage_counters[1], attr)
                    ), attr
            assert len(hot_session.buffer) == len(cold_session.buffer)
    if flow_cache:
        assert cache_state(hot_upf.flow_cache) == cache_state(
            cold_upf.flow_cache)
    live = sum(1 for seid in SEIDS if hot_table.by_seid(seid) is not None)
    assert len(hot_table) == live
    assert len(hot_table._teid_index) == len(hot_table._ue_ip_index) == live


@settings(max_examples=60, deadline=None)
@given(_hot_ops)
def test_slab_equals_cold_path_sequential(ops):
    _replay(ops, flow_cache=True)


@settings(max_examples=30, deadline=None)
@given(_hot_ops)
def test_slab_equals_cold_path_cache_off(ops):
    _replay(ops, flow_cache=False)
