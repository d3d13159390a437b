"""A PFCP request is one transaction (TS 29.244 §7.5), property-tested.

Hypothesis draws valid and invalid Session Establishment, Modification
and Deletion requests over live sessions and sends each through
``UPFControlPlane.handle``, on a plain ``SessionTable`` and on a
four-shard ``ShardedSessionTable``.  A reference model folds each
request the way the UP function must:

* a refused request names its cause (and, for 66/73, the Offending IE)
  and leaves every session's rule maps, its classifier contents, the
  TEID index and the table epoch as they were;
* an accepted one leaves them equal to the model's fold of the request:
  removed PDRs go first, a created rule replaces one of its id, a FAR
  update merges into the held FAR (or installs one none holds), and the
  table indexes each uplink TEID a session's ACCESS PDRs match;
* no N4 message moves the table epoch by more than one.
"""

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifier.rule import FIELD_INDEX
from repro.deploy.sharded import ShardedUPFControlPlane, ShardedUserPlane
from repro.pfcp import ies, qos_ies
from repro.pfcp.builder import build_session_establishment
from repro.pfcp.messages import (
    SessionDeletionRequest,
    SessionModificationRequest,
)
from repro.sim import Environment
from repro.up import SessionTable, UPFControlPlane, UPFUserPlane

from .test_up_pipeline import rule_state

UPF = 0xC0A80102
GNB = 0xC0A80201
UE_BASE = 0x0A3C0000
#: Explicit TEIDs no allocator hands out: in a sharded UPF most are
#: steered off their session's bucket.
RAW_TEID = 0x7000
_TEID = FIELD_INDEX["teid"]

ACTIONS = {
    "forw": ies.ACTION_FORW,
    "buff": ies.ACTION_BUFF | ies.ACTION_NOCP,
    "drop": ies.ACTION_DROP,
}


@dataclass
class Model:
    """The reference state of one session, in the terms ``observe``
    reads back from a ``UPFSession``."""

    ue_ip: int
    ul_teid: int
    #: PDR id -> (FAR id, QER id, URR id, source interface, exact TEID)
    pdrs: Dict[int, Tuple] = field(default_factory=dict)
    #: FAR id -> (forward, buffer, drop, notify, outer TEID, outer
    #: address, destination interface)
    fars: Dict[int, Tuple] = field(default_factory=dict)
    qers: Set[int] = field(default_factory=set)
    urrs: Set[int] = field(default_factory=set)

    def uplink_teids(self) -> Set[int]:
        return {self.ul_teid} | {
            teid for _far, _q, _u, iface, teid in self.pdrs.values()
            if iface == ies.ACCESS and teid is not None
        }

    def view(self):
        return self.pdrs, self.fars, self.qers, self.urrs


def observe(session):
    def teid_of(pdr):
        low, high = pdr.ranges[_TEID]
        return low if low == high else None

    return (
        {i: (p.far_id, p.qer_id, p.urr_id, p.source_interface, teid_of(p))
         for i, p in session.pdrs.items()},
        {i: (f.forward, f.buffer, f.drop, f.notify_cp, f.outer_teid,
             f.outer_address, f.destination_interface)
         for i, f in session.fars.items()},
        set(session.qer_enforcers),
        set(session.usage_counters),
    )


def far_state(action, outer):
    flags = ACTIONS[action]
    teid, address, iface = (
        (outer, GNB, ies.ACCESS) if outer is not None
        else (None, None, ies.CORE)
    )
    return (bool(flags & ies.ACTION_FORW), bool(flags & ies.ACTION_BUFF),
            bool(flags & ies.ACTION_DROP), bool(flags & ies.ACTION_NOCP),
            teid, address, iface)


def far_ie(cls, far_id, action, outer):
    children = [ies.FarIdIE(rule_id=far_id),
                ies.ApplyActionIE(flags=ACTIONS[action])]
    if outer is not None:
        children.append(ies.ForwardingParametersIE(children=[
            ies.DestinationInterfaceIE(interface=ies.ACCESS),
            ies.OuterHeaderCreationIE(teid=outer, address=GNB),
        ]))
    return cls(children=children)


class Harness:
    """One UPF-C over a plain or sharded table, plus the model."""

    def __init__(self, shards: Optional[int]):
        env = Environment()
        if shards:
            plane = ShardedUserPlane(env, shards)
            self.cp = ShardedUPFControlPlane(plane)
            self.tables = plane.sessions.tables
            self.router = plane.router
        else:
            table = SessionTable()
            self.cp = UPFControlPlane(
                table, upf_u=UPFUserPlane(env, table), address=UPF
            )
            self.tables = [table]
            self.router = None
        self.models: Dict[int, Model] = {}

    # -- what the UPF holds ---------------------------------------------
    def epoch(self) -> int:
        return sum(table.epoch.value for table in self.tables)

    def index(self) -> Dict[int, int]:
        return {teid: session.seid for table in self.tables
                for teid, session in table._teid_index.items()}

    def steered(self, teid: int, ue_ip: int) -> bool:
        return (self.router is None
                or self.router.bucket_of(teid) == self.router.bucket_of(ue_ip))

    def check(self):
        views = self.cp.sessions
        assert len(views) == len(self.models)
        for seid, model in self.models.items():
            session = views.by_seid(seid)
            assert observe(session) == model.view()
            assert sorted(map(id, session.classifier.rules())) == sorted(
                map(id, session.pdrs.values()))
        assert self.index() == {
            teid: seid for seid, model in self.models.items()
            for teid in model.uplink_teids()
        }

    def send(self, request, expected):
        """Handle ``request``; ``expected`` is the cause, with the
        Offending IE types allowed for 66/73.  A refusal changes
        nothing; every message moves the epoch by at most one."""
        session = self.cp.sessions.by_seid(request.seid)
        before = session and rule_state(session)
        index, epoch = self.index(), self.epoch()
        response = self.cp.handle(request)
        cause = response.find(ies.CauseIE).cause
        assert cause == expected[0], (cause, expected)
        if cause in (ies.CAUSE_MANDATORY_IE_MISSING,
                     ies.CAUSE_RULE_CREATION_MODIFICATION_FAILURE):
            assert response.find(ies.OffendingIeIE).ie_type in expected[1]
        if cause != ies.CAUSE_ACCEPTED:
            if session is not None:
                assert rule_state(session) == before
            assert (self.index(), self.epoch()) == (index, epoch)
        assert self.epoch() - epoch in (0, 1)
        return response, self.epoch() - epoch

    # -- requests --------------------------------------------------------
    def teid(self, kind: str, ue_ip: int, own: Optional[Model] = None):
        others = sorted(m.ul_teid for m in self.models.values()
                        if m is not own)
        if kind == "other" and others:
            return others[0]
        if kind == "raw":
            return RAW_TEID + (ue_ip & 3)
        if kind == "own" and own is not None:
            return own.ul_teid
        return self.cp.allocate_teid(ue_ip=ue_ip)

    def establish(self, seid, ip, kind, extra):
        ue_ip = UE_BASE + ip
        choose = kind == "choose"
        ul_teid = 0 if choose else self.teid(kind, ue_ip)
        qos = extra in ("qos", "bad-urr")
        request = build_session_establishment(
            seid=seid, sequence=1, ue_ip=ue_ip, upf_address=UPF,
            ul_teid=ul_teid, gnb_address=GNB, dl_teid=0x500 + seid,
            qos_rules=(
                [qos_ies.CreateQerIE(children=[ies.QerIdIE(rule_id=1)]),
                 qos_ies.CreateUrrIE(children=[qos_ies.UrrIdIE(rule_id=1)]
                                     if extra == "qos" else [])]
                if qos else None
            ),
            qer_id=1 if qos else 5 if extra == "dangling-qer" else None,
            urr_id=1 if extra == "qos" else None,
        )
        if choose:
            pdi = request.find(ies.CreatePdrIE).child(ies.PdiIE)
            pdi.children[1] = ies.FTeidIE(address=UPF, choose=True)
        if extra == "dangling-far":
            request.ies.append(ies.CreatePdrIE(children=[
                ies.PdrIdIE(rule_id=3), ies.FarIdIE(rule_id=77),
                ies.PdiIE(children=[
                    ies.SourceInterfaceIE(interface=ies.CORE)]),
            ]))
        if extra == "bad-urr":
            expected = (ies.CAUSE_MANDATORY_IE_MISSING,
                        {qos_ies.UrrIdIE.IE_TYPE})
        elif extra.startswith("dangling"):
            expected = (ies.CAUSE_RULE_CREATION_MODIFICATION_FAILURE,
                        {ies.CreatePdrIE.IE_TYPE})
        elif (
            seid in self.models
            or any(m.ue_ip == ue_ip for m in self.models.values())
            or not choose and (ul_teid in self.index()
                               or not self.steered(ul_teid, ue_ip))
        ):
            expected = (ies.CAUSE_REQUEST_REJECTED, ())
        else:
            expected = (ies.CAUSE_ACCEPTED, ())
        response, moved = self.send(request, expected)
        if expected[0] != ies.CAUSE_ACCEPTED:
            return
        if choose:
            ul_teid = response.find(ies.FTeidIE).teid
        q, u = (1, 1) if extra == "qos" else (None, None)
        self.models[seid] = Model(
            ue_ip=ue_ip, ul_teid=ul_teid,
            pdrs={1: (1, q, u, ies.ACCESS, ul_teid),
                  2: (2, q, u, ies.CORE, None)},
            fars={1: far_state("forw", None),
                  2: far_state("forw", 0x500 + seid)},
            qers={1} if q else set(), urrs={1} if u else set(),
        )
        assert moved == 1

    def modify(self, seid, specs):
        model = self.models.get(seid)
        if model is None:
            request = SessionModificationRequest(seid=seid, sequence=2)
            self.send(request, (ies.CAUSE_SESSION_NOT_FOUND, ()))
            return
        request_ies, creates = [], []
        missing, dangling = set(), set()
        fars, updates = {}, []
        qers, urrs, removed = set(), set(), []
        for spec in specs:
            verb = spec[0]
            if verb == "create_far":
                _, far_id, action, outer = spec
                request_ies.append(
                    far_ie(ies.CreateFarIE, far_id, action, outer))
                fars[far_id] = far_state(action, outer)
            elif verb == "update_far":
                _, far_id, action, outer = spec
                request_ies.append(
                    far_ie(ies.UpdateFarIE, far_id, action, outer))
                updates.append((far_id, far_state(action, outer), outer))
            elif verb == "create_pdr":
                _, pdr_id, far_id, side, q, u = spec
                pdi = [ies.SourceInterfaceIE(
                    interface=ies.CORE if side == "core" else ies.ACCESS)]
                teid = None
                if side == "choose":
                    pdi.append(ies.FTeidIE(address=UPF, choose=True))
                elif side not in ("core", "any"):
                    teid = self.teid(side, model.ue_ip, own=model)
                    pdi.append(ies.FTeidIE(teid=teid, address=UPF))
                children = [ies.PdrIdIE(rule_id=pdr_id),
                            ies.FarIdIE(rule_id=far_id),
                            ies.PdiIE(children=pdi)]
                if q is not None:
                    children.append(ies.QerIdIE(rule_id=q))
                if u is not None:
                    children.append(qos_ies.UrrIdIE(rule_id=u))
                request_ies.append(ies.CreatePdrIE(children=children))
                iface = ies.CORE if side == "core" else ies.ACCESS
                creates.append((pdr_id, (far_id, q, u, iface, teid),
                                side == "choose"))
            elif verb == "remove_pdr":
                _, pdr_id = spec
                request_ies.append(ies.RemovePdrIE(children=(
                    [] if pdr_id is None else [ies.PdrIdIE(rule_id=pdr_id)])))
                if pdr_id is None:
                    missing.add(ies.PdrIdIE.IE_TYPE)
                else:
                    removed.append(pdr_id)
            elif verb == "create_qer":
                _, qer_id = spec
                request_ies.append(qos_ies.CreateQerIE(children=(
                    [] if qer_id is None else [ies.QerIdIE(rule_id=qer_id)])))
                if qer_id is None:
                    missing.add(ies.QerIdIE.IE_TYPE)
                else:
                    qers.add(qer_id)
            elif verb == "create_urr":
                _, urr_id = spec
                request_ies.append(qos_ies.CreateUrrIE(children=(
                    [] if urr_id is None
                    else [qos_ies.UrrIdIE(rule_id=urr_id)])))
                if urr_id is None:
                    missing.add(qos_ies.UrrIdIE.IE_TYPE)
                else:
                    urrs.add(urr_id)
            else:  # a bare CHOOSE F-TEID (handover preparation)
                request_ies.append(ies.FTeidIE(address=UPF, choose=True))
        far_ids = set(model.fars) | set(fars)
        for _pdr_id, (far_id, q, u, _i, _t), _choose in creates:
            if (far_id not in far_ids
                    or q not in {None} | model.qers | qers
                    or u not in {None} | model.urrs | urrs):
                dangling.add(ies.CreatePdrIE.IE_TYPE)
        request = SessionModificationRequest(
            seid=seid, sequence=2, ies=request_ies)
        if missing:
            self.send(request, (ies.CAUSE_MANDATORY_IE_MISSING, missing))
            return
        if dangling:
            self.send(request,
                      (ies.CAUSE_RULE_CREATION_MODIFICATION_FAILURE, dangling))
            return
        # The fold; a CHOOSE TEID is fresh and steered, so only an
        # explicit one can make the table refuse.
        folded = replace(model, pdrs=dict(model.pdrs), fars=dict(model.fars),
                         qers=model.qers | qers, urrs=model.urrs | urrs)
        for pdr_id in removed:
            folded.pdrs.pop(pdr_id, None)
        for pdr_id, state, _choose in creates:
            folded.pdrs[pdr_id] = state
        folded.fars.update(fars)
        for far_id, state, outer in updates:
            # An update of a FAR neither held nor created installs it.
            held = folded.fars.setdefault(far_id, state)
            folded.fars[far_id] = state[:4] + (
                state[4:] if outer is not None else held[4:])
        index = self.index()
        added = folded.uplink_teids() - model.uplink_teids()
        if any(index.get(teid, seid) != seid
               or not self.steered(teid, model.ue_ip) for teid in added):
            self.send(request, (ies.CAUSE_RULE_CREATION_MODIFICATION_FAILURE,
                                {ies.FTeidIE.IE_TYPE}))
            return
        response, moved = self.send(request, (ies.CAUSE_ACCEPTED, ()))
        allocated = [ie.teid for ie in response.find_all(ies.FTeidIE)]
        # Bare CHOOSE F-TEIDs are answered first, then each Create
        # PDR's, in request order; the last Create of an id holds.
        chosen = iter(allocated[sum(s[0] == "choose" for s in specs):])
        last = {pdr_id: k for k, (pdr_id, _s, _c) in enumerate(creates)}
        for k, (pdr_id, state, choose) in enumerate(creates):
            teid = next(chosen) if choose else None
            if choose and last[pdr_id] == k:
                folded.pdrs[pdr_id] = state[:4] + (teid,)
        assert next(chosen, None) is None
        writes = any((removed, creates, fars, updates, qers, urrs))
        assert moved == int(writes)
        self.models[seid] = folded

    def delete(self, seid):
        held = seid in self.models
        request = SessionDeletionRequest(seid=seid, sequence=3)
        _response, moved = self.send(request, (
            ies.CAUSE_ACCEPTED if held else ies.CAUSE_SESSION_NOT_FOUND, ()))
        if held:
            del self.models[seid]
            assert moved == 1


def mostly(common, *rare):
    """``common`` three times in four, else one of ``rare``."""
    return st.sampled_from([common] * 3 * len(rare) + list(rare))


SEID = st.integers(1, 4)
ACTION = st.sampled_from(sorted(ACTIONS))
OUTER = st.one_of(st.none(), st.integers(0x600, 0x603))
#: Mostly FARs, QERs and URRs the session holds or the request creates.
FAR_ID = st.sampled_from([1, 1, 1, 2, 2, 2, 3, 5])
RULE_ID = mostly(1, None, 2)
REF = mostly(None, 1, 2)
SPEC = st.one_of(
    st.tuples(st.just("create_far"), st.integers(1, 4), ACTION, OUTER),
    st.tuples(st.just("update_far"), FAR_ID, ACTION, OUTER),
    st.tuples(
        st.just("create_pdr"), st.integers(1, 5), FAR_ID,
        st.sampled_from(
            ["core", "any", "choose", "choose", "fresh", "own", "other",
             "other", "raw"]),
        REF, REF,
    ),
    st.tuples(st.just("remove_pdr"), mostly(3, None, 1, 2, 5)),
    st.tuples(st.just("create_qer"), RULE_ID),
    st.tuples(st.just("create_urr"), RULE_ID),
    st.tuples(st.just("choose")),
)
ESTABLISH = st.tuples(
    st.just("establish"), SEID, st.integers(0, 4),
    mostly("fresh", "choose", "other", "raw"),
    mostly("none", "qos", "bad-urr", "dangling-far", "dangling-qer"),
)
#: ``pick`` addresses the live sessions by rank, or past them a SEID
#: that may be unknown.
MODIFY = st.tuples(st.just("modify"), st.integers(0, 9),
                   st.lists(SPEC, min_size=1, max_size=4))
DELETE = st.tuples(st.just("delete"), st.integers(0, 9))
OPS = st.lists(
    st.one_of(ESTABLISH, ESTABLISH, MODIFY, MODIFY, MODIFY, MODIFY, DELETE),
    max_size=30,
)


@pytest.mark.parametrize("shards", [None, 4], ids=["table", "sharded"])
@settings(max_examples=80, deadline=None)
@given(ops=OPS)
def test_every_request_is_applied_whole_or_refused_whole(shards, ops):
    harness = Harness(shards)
    harness.establish(1, 1, "fresh", "none")
    harness.establish(2, 2, "choose", "qos")
    for verb, seid, *args in ops:
        if verb != "establish":
            live = sorted(harness.models)
            seid = live[seid % len(live)] if live and seid < 8 else seid
        getattr(harness, verb)(seid, *args)
        harness.check()
