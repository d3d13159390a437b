"""The 3GPP control-plane procedures (TS 23.502) as step tables.

A procedure is a tuple of :class:`Step` rows, and one runner,
:meth:`ProcedureRunner._steps`, drives every table over the core's
configured transports.  The sequences are *identical* for free5GC and
L25GC — only the per-message channel costs differ, which is precisely
how the paper argues 3GPP compliance while cutting latency.

A row's ``apply`` runs when the row's exchange completes and is the
only place NF, RAN, UE or SM-context state changes, so "message *k*
completed" and "state change *k*" are one event.  Branches (the N2
handover's cancel) and loops (one release per PDU session at
deregistration) stay in the public methods, which pick the tables.

Every procedure returns an :class:`EventResult` with its completion
time and message count; the Fig 8 experiment is a thin sweep over
these.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from ..net.packet import Packet, PacketKind
from ..obs import spans as _tracing
from ..pfcp.builder import (build_buffering_update, build_forward_update,
                            build_path_switch, build_session_establishment)
from ..pfcp.ies import FTeidIE
from ..pfcp.messages import SessionDeletionRequest
from ..ran import ngap
from ..ran.ue import PDUSession, UserEquipment
from ..sbi import messages as sbi
from .context import HOState
from .core5g import FiveGCore
from .nfs import NON3GPP_NETWORK, SERVING_NETWORK, at_res, res_star

__all__ = ["EventResult", "ProcedureRunner", "Run", "Step"]


@dataclass
class EventResult:
    """Outcome of one control-plane procedure."""

    event: str
    system: str
    started_at: float
    completed_at: float
    messages: int
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.completed_at - self.started_at


class Step(NamedTuple):
    """One row of a procedure table."""

    #: ``"radio"`` (``build`` returns the leg's duration), ``"ngap"`` (a
    #: message), ``"sbi"`` (a request/response pair) or ``"n4"`` (PFCP).
    kind: str
    src: str
    dst: str
    #: ``build(run)`` makes a fresh message per send: the sanitizer and
    #: the tracer key in-flight messages by ``id()``, so one template
    #: sent by two concurrent procedures would be a double enqueue.  It
    #: may draw the SMF's PFCP sequence number and changes nothing else.
    build: Callable[["Run"], Any]
    #: The ``CostModel`` attribute timing the receiver's handler.
    handler: Optional[str] = None
    #: ``apply(run, response)``, run once the exchange completed.
    apply: Optional[Callable[["Run", Any], Any]] = None
    #: A semantic span (a paper-named sub-phase) around the exchange.
    span: Optional[str] = None


class Run:
    """One procedure call: the state its rows share, the PFCP requests
    they build and the state changes they apply (the methods taking a
    ``response``).  Created at the procedure's first resume: drivers
    build a wave of generators before any of them runs.
    """

    __slots__ = ("core", "costs", "ue", "supi", "gnb", "target",
                 "pdu_session_id", "sm", "vector", "kseaf", "sa", "dl_teid",
                 "forwarding_teid", "hairpinned", "started_at",
                 "messages")

    def __init__(self, runner: "ProcedureRunner", ue: UserEquipment,
                 gnb_id: Optional[int] = None, pdu_session_id: int = 1,
                 target_gnb_id: Optional[int] = None):
        core = self.core = runner.core
        self.costs = runner.costs
        self.ue = ue
        self.supi = ue.supi
        #: The RAN node serving the UE at the start (a handover's source).
        gnbs = core.gnbs
        self.gnb = gnbs[ue.serving_gnb_id if gnb_id is None else gnb_id]
        self.target = None if target_gnb_id is None else gnbs[target_gnb_id]
        self.pdu_session_id = pdu_session_id
        #: ``sa``: the IPsec SA a non-3GPP procedure opened.  ``dl_teid``:
        #: the one a RAN node allocated (a new session's, a handover
        #: target's; None while the target refuses).
        self.sm = self.vector = self.kseaf = self.sa = self.dl_teid = None
        self.forwarding_teid = self.hairpinned = 0
        self.started_at = core.env.now
        #: Bus messages this run's rows sent: counted per row, because
        #: the bus total also moves with every concurrent procedure.
        self.messages = 0

    def smart(self) -> bool:
        return self.core.config.smart_handover_buffering

    # -- PFCP requests -----------------------------------------------------
    def establishment(self):
        # The DL endpoint at the gNB is not known yet, so the DL FAR
        # starts in buffering mode — exactly free5GC's behaviour.
        core, sm = self.core, self.sm
        return build_session_establishment(
            seid=sm.seid, sequence=core.smf.next_sequence(), ue_ip=sm.ue_ip,
            upf_address=core.UPF_ADDRESS, ul_teid=sm.ul_teid, gnb_address=0,
            dl_teid=0, smf_address=core.UPF_ADDRESS)

    def forward_to_new(self):
        return build_forward_update(
            seid=self.sm.seid, sequence=self.core.smf.next_sequence(),
            gnb_address=self.gnb.address, dl_teid=self.dl_teid)

    def forward_again(self):
        """Back to the session's own tunnel (paging, a cancelled HO)."""
        sm = self.sm
        return build_forward_update(
            seid=sm.seid, sequence=self.core.smf.next_sequence(),
            gnb_address=sm.gnb_address, dl_teid=sm.dl_teid)

    def buffer_for_paging(self):
        return build_buffering_update(
            seid=self.sm.seid, sequence=self.core.smf.next_sequence(),
            notify_cp=True)

    def buffer_for_handover(self):
        # A TEID for the target; L25GC piggybacks the BUFF action on this
        # same message (§3.3), the 3GPP flow sends the F-TEID alone.
        prep = build_buffering_update(
            seid=self.sm.seid, sequence=self.core.smf.next_sequence(),
            notify_cp=False, choose_new_teid=True,
            upf_address=self.core.UPF_ADDRESS)
        if self.smart():
            return prep
        ies = [ie for ie in prep.ies if isinstance(ie, FTeidIE)]
        return replace(prep, ies=ies)

    def path_switch(self):
        # The same message drains the smart buffer, in order.
        return build_path_switch(
            seid=self.sm.seid, sequence=self.core.smf.next_sequence(),
            new_gnb_address=self.target.address, new_dl_teid=self.dl_teid)

    def deletion(self):
        return SessionDeletionRequest(
            seid=self.sm.seid, sequence=self.core.smf.next_sequence())

    # -- applies -------------------------------------------------------------
    def challenge(self, _) -> None:
        udm = self.core.udm
        self.vector = self.core.ausf.challenge(
            udm.deconceal_suci(self.supi), SERVING_NETWORK,
            udm.subscriber_key(self.supi))

    def confirm(self, _) -> None:
        # The UE answers with the RES* its USIM derives from the key the
        # UDM was provisioned with (no registration-reject branch).
        udm = self.core.udm
        key = udm.subscriber_key(self.supi)
        self.kseaf = self.core.ausf.confirm(
            udm.deconceal_suci(self.supi),
            res_star(key, self.vector.rand, SERVING_NETWORK), key)
        if self.kseaf is None:
            raise RuntimeError(f"{self.supi}: 5G-AKA confirmation failed")

    def eap_challenge(self, _) -> None:
        self.vector = self.core.ausf.eap_aka_prime_challenge(
            self.supi, NON3GPP_NETWORK, self.core.udm.subscriber_key(self.supi)
        )

    def eap_confirm(self, _) -> None:
        key = self.core.udm.subscriber_key(self.supi)
        self.kseaf = self.core.ausf.eap_aka_prime_confirm(
            self.supi, at_res(key, self.vector.rand, NON3GPP_NETWORK),
            NON3GPP_NETWORK, key)
        if self.kseaf is None:
            raise RuntimeError(f"{self.supi}: EAP-AKA' confirmation failed")

    def secured(self, _) -> None:
        self.core.amf.complete_security(self.supi, self.kseaf)

    def am_policy(self, _) -> None:
        self.core.pcf.create_am_policy(self.supi)

    def signalling_sa(self, _) -> None:
        self.sa = self.gnb.establish_signalling_sa(self.ue)
        self.secured(_)

    def registered(self, _) -> None:
        guti = self.core.amf.complete_registration(self.supi, self.gnb.gnb_id)
        self.ue.register(self.gnb.gnb_id, guti)

    def sm_context(self, _) -> None:
        self.sm = self.core.smf.create_sm_context(
            self.supi, self.pdu_session_id)
        self.sm.ue_ip = self.core.ue_ip_pool.allocate()

    def ul_tunnel(self, _) -> None:
        # SMF-assigned here; a UPF choosing it via CHOOSE is not modelled.
        self.sm.ul_teid = self.core.upf_c.allocate_teid(ue_ip=self.sm.ue_ip)

    def dl_tunnel(self, _) -> None:
        self.dl_teid = self.gnb.allocate_dl_teid()

    def activated(self, _) -> None:
        sm, gnb = self.sm, self.gnb
        sm.dl_teid = self.dl_teid
        sm.gnb_address = gnb.address
        sm.bump()
        self.core.dl_routes[self.dl_teid] = (gnb, self.ue)
        self.ue.add_session(
            PDUSession(session_id=self.pdu_session_id, ue_ip=sm.ue_ip))

    def activated_over_ipsec(self, _) -> None:
        self.activated(_)
        self.sa = self.gnb.establish_child_sa(self.ue, self.pdu_session_id)

    def deactivated(self, _) -> None:
        self.sm.up_active = False
        self.sm.bump()

    def idle(self, _) -> None:
        self.ue.go_idle()
        self.core.amf.release_connection(self.supi)

    def reactivated(self, _) -> None:
        self.sm.up_active = True
        self.sm.bump()
        self.ue.wake()
        self.core.amf.resume_connection(self.supi)

    def preparing(self, _) -> None:
        self.sm.ho_state = HOState.PREPARING
        self.sm.bump()
        if not self.smart():
            # 3GPP flow: the UPF keeps forwarding; the *source gNB*
            # buffers from the moment the UE detaches.
            self.gnb.start_buffering(self.ue)

    def forwarding(self, response) -> None:
        allocated = response.find(FTeidIE)
        self.forwarding_teid = allocated.teid if allocated else 0

    def admit(self, _) -> None:
        # A refusal leaves ``dl_teid`` None: the method takes HO_CANCEL.
        if self.target.can_admit(self.ue):
            self.dl_teid = self.target.allocate_dl_teid()

    def hairpin(self) -> None:
        """3GPP indirect forwarding: the source gNB's buffered packets
        go back through the UPF, which sends them on."""
        for packet in self.gnb.drain_buffer(self.ue):
            self.hairpinned += 1
            packet.meta["hairpinned"] = True
            self.core.upf_u.process(packet)

    def cancelled(self, _) -> None:
        if not self.smart():
            self.hairpin()
        sm = self.sm
        sm.ho_state = HOState.NONE
        sm.target_gnb_address = sm.target_dl_teid = 0
        sm.bump()

    def prepared(self, _) -> None:
        sm = self.sm
        sm.target_gnb_address = self.target.address
        sm.target_dl_teid = self.dl_teid
        sm.ho_state = HOState.PREPARED
        sm.bump()

    def moved(self, _) -> None:
        # The UE detaches: from here DL data must be buffered.
        self.gnb.disconnect(self.ue)
        self.target.connect(self.ue)

    def synchronized(self, _) -> None:
        self.ue.hand_over(self.target.gnb_id)

    def route_to_target(self, _) -> None:
        self.core.dl_routes[self.dl_teid] = (self.target, self.ue)

    def switched(self, _) -> int:
        """The UPF forwards to the target now: its endpoint becomes the
        session's and the source tunnel's route goes.  Returns the
        source TEID."""
        sm = self.sm
        source_teid = sm.dl_teid
        self.core.dl_routes.pop(source_teid, None)
        if sm.ho_state is HOState.PREPARED:  # N2: promote the staged target
            sm.commit_handover()
        else:  # Xn: the path switch is the core's first word of the target
            sm.gnb_address, sm.dl_teid = self.target.address, self.dl_teid
            sm.bump()
        return source_teid

    def n2_switched(self, _) -> None:
        source_teid = self.switched(_)
        if not self.smart():
            self.hairpin()
        # GTP-U End Marker on the old tunnel: no more packets will
        # arrive on it (TS 29.281 §5.1).
        self.gnb.receive_downlink(Packet(
            size=36, kind=PacketKind.CONTROL, teid=source_teid,
            meta={"gtp_message": "end-marker"},
        ), self.ue)

    def xn_prepared(self, _) -> None:
        self.dl_teid = self.target.allocate_dl_teid()
        # The source forwards in-flight data straight to the target.
        self.gnb.start_buffering(self.ue)

    def xn_synchronized(self, _) -> None:
        self.synchronized(_)
        for packet in self.gnb.drain_buffer(self.ue):
            self.target.receive_downlink(packet, self.ue)

    def relocated(self, _) -> None:
        self.core.amf.relocate(self.supi, self.target.gnb_id)

    def session_released(self, _) -> None:
        core, sm = self.core, self.sm
        core.dl_routes.pop(sm.dl_teid, None)
        core.ue_ip_pool.release(sm.ue_ip)
        core.smf.release_sm_context(self.supi, self.pdu_session_id)

    def deregistered(self, _) -> None:
        self.gnb.disconnect(self.ue)
        self.ue.deregister()
        self.core.amf.deregister(self.supi)


#: ``Step.handler`` of the handover's mobility-update fetch: half a
#: subscription fetch, resolved by the runner (not a cost field).
HALF_FETCH = "subscription_fetch/2"
#: Every other ``Step.handler`` the tables name.
_HANDLERS = (
    "auth_processing", "gnb_processing", "policy_decision",
    "smf_context_setup", "subscription_fetch", "suci_deconcealment",
)


# -- row constructors --------------------------------------------------
def _leg(build: Callable[[Run], float], apply=None) -> Step:
    """A radio / Wi-Fi / backhaul leg: no bus message, only its time."""
    return Step("radio", "ue", "ran", build, apply=apply)


def _to_amf(build, apply=None) -> Step:
    return Step("ngap", "ran", "amf", build, apply=apply)


def _to_ran(build, handler=None, apply=None) -> Step:
    return Step("ngap", "amf", "ran", build, handler, apply)


def _n4(build, apply=None, span=None) -> Step:
    return Step("n4", "smf", "upf-c", build, apply=apply, span=span)


def _update(apply=None, echo=False, **request) -> Step:
    """AMF -> SMF UpdateSMContext; ``echo``: the response acknowledges
    the requested hoState."""
    ack = request.get("ho_state") if echo else None
    return Step("sbi", "amf", "smf", lambda r: (
        sbi.UpdateSmContextRequest(**request),
        sbi.UpdateSmContextResponse(ho_state=ack),
    ), apply=apply)


def _data(src: str, *datasets: str, handler=None, apply=None) -> Step:
    """A subscription-data fetch from the UDM."""
    return Step("sbi", src, "udm", lambda r: (
        sbi.SubscriptionDataRequest(supi=r.supi, dataset_names=list(datasets)),
        sbi.SubscriptionDataResponse(),
    ), handler, apply)


def _am_policy(handler=None, apply=None, **fields) -> Step:
    return Step("sbi", "amf", "pcf", lambda r: (
        sbi.AmPolicyCreateRequest(supi=r.supi, **fields),
        sbi.SubscriptionDataResponse(),
    ), handler, apply)


def _sm_policy(handler=None, apply=None) -> Step:
    return Step("sbi", "smf", "pcf", lambda r: (
        sbi.SmPolicyCreateRequest(
            supi=r.supi, pdu_session_id=r.pdu_session_id),
        sbi.SubscriptionDataResponse(),
    ), handler, apply)


def _ausf(request, apply=None, **response) -> Step:
    """AMF -> AUSF: authentication start or confirmation."""
    return Step("sbi", "amf", "ausf", lambda r: (
        request(), sbi.UEAuthenticationResponse(**response),
    ), "auth_processing", apply)


def _n1n2(**response) -> Step:
    """SMF -> AMF: N1/N2 payloads for the RAN."""
    return Step("sbi", "smf", "amf", lambda r: (
        sbi.N1N2MessageTransfer(pdu_session_id=r.pdu_session_id),
        sbi.N1N2MessageTransferResponse(**response)))


# -- the tables (a row two tables use is one object) -------------------
_REGISTRATION_REQUEST = _to_amf(lambda r: ngap.InitialUEMessage(
    nas=ngap.RegistrationRequest(supi=r.supi),
), lambda r, _: r.core.amf.begin_authentication(r.supi))
_AUTH_REQUEST = _to_ran(lambda r: ngap.DownlinkNASTransport(
    nas=ngap.AuthenticationRequest(rand=r.vector.rand, autn=r.vector.autn)
))
_AUTH_RESPONSE = _to_amf(
    lambda r: ngap.UplinkNASTransport(nas=ngap.AuthenticationResponse())
)
_SECURITY_MODE_COMMAND = _to_ran(
    lambda r: ngap.DownlinkNASTransport(nas=ngap.SecurityModeCommand())
)
_AM_DATA = _data("amf", "AM", handler="subscription_fetch")
_ACCEPT = _to_ran(
    lambda r: ngap.InitialContextSetupRequest(nas=ngap.RegistrationAccept()),
    "gnb_processing",
)
_CONTEXT_SETUP_RESPONSE = _to_amf(lambda r: ngap.InitialContextSetupResponse())
_ACTIVATE = _update(up_cnx_state="ACTIVATING")
_N1N2 = _n1n2()
_NAS_LEG = _leg(
    lambda r: r.costs.radio_message + r.costs.ue_nas_processing
)
_NAS_ROUND_TRIP = _leg(
    lambda r: 2 * r.costs.radio_message + r.costs.ue_nas_processing
)
_WIFI_ROUND_TRIP = _leg(
    lambda r: 2 * r.gnb.wifi_latency + r.costs.ue_nas_processing
)
_RADIO_MESSAGE = _leg(lambda r: r.costs.radio_message)
_MOVE = _RADIO_MESSAGE._replace(apply=Run.moved)
_RELEASE_COMMAND = _to_ran(lambda r: ngap.UEContextReleaseCommand())

#: UE registration (TS 23.502 §4.2.2.2); the gNB connects the UE first.
REGISTRATION = (
    _NAS_LEG,
    _REGISTRATION_REQUEST,
    _ausf(sbi.UEAuthenticationRequest),
    _data("ausf", "AUTH", handler="suci_deconcealment", apply=Run.challenge),
    _AUTH_REQUEST,
    _NAS_ROUND_TRIP,
    _AUTH_RESPONSE,
    _ausf(sbi.AuthConfirmationRequest, Run.confirm),
    _SECURITY_MODE_COMMAND,
    _NAS_ROUND_TRIP,
    _to_amf(
        lambda r: ngap.UplinkNASTransport(nas=ngap.SecurityModeComplete()),
        Run.secured),
    _AM_DATA,
    _data("amf", "SMF_SEL", "UEC_SMF", handler="subscription_fetch"),
    _am_policy("policy_decision", Run.am_policy),
    _ACCEPT,
    _NAS_ROUND_TRIP,
    _CONTEXT_SETUP_RESPONSE,
    _to_amf(
        lambda r: ngap.UplinkNASTransport(nas=ngap.RegistrationComplete()),
        Run.registered),
)

#: Registration via untrusted non-3GPP access (TS 23.502 §4.12.2): IKEv2
#: SA_INIT, EAP-AKA' in IKE_AUTH, the IPsec signalling SA on EAP-Success,
#: then NAS over IPsec.
REGISTRATION_NON3GPP = (
    _leg(lambda r: 2 * r.gnb.wifi_latency + r.costs.gnb_processing),
    _leg(lambda r: 2 * r.gnb.wifi_latency),
    _REGISTRATION_REQUEST,
    _ausf(sbi.UEAuthenticationRequest, auth_type="EAP_AKA_PRIME"),
    _data(
        "ausf", "AUTH", handler="suci_deconcealment", apply=Run.eap_challenge),
    _AUTH_REQUEST,
    _WIFI_ROUND_TRIP,
    _AUTH_RESPONSE,
    _ausf(
        sbi.AuthConfirmationRequest, Run.eap_confirm,
        auth_type="EAP_AKA_PRIME"),
    _SECURITY_MODE_COMMAND,
    _WIFI_ROUND_TRIP._replace(apply=Run.signalling_sa),
    _AM_DATA,
    _am_policy(
        "policy_decision", Run.am_policy, access_type="NON_3GPP_ACCESS"),
    _ACCEPT,
    _WIFI_ROUND_TRIP,
    _CONTEXT_SETUP_RESPONSE._replace(apply=Run.registered),
)

#: PDU session establishment (TS 23.502 §4.3.2.2).
SESSION = (
    _NAS_LEG,
    _to_amf(lambda r: ngap.UplinkNASTransport(
        nas=ngap.PDUSessionEstablishmentRequest(
            supi=r.supi, pdu_session_id=r.pdu_session_id))),
    Step("sbi", "amf", "smf", lambda r: (
        sbi.PostSmContextsRequest(
            supi=r.supi, pdu_session_id=r.pdu_session_id),
        sbi.PostSmContextsResponse(),
    ), "smf_context_setup", Run.sm_context),
    _data("smf", "SM", handler="subscription_fetch"),
    _sm_policy(
        "policy_decision",
        lambda r, _: r.core.pcf.create_sm_policy(r.supi, r.pdu_session_id)),
    # DN-side authorization (DN-AAA / address configuration).
    _leg(lambda r: r.costs.dn_authorization, Run.ul_tunnel),
    _n4(Run.establishment),
    _N1N2,
    _to_ran(lambda r: ngap.PDUSessionResourceSetupRequest(
        pdu_session_id=r.pdu_session_id, ul_teid=r.sm.ul_teid,
        upf_address=r.core.UPF_ADDRESS,
        nas=ngap.PDUSessionEstablishmentAccept(
            pdu_session_id=r.pdu_session_id),
    ), "gnb_processing"),
    _NAS_ROUND_TRIP._replace(apply=Run.dl_tunnel),
    _to_amf(lambda r: ngap.PDUSessionResourceSetupResponse(
        pdu_session_id=r.pdu_session_id, dl_teid=r.dl_teid,
        gnb_address=r.gnb.address)),
    _ACTIVATE,
    _n4(Run.forward_to_new, Run.activated),
)

#: Over non-3GPP access the last row also opens the IPsec child SA.
SESSION_NON3GPP = SESSION[:-1] + (
    SESSION[-1]._replace(apply=Run.activated_over_ipsec),
)

#: AN release: the UE goes idle, the DL FAR flips to BUFF+NOCP.
AN_RELEASE = (
    _to_amf(lambda r: ngap.UEContextReleaseCommand()),
    _update(up_cnx_state="DEACTIVATED"),
    _n4(Run.buffer_for_paging, Run.deactivated),
    _to_ran(lambda r: ngap.UEContextReleaseComplete(), apply=Run.idle),
)

#: Paging / network-triggered service request (TS 23.502 §4.2.3.3); the
#: DL FAR forwards again once the RAN resources are in place (§4.2.3.2).
PAGING = (
    _n1n2(cause="ATTEMPTING_TO_REACH_UE"),
    _to_ran(lambda r: ngap.PagingMessage(supi=r.supi)),
    _leg(lambda r: (
        r.costs.paging_wakeup + r.costs.radio_message
        + r.costs.ue_nas_processing)),
    _to_amf(
        lambda r: ngap.InitialUEMessage(nas=ngap.ServiceRequest(supi=r.supi))),
    _ACTIVATE,
    _to_ran(
        lambda r: ngap.InitialContextSetupRequest(nas=ngap.ServiceAccept()),
        "gnb_processing"),
    _RADIO_MESSAGE,
    _CONTEXT_SETUP_RESPONSE,
    _n4(Run.forward_again, Run.reactivated),
)

#: N2 handover (TS 23.502 §4.9.1.3): preparation, then the target admits
#: (HO_EXECUTION) or refuses (HO_CANCEL).
HO_PREPARATION = (
    _RADIO_MESSAGE,
    _to_amf(lambda r: ngap.HandoverRequired(target_gnb_id=r.target.gnb_id)),
    _update(Run.preparing, echo=True, ho_state="PREPARING"),
    _n4(
        Run.buffer_for_handover, Run.forwarding,
        span="pfcp-session-modification-buffering"),
    _N1N2,
    _to_ran(lambda r: ngap.HandoverRequest(
        pdu_session_id=r.pdu_session_id, ul_teid=r.sm.ul_teid,
        upf_address=r.core.UPF_ADDRESS,
    ), "gnb_processing", Run.admit),
)

#: Preparation failure: back to direct forwarding, drain anything held.
HO_CANCEL = (
    _to_amf(lambda r: ngap.HandoverRequired(cause="no-resources")),
    _update(cause="HO_PREPARATION_FAILURE"),
    _n4(Run.forward_again, Run.cancelled),
)

HO_EXECUTION = (
    _to_amf(lambda r: ngap.HandoverRequestAcknowledge(
        pdu_session_id=r.pdu_session_id, dl_teid=r.dl_teid,
        gnb_address=r.target.address,
    ), Run.prepared),
    _update(
        echo=True, ho_state="PREPARED", n2_sm_info_type="HANDOVER_REQ_ACK"),
    _to_ran(lambda r: ngap.HandoverCommand(target_gnb_id=r.target.gnb_id)),
    _MOVE,
    _leg(lambda r: r.costs.radio_sync, Run.synchronized),
    _to_amf(lambda r: ngap.HandoverNotify()),
    _update(echo=True, ho_state="COMPLETED"),
    # Mobility update at the UDM, source release, PCF update.  The SMF
    # defers the FAR path switch until the whole handover transaction
    # commits (as free5GC does when tearing down indirect forwarding),
    # so buffering spans the procedure.
    _data("amf", "AM", handler=HALF_FETCH),
    _update(cause="SOURCE_RESOURCES_RELEASED"),
    _am_policy("policy_decision", Run.route_to_target),
    # The UPF-C flips the FAR inside this exchange, so the smart
    # buffer's drain span nests under the path-switch step.
    _n4(Run.path_switch, Run.n2_switched, span="pfcp-path-switch"),
    _RELEASE_COMMAND._replace(apply=Run.relocated),
)

#: Xn handover (TS 23.502 §4.9.1.2): preparation and execution between
#: the gNBs, then only a Path Switch Request reaches the core.
XN_HANDOVER = (
    _RADIO_MESSAGE,
    _leg(
        lambda r: 2 * r.costs.sctp_message + r.costs.gnb_processing,
        Run.xn_prepared),
    _MOVE,
    _leg(lambda r: r.costs.radio_sync, Run.xn_synchronized),
    _to_amf(lambda r: ngap.PathSwitchRequest(
        dl_teid=r.dl_teid, gnb_address=r.target.address)),
    _update(
        Run.route_to_target,
        ho_state="COMPLETED", n2_sm_info_type="PATH_SWITCH_REQ"),
    _n4(Run.path_switch, Run.switched),
    _to_ran(lambda r: ngap.PathSwitchRequest(), apply=Run.relocated),
)

#: UE-initiated deregistration (TS 23.502 §4.2.2.3): the request, then
#: SESSION_RELEASE per PDU session, then DEREGISTRATION.
DEREGISTRATION_REQUEST = (
    _NAS_LEG,
    _to_amf(lambda r: ngap.UplinkNASTransport(nas=ngap.RegistrationRequest(
        supi=r.supi, registration_type="deregistration"))),
)

SESSION_RELEASE = (
    _update(cause="REL_DUE_TO_DEREGISTRATION"),
    _n4(Run.deletion, Run.session_released),
    _sm_policy(apply=lambda r, _: r.core.pcf.delete_sm_policy(
        r.supi, r.pdu_session_id)),
)

DEREGISTRATION = (
    _data("amf", "DEREG"),
    _am_policy(apply=lambda r, _: r.core.pcf.delete_am_policy(r.supi)),
    _to_ran(
        lambda r: ngap.DownlinkNASTransport(nas=ngap.RegistrationAccept())),
    _RADIO_MESSAGE,
    _RELEASE_COMMAND,
    _to_amf(lambda r: ngap.UEContextReleaseComplete(), Run.deregistered),
)


class ProcedureRunner:
    """Runs the 3GPP procedures on a :class:`FiveGCore`."""

    def __init__(self, core: FiveGCore):
        self.core = core
        self.env = core.env
        self.costs = costs = core.costs
        #: Handler time per ``Step.handler``, resolved once: a cost
        #: model does not change once built.
        self._times = {name: getattr(costs, name) for name in _HANDLERS}
        self._times[None] = None
        self._times[HALF_FETCH] = costs.subscription_fetch / 2

    def _steps(self, run: Run, table: Tuple[Step, ...]):
        """Drive one table: each row's exchange, then its ``apply``."""
        core, env, times = self.core, self.env, self._times
        for kind, src, dst, build, handler, apply, span in table:
            if kind == "ngap":
                run.messages += 1
                response = yield core.ngap_send(
                    src, dst, build(run), times[handler])
            elif kind == "sbi":
                run.messages += 4  # NRF discovery + request/response
                request, response = build(run)
                yield from core.sbi_exchange(
                    src, dst, request, response, times[handler])
            elif kind == "radio":
                duration = build(run)
                tracer = _tracing._ACTIVE
                if tracer is not None:  # its extent is known: no event
                    now = env.now
                    tracer.add_span("radio", start=now, end=now + duration,
                                    category="radio")
                response = yield env.timeout(duration)
            else:
                run.messages += 2  # PFCP request + response
                tracer = _tracing._ACTIVE
                step = tracer.begin(span) if span and tracer else None
                response = yield from core.n4_exchange(build(run))
                if step is not None:
                    tracer.finish(step)
            if apply is not None:
                apply(run, response)

    def _result(self, run: Run, event: str, **detail: Any) -> EventResult:
        return EventResult(
            event, self.core.config.name, run.started_at, self.env.now,
            run.messages, detail)

    def _on_session(self, ue: UserEquipment, pdu_session_id: int,
                    target_gnb_id: Optional[int] = None) -> Run:
        """A run on one of the UE's established PDU sessions."""
        run = Run(self, ue, pdu_session_id=pdu_session_id,
                  target_gnb_id=target_gnb_id)
        run.sm = self.core.smf.context_for(ue.supi, pdu_session_id)
        return run

    def _session_result(self, run: Run, **detail: Any) -> EventResult:
        sm = run.sm
        return self._result(
            run, "session-request", seid=sm.seid, ue_ip=sm.ue_ip,
            ul_teid=sm.ul_teid, dl_teid=sm.dl_teid, **detail)

    # -- the procedures ---------------------------------------------------
    @_tracing.traced("registration")
    def register_ue(self, ue: UserEquipment, gnb_id: int = 1):
        """Initial registration: auth, security mode, policy, accept."""
        run = Run(self, ue, gnb_id)
        run.gnb.connect(ue)  # RRC connection precedes the first radio leg
        yield from self._steps(run, REGISTRATION)
        return self._result(run, "registration")

    @_tracing.traced("registration-non3gpp")
    def register_ue_non3gpp(self, ue: UserEquipment, n3iwf_id: int = 100):
        """Registration through an N3IWF with EAP-AKA' authentication:
        the Wi-Fi/IoT access path the paper calls out (§2.2)."""
        run = Run(self, ue, n3iwf_id)
        yield from self._steps(run, REGISTRATION_NON3GPP)
        return self._result(
            run, "registration-non3gpp", signalling_spi=run.sa.spi)

    @_tracing.traced("session-request")
    def establish_session(self, ue: UserEquipment, pdu_session_id: int = 1):
        """UE-requested PDU session establishment."""
        run = Run(self, ue, pdu_session_id=pdu_session_id)
        yield from self._steps(run, SESSION)
        return self._session_result(run)

    @_tracing.traced("session-request-non3gpp")
    def establish_session_non3gpp(self, ue: UserEquipment,
                                  pdu_session_id: int = 1):
        """PDU session over non-3GPP access: the standard procedure
        plus an IPsec child SA for the user plane."""
        run = Run(self, ue, pdu_session_id=pdu_session_id)
        yield from self._steps(run, SESSION_NON3GPP)
        return self._session_result(run, child_spi=run.sa.spi)

    @_tracing.traced("release-to-idle")
    def release_to_idle(self, ue: UserEquipment, pdu_session_id: int = 1):
        """UE-inactivity AN release: DL FAR flips to BUFF+NOCP."""
        run = self._on_session(ue, pdu_session_id)
        yield from self._steps(run, AN_RELEASE)
        return self._result(run, "an-release")

    @_tracing.traced("paging")
    def page_ue(self, ue: UserEquipment, pdu_session_id: int = 1):
        """From the DL data report to reactivated DL forwarding.

        Entered after the UPF's SessionReportRequest reached the SMF
        (that exchange is accounted by the caller /
        :meth:`FiveGCore._report_to_smf`).
        """
        run = self._on_session(ue, pdu_session_id)
        yield from self._steps(run, PAGING)
        return self._result(run, "paging")

    @_tracing.traced("handover")
    def handover(self, ue: UserEquipment, target_gnb_id: int,
                 pdu_session_id: int = 1):
        """N2 (inter-gNB via AMF) handover of one PDU session.

        Downlink packets are buffered during the handover: at the UPF
        (smart buffering, both evaluated systems per Fig 8's setup), or
        at the source gNB with hairpin re-routing when
        ``smart_handover_buffering`` is off (the 3GPP default analyzed
        in §5.4.2).  A target that refuses admission cancels it.
        """
        run = self._on_session(ue, pdu_session_id, target_gnb_id)
        yield from self._steps(run, HO_PREPARATION)
        if run.dl_teid is None:
            yield from self._steps(run, HO_CANCEL)
            return self._result(
                run, "handover-cancelled", cause="no-resources")
        yield from self._steps(run, HO_EXECUTION)
        return self._result(
            run, "handover", target_dl_teid=run.dl_teid,
            forwarding_teid=run.forwarding_teid, hairpinned=run.hairpinned)

    @_tracing.traced("xn-handover")
    def xn_handover(self, ue: UserEquipment, target_gnb_id: int,
                    pdu_session_id: int = 1):
        """Xn-based (gNB-to-gNB) handover with a path switch request.

        The paper notes X2/Xn-style handover "is relatively small (or
        nonexistent)" in deployments; it is here for the comparison: far
        fewer core messages than the N2 flow.
        """
        run = self._on_session(ue, pdu_session_id, target_gnb_id)
        yield from self._steps(run, XN_HANDOVER)
        return self._result(run, "xn-handover", target_dl_teid=run.dl_teid)

    @_tracing.traced("deregistration")
    def deregister_ue(self, ue: UserEquipment):
        """Tear everything down: sessions, policies, registration."""
        run = Run(self, ue)
        yield from self._steps(run, DEREGISTRATION_REQUEST)
        for session_id in list(ue.sessions):
            run.pdu_session_id = session_id
            run.sm = self.core.smf.context_for(ue.supi, session_id)
            yield from self._steps(run, SESSION_RELEASE)
        yield from self._steps(run, DEREGISTRATION)
        return self._result(run, "deregistration")
