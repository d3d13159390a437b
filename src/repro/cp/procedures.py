"""The 3GPP control-plane procedures (TS 23.502), as DES processes.

Each procedure is a generator that drives the exact message sequence of
the specification over the core's configured transports: UE
registration (§4.2.2.2), PDU session establishment (§4.3.2.2), the N2
handover (§4.9.1.3) and paging / network-triggered service request
(§4.2.3.3).  The sequences are *identical* for free5GC and L25GC —
only the per-message channel costs differ, which is precisely how the
paper argues 3GPP compliance while cutting latency.

Every procedure returns an :class:`EventResult` with its completion
time and message count; the Fig 8 experiment is a thin sweep over
these.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

from ..net.packet import Direction, Packet, PacketKind
from ..obs import spans as _tracing
from ..pfcp.builder import (
    build_buffering_update,
    build_forward_update,
    build_path_switch,
    build_session_establishment,
)
from ..pfcp.ies import FTeidIE
from ..pfcp.messages import SessionDeletionRequest
from ..ran import ngap
from ..ran.ue import PDUSession, UserEquipment
from ..sbi import messages as sbi
from .context import HOState
from .core5g import FiveGCore

__all__ = ["EventResult", "ProcedureRunner"]


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


class ProcedureRunner:
    """Runs the 3GPP procedures on a :class:`FiveGCore`."""

    def __init__(self, core: FiveGCore):
        self.core = core
        self.env = core.env
        self.costs = core.costs

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _radio(self, duration: float):
        tracer = _tracing.active()
        if tracer is not None:
            # The radio leg's extent is known up front; record it
            # without adding any event beyond the timeout itself.
            tracer.add_span(
                "radio",
                start=self.env.now,
                end=self.env.now + duration,
                category="radio",
            )
        return self.env.timeout(duration)

    def _step(self, name: str, **attrs: Any) -> Optional[_tracing.Span]:
        """Open a named semantic step span (paper-named sub-phases)."""
        tracer = _tracing.active()
        if tracer is None:
            return None
        return tracer.begin(name, **attrs)

    def _end_step(self, step: Optional[_tracing.Span], **attrs: Any) -> None:
        if step is None:
            return
        tracer = _tracing.active()
        if tracer is not None:
            tracer.finish(step, **attrs)

    def _needs_discovery(self, source: str, destination: str) -> bool:
        # free5GC consults the NRF per SBI request (its OpenAPI
        # consumers do not cache producer profiles); L25GC issues the
        # same discovery exchanges, only over shared memory.  N4 and
        # NGAP legs never involve the NRF.
        return self.core.config.nrf_discovery

    def _sbi(
        self,
        source: str,
        destination: str,
        request: sbi.SBIMessage,
        response: sbi.SBIMessage,
        request_handler_time: Optional[float] = None,
        response_handler_time: Optional[float] = None,
    ):
        return self.core.sbi_exchange(
            source,
            destination,
            request,
            response,
            discovery=self._needs_discovery(source, destination),
            request_handler_time=request_handler_time,
            response_handler_time=response_handler_time,
        )

    def _result(
        self, event: str, started_at: float, messages_before: int, **detail: Any
    ) -> EventResult:
        return EventResult(
            event=event,
            system=self.core.config.name,
            started_at=started_at,
            completed_at=self.env.now,
            messages=self.core.bus.total_messages() - messages_before,
            detail=detail,
        )

    # ------------------------------------------------------------------
    # UE registration (TS 23.502 §4.2.2.2)
    # ------------------------------------------------------------------
    @_tracing.traced("registration")
    def register_ue(self, ue: UserEquipment, gnb_id: int = 1):
        """Initial registration: auth, security mode, policy, accept."""
        core, costs = self.core, self.costs
        started_at = self.env.now
        messages_before = core.bus.total_messages()
        gnb = core.gnbs[gnb_id]
        gnb.connect(ue)

        # 1. RRC setup + Registration Request over N1/N2.
        yield self._radio(costs.radio_message + costs.ue_nas_processing)
        yield core.ngap_send(
            "ran",
            "amf",
            ngap.InitialUEMessage(nas=ngap.RegistrationRequest(supi=ue.supi)),
        )
        core.amf.begin_authentication(ue.supi)

        # 2. Authentication: AMF -> AUSF -> UDM (vector derivation).
        yield from self._sbi(
            "amf",
            "ausf",
            sbi.UEAuthenticationRequest(),
            sbi.UEAuthenticationResponse(),
            request_handler_time=costs.auth_processing,
        )
        yield from self._sbi(
            "ausf",
            "udm",
            sbi.SubscriptionDataRequest(
                supi=ue.supi, dataset_names=["AUTH"]
            ),
            sbi.SubscriptionDataResponse(),
            request_handler_time=costs.suci_deconcealment,
        )
        supi = core.udm.deconceal_suci(ue.supi)
        vector = core.ausf.challenge(
            supi, "5G:mnc093.mcc208.3gppnetwork.org",
            core.udm.subscriber_key(ue.supi),
        )

        # 3. Challenge to the UE and its response.
        yield core.ngap_send(
            "amf",
            "ran",
            ngap.DownlinkNASTransport(
                nas=ngap.AuthenticationRequest(rand=vector.rand, autn=vector.autn)
            ),
        )
        yield self._radio(2 * costs.radio_message + costs.ue_nas_processing)
        yield core.ngap_send(
            "ran",
            "amf",
            ngap.UplinkNASTransport(nas=ngap.AuthenticationResponse()),
        )
        yield from self._sbi(
            "amf",
            "ausf",
            sbi.AuthConfirmationRequest(),
            sbi.UEAuthenticationResponse(),
            request_handler_time=costs.auth_processing,
        )

        # 4. NAS security mode.
        yield core.ngap_send(
            "amf",
            "ran",
            ngap.DownlinkNASTransport(nas=ngap.SecurityModeCommand()),
        )
        yield self._radio(2 * costs.radio_message + costs.ue_nas_processing)
        yield core.ngap_send(
            "ran",
            "amf",
            ngap.UplinkNASTransport(nas=ngap.SecurityModeComplete()),
        )
        core.amf.complete_security(ue.supi, "kseaf")

        # 5. UDM registration + subscription data + AM policy.
        yield from self._sbi(
            "amf",
            "udm",
            sbi.SubscriptionDataRequest(supi=ue.supi, dataset_names=["AM"]),
            sbi.SubscriptionDataResponse(),
            request_handler_time=costs.subscription_fetch,
        )
        yield from self._sbi(
            "amf",
            "udm",
            sbi.SubscriptionDataRequest(
                supi=ue.supi, dataset_names=["SMF_SEL", "UEC_SMF"]
            ),
            sbi.SubscriptionDataResponse(),
            request_handler_time=costs.subscription_fetch,
        )
        yield from self._sbi(
            "amf",
            "pcf",
            sbi.AmPolicyCreateRequest(supi=ue.supi),
            sbi.SubscriptionDataResponse(),
            request_handler_time=costs.policy_decision,
        )
        core.pcf.create_am_policy(ue.supi)

        # 6. Registration Accept / Complete.
        yield core.ngap_send(
            "amf",
            "ran",
            ngap.InitialContextSetupRequest(nas=ngap.RegistrationAccept()),
            handler_time=costs.gnb_processing,
        )
        yield self._radio(2 * costs.radio_message + costs.ue_nas_processing)
        yield core.ngap_send("ran", "amf", ngap.InitialContextSetupResponse())
        yield core.ngap_send(
            "ran",
            "amf",
            ngap.UplinkNASTransport(nas=ngap.RegistrationComplete()),
        )
        guti = core.amf.complete_registration(ue.supi, gnb_id)
        ue.register(gnb_id, guti)
        return self._result("registration", started_at, messages_before)

    # ------------------------------------------------------------------
    # Registration via untrusted non-3GPP access (TS 23.502 §4.12.2)
    # ------------------------------------------------------------------
    @_tracing.traced("registration-non3gpp")
    def register_ue_non3gpp(self, ue: UserEquipment, n3iwf_id: int = 100):
        """Registration through an N3IWF with EAP-AKA' authentication.

        The WiFi/IoT access path the paper calls out (§2.2): IKEv2
        SA_INIT, EAP-AKA' carried in IKE_AUTH exchanges, an IPsec
        signalling SA, then NAS over IPsec for the registration accept.
        """
        core, costs = self.core, self.costs
        started_at = self.env.now
        messages_before = core.bus.total_messages()
        n3iwf = core.gnbs[n3iwf_id]
        wifi_rtt = 2 * n3iwf.wifi_latency

        # 1. IKE_SA_INIT exchange (DH + nonces) over WiFi.
        yield self._radio(wifi_rtt + costs.gnb_processing)

        # 2. IKE_AUTH #1: the UE's identity reaches the AMF.
        yield self._radio(wifi_rtt)
        yield core.ngap_send(
            "ran",
            "amf",
            ngap.InitialUEMessage(nas=ngap.RegistrationRequest(supi=ue.supi)),
        )
        core.amf.begin_authentication(ue.supi)

        # 3. EAP-AKA' start: AMF -> AUSF -> UDM.
        yield from self._sbi(
            "amf",
            "ausf",
            sbi.UEAuthenticationRequest(),
            sbi.UEAuthenticationResponse(auth_type="EAP_AKA_PRIME"),
            request_handler_time=costs.auth_processing,
        )
        yield from self._sbi(
            "ausf",
            "udm",
            sbi.SubscriptionDataRequest(supi=ue.supi, dataset_names=["AUTH"]),
            sbi.SubscriptionDataResponse(),
            request_handler_time=costs.suci_deconcealment,
        )
        network_name = "5G:NR:non3gpp"
        vector = core.ausf.eap_aka_prime_challenge(
            ue.supi, network_name, core.udm.subscriber_key(ue.supi)
        )

        # 4. EAP-Request/AKA'-Challenge down to the UE (IKE_AUTH leg),
        #    EAP-Response back up.
        yield core.ngap_send(
            "amf",
            "ran",
            ngap.DownlinkNASTransport(
                nas=ngap.AuthenticationRequest(
                    rand=vector.rand, autn=vector.autn
                )
            ),
        )
        yield self._radio(wifi_rtt + costs.ue_nas_processing)
        yield core.ngap_send(
            "ran",
            "amf",
            ngap.UplinkNASTransport(nas=ngap.AuthenticationResponse()),
        )
        yield from self._sbi(
            "amf",
            "ausf",
            sbi.AuthConfirmationRequest(),
            sbi.UEAuthenticationResponse(auth_type="EAP_AKA_PRIME"),
            request_handler_time=costs.auth_processing,
        )

        # 5. EAP-Success + the IPsec signalling SA comes up.
        yield core.ngap_send(
            "amf",
            "ran",
            ngap.DownlinkNASTransport(nas=ngap.SecurityModeCommand()),
        )
        yield self._radio(wifi_rtt + costs.ue_nas_processing)
        signalling_sa = n3iwf.establish_signalling_sa(ue)
        core.amf.complete_security(ue.supi, "kseaf-eap")

        # 6. Subscription + policy, as for 3GPP access.
        yield from self._sbi(
            "amf",
            "udm",
            sbi.SubscriptionDataRequest(supi=ue.supi, dataset_names=["AM"]),
            sbi.SubscriptionDataResponse(),
            request_handler_time=costs.subscription_fetch,
        )
        yield from self._sbi(
            "amf",
            "pcf",
            sbi.AmPolicyCreateRequest(
                supi=ue.supi, access_type="NON_3GPP_ACCESS"
            ),
            sbi.SubscriptionDataResponse(),
            request_handler_time=costs.policy_decision,
        )
        core.pcf.create_am_policy(ue.supi)

        # 7. Registration Accept over NAS-in-IPsec.
        yield core.ngap_send(
            "amf",
            "ran",
            ngap.InitialContextSetupRequest(nas=ngap.RegistrationAccept()),
            handler_time=costs.gnb_processing,
        )
        yield self._radio(wifi_rtt + costs.ue_nas_processing)
        yield core.ngap_send("ran", "amf", ngap.InitialContextSetupResponse())
        guti = core.amf.complete_registration(ue.supi, n3iwf_id)
        ue.register(n3iwf_id, guti)
        return self._result(
            "registration-non3gpp",
            started_at,
            messages_before,
            signalling_spi=signalling_sa.spi,
        )

    @_tracing.traced("session-request-non3gpp")
    def establish_session_non3gpp(
        self, ue: UserEquipment, pdu_session_id: int = 1
    ):
        """PDU session over non-3GPP access: the standard procedure
        plus an IPsec child SA for the user plane."""
        core = self.core
        n3iwf = core.gnbs[ue.serving_gnb_id]
        result = yield from self.establish_session(ue, pdu_session_id)
        child_sa = n3iwf.establish_child_sa(ue, pdu_session_id)
        result.detail["child_spi"] = child_sa.spi
        return result

    # ------------------------------------------------------------------
    # PDU session establishment (TS 23.502 §4.3.2.2)
    # ------------------------------------------------------------------
    @_tracing.traced("session-request")
    def establish_session(
        self, ue: UserEquipment, pdu_session_id: int = 1
    ):
        """UE-requested PDU session establishment."""
        core, costs = self.core, self.costs
        started_at = self.env.now
        messages_before = core.bus.total_messages()
        gnb = core.gnbs[ue.serving_gnb_id]

        # 1. NAS request rides N1 to the AMF.
        yield self._radio(costs.radio_message + costs.ue_nas_processing)
        yield core.ngap_send(
            "ran",
            "amf",
            ngap.UplinkNASTransport(
                nas=ngap.PDUSessionEstablishmentRequest(
                    supi=ue.supi, pdu_session_id=pdu_session_id
                )
            ),
        )

        # 2. AMF -> SMF: create the SM context.
        yield from self._sbi(
            "amf",
            "smf",
            sbi.PostSmContextsRequest(
                supi=ue.supi, pdu_session_id=pdu_session_id
            ),
            sbi.PostSmContextsResponse(),
            request_handler_time=costs.smf_context_setup,
        )
        sm = core.smf.create_sm_context(ue.supi, pdu_session_id)
        sm.ue_ip = core.ue_ip_pool.allocate()

        # 3. SMF fetches SM subscription data and the SM policy.
        yield from self._sbi(
            "smf",
            "udm",
            sbi.SubscriptionDataRequest(
                supi=ue.supi, dataset_names=["SM"]
            ),
            sbi.SubscriptionDataResponse(),
            request_handler_time=costs.subscription_fetch,
        )
        yield from self._sbi(
            "smf",
            "pcf",
            sbi.SmPolicyCreateRequest(
                supi=ue.supi, pdu_session_id=pdu_session_id
            ),
            sbi.SubscriptionDataResponse(),
            request_handler_time=costs.policy_decision,
        )
        core.pcf.create_sm_policy(ue.supi, pdu_session_id)

        # 4. N4 session establishment at the UPF (UL TEID chosen later
        #    by UPF via CHOOSE is modeled as SMF-assigned here; the DL
        #    endpoint at the gNB is not known yet, so the DL FAR starts
        #    in buffering mode -- exactly free5GC's behaviour).
        # DN-side authorization (DN-AAA / address configuration); a
        # transport-independent leg of session establishment.
        yield self._radio(costs.dn_authorization)

        sm.ul_teid = core.upf_c.allocate_teid(ue_ip=sm.ue_ip)
        establishment = build_session_establishment(
            seid=sm.seid,
            sequence=core.smf.next_sequence(),
            ue_ip=sm.ue_ip,
            upf_address=core.UPF_ADDRESS,
            ul_teid=sm.ul_teid,
            gnb_address=0,
            dl_teid=0,
            smf_address=core.UPF_ADDRESS,
        )
        yield from core.n4_exchange(establishment)

        # 5. SMF -> AMF -> gNB: N2 resource setup.
        yield from self._sbi(
            "smf",
            "amf",
            sbi.N1N2MessageTransfer(pdu_session_id=pdu_session_id),
            sbi.N1N2MessageTransferResponse(),
        )
        yield core.ngap_send(
            "amf",
            "ran",
            ngap.PDUSessionResourceSetupRequest(
                pdu_session_id=pdu_session_id,
                ul_teid=sm.ul_teid,
                upf_address=core.UPF_ADDRESS,
                nas=ngap.PDUSessionEstablishmentAccept(
                    pdu_session_id=pdu_session_id
                ),
            ),
            handler_time=costs.gnb_processing,
        )
        yield self._radio(2 * costs.radio_message + costs.ue_nas_processing)
        dl_teid = gnb.allocate_dl_teid()
        yield core.ngap_send(
            "ran",
            "amf",
            ngap.PDUSessionResourceSetupResponse(
                pdu_session_id=pdu_session_id,
                dl_teid=dl_teid,
                gnb_address=gnb.address,
            ),
        )

        # 6. AMF -> SMF -> UPF: install the gNB endpoint (activates DL).
        yield from self._sbi(
            "amf",
            "smf",
            sbi.UpdateSmContextRequest(up_cnx_state="ACTIVATING"),
            sbi.UpdateSmContextResponse(),
        )
        switch = build_forward_update(
            seid=sm.seid,
            sequence=core.smf.next_sequence(),
            gnb_address=gnb.address,
            dl_teid=dl_teid,
        )
        yield from core.n4_exchange(switch)
        sm.dl_teid = dl_teid
        sm.gnb_address = gnb.address
        sm.bump()
        core.dl_routes[dl_teid] = (gnb, ue)
        ue.add_session(
            PDUSession(session_id=pdu_session_id, ue_ip=sm.ue_ip)
        )
        return self._result(
            "session-request",
            started_at,
            messages_before,
            seid=sm.seid,
            ue_ip=sm.ue_ip,
            ul_teid=sm.ul_teid,
            dl_teid=dl_teid,
        )

    # ------------------------------------------------------------------
    # AN release: UE goes idle (paging precondition)
    # ------------------------------------------------------------------
    @_tracing.traced("release-to-idle")
    def release_to_idle(self, ue: UserEquipment, pdu_session_id: int = 1):
        """UE-inactivity AN release: DL FAR flips to BUFF+NOCP."""
        core, costs = self.core, self.costs
        started_at = self.env.now
        messages_before = core.bus.total_messages()
        sm = core.smf.context_for(ue.supi, pdu_session_id)

        yield core.ngap_send(
            "ran", "amf", ngap.UEContextReleaseCommand()
        )
        yield from self._sbi(
            "amf",
            "smf",
            sbi.UpdateSmContextRequest(up_cnx_state="DEACTIVATED"),
            sbi.UpdateSmContextResponse(),
        )
        buffering = build_buffering_update(
            seid=sm.seid,
            sequence=core.smf.next_sequence(),
            notify_cp=True,
        )
        yield from core.n4_exchange(buffering)
        sm.up_active = False
        sm.bump()
        yield core.ngap_send("amf", "ran", ngap.UEContextReleaseComplete())
        ue.go_idle()
        core.amf.release_connection(ue.supi)
        return self._result("an-release", started_at, messages_before)

    # ------------------------------------------------------------------
    # Paging / network-triggered service request (TS 23.502 §4.2.3.3)
    # ------------------------------------------------------------------
    @_tracing.traced("paging")
    def page_ue(self, ue: UserEquipment, pdu_session_id: int = 1):
        """From the DL data report to reactivated DL forwarding.

        Entered after the UPF's SessionReportRequest reached the SMF
        (that exchange is accounted by the caller /
        :meth:`FiveGCore._report_to_smf`).
        """
        core, costs = self.core, self.costs
        started_at = self.env.now
        messages_before = core.bus.total_messages()
        sm = core.smf.context_for(ue.supi, pdu_session_id)
        gnb = core.gnbs[ue.serving_gnb_id]

        # 1. SMF asks the AMF to reach the UE.
        yield from self._sbi(
            "smf",
            "amf",
            sbi.N1N2MessageTransfer(pdu_session_id=pdu_session_id),
            sbi.N1N2MessageTransferResponse(
                cause="ATTEMPTING_TO_REACH_UE"
            ),
        )

        # 2. The AMF pages; the UE wakes and sends a Service Request.
        yield core.ngap_send(
            "amf", "ran", ngap.PagingMessage(supi=ue.supi)
        )
        yield self._radio(
            costs.paging_wakeup + costs.radio_message + costs.ue_nas_processing
        )
        yield core.ngap_send(
            "ran",
            "amf",
            ngap.InitialUEMessage(nas=ngap.ServiceRequest(supi=ue.supi)),
        )

        # 3. AMF -> SMF: activate the user plane.
        yield from self._sbi(
            "amf",
            "smf",
            sbi.UpdateSmContextRequest(up_cnx_state="ACTIVATING"),
            sbi.UpdateSmContextResponse(),
        )

        # 4. N2 context setup towards the gNB and the radio leg.
        yield core.ngap_send(
            "amf",
            "ran",
            ngap.InitialContextSetupRequest(nas=ngap.ServiceAccept()),
            handler_time=costs.gnb_processing,
        )
        yield self._radio(costs.radio_message)
        yield core.ngap_send(
            "ran", "amf", ngap.InitialContextSetupResponse()
        )

        # 5. SMF -> UPF: forward again (drains the smart buffer) once
        #    the RAN resources are in place (TS 23.502 §4.2.3.2 order).
        reactivate = build_forward_update(
            seid=sm.seid,
            sequence=core.smf.next_sequence(),
            gnb_address=sm.gnb_address,
            dl_teid=sm.dl_teid,
        )
        yield from core.n4_exchange(reactivate)
        sm.up_active = True
        sm.bump()
        ue.wake()
        core.amf.resume_connection(ue.supi)
        return self._result("paging", started_at, messages_before)

    # ------------------------------------------------------------------
    # N2 handover (TS 23.502 §4.9.1.3)
    # ------------------------------------------------------------------
    @_tracing.traced("handover")
    def handover(
        self,
        ue: UserEquipment,
        target_gnb_id: int,
        pdu_session_id: int = 1,
    ):
        """N2 (inter-gNB via AMF) handover of one PDU session.

        Downlink packets are buffered during the handover: at the UPF
        (smart buffering, both evaluated systems per Fig 8's setup), or
        at the source gNB with hairpin re-routing when
        ``smart_handover_buffering`` is off (the 3GPP default analyzed
        in §5.4.2).
        """
        core, costs = self.core, self.costs
        started_at = self.env.now
        messages_before = core.bus.total_messages()
        sm = core.smf.context_for(ue.supi, pdu_session_id)
        source_gnb = core.gnbs[ue.serving_gnb_id]
        target_gnb = core.gnbs[target_gnb_id]
        smart = core.config.smart_handover_buffering

        # 1. Measurement report; source gNB decides to hand over.
        yield self._radio(costs.radio_message)
        yield core.ngap_send(
            "ran",
            "amf",
            ngap.HandoverRequired(target_gnb_id=target_gnb_id),
        )

        # 2. AMF -> SMF: handover preparation.
        yield from self._sbi(
            "amf",
            "smf",
            sbi.UpdateSmContextRequest(ho_state="PREPARING"),
            sbi.UpdateSmContextResponse(ho_state="PREPARING"),
        )
        sm.ho_state = HOState.PREPARING
        sm.bump()

        # 3. SMF -> UPF: allocate a TEID for the target; L25GC
        #    piggybacks the BUFF action on this same message (§3.3).
        prep = build_buffering_update(
            seid=sm.seid,
            sequence=core.smf.next_sequence(),
            notify_cp=False,
            choose_new_teid=True,
            upf_address=core.UPF_ADDRESS,
        )
        if not smart:
            # 3GPP flow: the UPF keeps forwarding; the *source gNB*
            # buffers from the moment the UE detaches.
            prep = replace(
                prep, ies=[ie for ie in prep.ies if isinstance(ie, FTeidIE)]
            )
            source_gnb.start_buffering(ue)
        step = self._step(
            "pfcp-session-modification-buffering", buffering_ie=smart
        )
        response = yield from core.n4_exchange(prep)
        self._end_step(step)
        allocated = response.find(FTeidIE)
        forwarding_teid = allocated.teid if allocated else 0

        # 4. SMF -> AMF: N2 SM information for the target gNB.
        yield from self._sbi(
            "smf",
            "amf",
            sbi.N1N2MessageTransfer(pdu_session_id=pdu_session_id),
            sbi.N1N2MessageTransferResponse(),
        )

        # 5. AMF -> target gNB: Handover Request / Acknowledge.  The
        #    target may refuse (admission control) — preparation
        #    failure cancels the handover and reverts the UPF state.
        yield core.ngap_send(
            "amf",
            "ran",
            ngap.HandoverRequest(
                pdu_session_id=pdu_session_id,
                ul_teid=sm.ul_teid,
                upf_address=core.UPF_ADDRESS,
            ),
            handler_time=costs.gnb_processing,
        )
        if not target_gnb.can_admit(ue):
            yield core.ngap_send(
                "ran", "amf", ngap.HandoverRequired(cause="no-resources")
            )
            yield from self._sbi(
                "amf",
                "smf",
                sbi.UpdateSmContextRequest(cause="HO_PREPARATION_FAILURE"),
                sbi.UpdateSmContextResponse(),
            )
            # Revert: resume direct forwarding / drain anything held.
            revert = build_forward_update(
                seid=sm.seid,
                sequence=core.smf.next_sequence(),
                gnb_address=sm.gnb_address,
                dl_teid=sm.dl_teid,
            )
            yield from core.n4_exchange(revert)
            if not smart:
                for packet in source_gnb.drain_buffer(ue):
                    core.upf_u.process(packet)
            sm.ho_state = HOState.NONE
            sm.target_gnb_address = 0
            sm.target_dl_teid = 0
            sm.bump()
            return self._result(
                "handover-cancelled",
                started_at,
                messages_before,
                cause="no-resources",
            )
        target_dl_teid = target_gnb.allocate_dl_teid()
        yield core.ngap_send(
            "ran",
            "amf",
            ngap.HandoverRequestAcknowledge(
                pdu_session_id=pdu_session_id,
                dl_teid=target_dl_teid,
                gnb_address=target_gnb.address,
            ),
        )
        sm.target_gnb_address = target_gnb.address
        sm.target_dl_teid = target_dl_teid
        sm.ho_state = HOState.PREPARED
        sm.bump()

        # 6. AMF -> SMF: handover prepared (target tunnel staged).
        yield from self._sbi(
            "amf",
            "smf",
            sbi.UpdateSmContextRequest(
                ho_state="PREPARED",
                n2_sm_info_type="HANDOVER_REQ_ACK",
            ),
            sbi.UpdateSmContextResponse(ho_state="PREPARED"),
        )

        # 7. Handover Command to the UE via the source gNB.
        yield core.ngap_send(
            "amf",
            "ran",
            ngap.HandoverCommand(target_gnb_id=target_gnb_id),
        )
        yield self._radio(costs.radio_message)
        # The UE detaches: from here DL data must be buffered.
        source_gnb.disconnect(ue)
        target_gnb.connect(ue)

        # 8. The UE synchronizes with the target cell.
        yield self._radio(costs.radio_sync)
        ue.hand_over(target_gnb_id)
        yield core.ngap_send("ran", "amf", ngap.HandoverNotify())

        # 9. AMF -> SMF: handover complete.
        yield from self._sbi(
            "amf",
            "smf",
            sbi.UpdateSmContextRequest(ho_state="COMPLETED"),
            sbi.UpdateSmContextResponse(ho_state="COMPLETED"),
        )

        # 10. Mobility registration update with the UDM, source
        #     resource release, and the PCF mobility update.  The SMF
        #     defers the FAR path switch until the whole handover
        #     transaction commits (as free5GC does when tearing down
        #     indirect forwarding), so buffering spans the procedure.
        yield from self._sbi(
            "amf",
            "udm",
            sbi.SubscriptionDataRequest(
                supi=ue.supi, dataset_names=["AM"]
            ),
            sbi.SubscriptionDataResponse(),
            request_handler_time=costs.subscription_fetch / 2,
        )
        yield from self._sbi(
            "amf",
            "smf",
            sbi.UpdateSmContextRequest(cause="SOURCE_RESOURCES_RELEASED"),
            sbi.UpdateSmContextResponse(),
        )
        yield from self._sbi(
            "amf",
            "pcf",
            sbi.AmPolicyCreateRequest(supi=ue.supi),
            sbi.SubscriptionDataResponse(),
            request_handler_time=costs.policy_decision,
        )

        # 11. SMF -> UPF: switch the DL path to the target gNB (the
        #     same message drains the smart buffer, in order).
        switch = build_path_switch(
            seid=sm.seid,
            sequence=core.smf.next_sequence(),
            new_gnb_address=target_gnb.address,
            new_dl_teid=target_dl_teid,
        )
        core.dl_routes[target_dl_teid] = (target_gnb, ue)
        # The UPF-C applies the FAR flip inside this exchange, so the
        # smart buffer's drain span nests under the path-switch step.
        step = self._step("pfcp-path-switch")
        yield from core.n4_exchange(switch)
        self._end_step(step)
        sm.commit_handover()

        hairpinned = 0
        if not smart:
            # 3GPP indirect forwarding: the source gNB's buffered
            # packets hairpin back through the UPF to the target gNB.
            for packet in source_gnb.drain_buffer(ue):
                hairpinned += 1
                packet.meta["hairpinned"] = True
                core.upf_u.process(packet)

        # GTP-U End Marker towards the source gNB: tells it no more
        # packets will arrive on the old tunnel (TS 29.281 §5.1).
        end_marker = Packet(
            size=36,
            kind=PacketKind.CONTROL,
            teid=sm.dl_teid,
            meta={"gtp_message": "end-marker"},
        )
        source_gnb.receive_downlink(end_marker, ue)

        yield core.ngap_send(
            "amf", "ran", ngap.UEContextReleaseCommand()
        )
        core.amf.relocate(ue.supi, target_gnb_id)
        return self._result(
            "handover",
            started_at,
            messages_before,
            target_dl_teid=target_dl_teid,
            forwarding_teid=forwarding_teid,
            hairpinned=hairpinned,
        )

    # ------------------------------------------------------------------
    # Xn handover (TS 23.502 §4.9.1.2)
    # ------------------------------------------------------------------
    @_tracing.traced("xn-handover")
    def xn_handover(
        self,
        ue: UserEquipment,
        target_gnb_id: int,
        pdu_session_id: int = 1,
    ):
        """Xn-based (gNB-to-gNB) handover with a path switch request.

        The preparation happens over the inter-gNB Xn interface without
        the 5GC; only the final Path Switch Request touches the AMF/SMF.
        The paper notes X2/Xn-style handover "is relatively small (or
        nonexistent)" in deployments — this procedure exists for the
        comparison: far fewer core messages than the N2 flow.
        """
        core, costs = self.core, self.costs
        started_at = self.env.now
        messages_before = core.bus.total_messages()
        sm = core.smf.context_for(ue.supi, pdu_session_id)
        source_gnb = core.gnbs[ue.serving_gnb_id]
        target_gnb = core.gnbs[target_gnb_id]

        # 1. Xn preparation: measurement, HO request/ack between gNBs
        #    (radio/backhaul legs, no core involvement).
        yield self._radio(costs.radio_message)
        yield self._radio(2 * costs.sctp_message + costs.gnb_processing)
        target_dl_teid = target_gnb.allocate_dl_teid()

        # 2. Execution: the UE moves; the source forwards in-flight
        #    data directly to the target over Xn (no hairpin).
        source_gnb.start_buffering(ue)
        yield self._radio(costs.radio_message)
        source_gnb.disconnect(ue)
        target_gnb.connect(ue)
        yield self._radio(costs.radio_sync)
        ue.hand_over(target_gnb_id)
        for packet in source_gnb.drain_buffer(ue):
            target_gnb.receive_downlink(packet, ue)

        # 3. Path Switch Request through the AMF to the SMF/UPF.
        yield core.ngap_send(
            "ran",
            "amf",
            ngap.PathSwitchRequest(
                dl_teid=target_dl_teid, gnb_address=target_gnb.address
            ),
        )
        yield from self._sbi(
            "amf",
            "smf",
            sbi.UpdateSmContextRequest(
                ho_state="COMPLETED", n2_sm_info_type="PATH_SWITCH_REQ"
            ),
            sbi.UpdateSmContextResponse(),
        )
        switch = build_path_switch(
            seid=sm.seid,
            sequence=core.smf.next_sequence(),
            new_gnb_address=target_gnb.address,
            new_dl_teid=target_dl_teid,
        )
        core.dl_routes[target_dl_teid] = (target_gnb, ue)
        yield from core.n4_exchange(switch)
        sm.gnb_address = target_gnb.address
        sm.dl_teid = target_dl_teid
        sm.bump()
        yield core.ngap_send(
            "amf", "ran", ngap.PathSwitchRequest()  # acknowledge
        )
        core.amf.relocate(ue.supi, target_gnb_id)
        return self._result(
            "xn-handover",
            started_at,
            messages_before,
            target_dl_teid=target_dl_teid,
        )

    # ------------------------------------------------------------------
    # UE-initiated deregistration (TS 23.502 §4.2.2.3)
    # ------------------------------------------------------------------
    @_tracing.traced("deregistration")
    def deregister_ue(self, ue: UserEquipment):
        """Tear everything down: sessions, policies, registration."""
        core, costs = self.core, self.costs
        started_at = self.env.now
        messages_before = core.bus.total_messages()
        gnb = core.gnbs[ue.serving_gnb_id]

        # 1. NAS Deregistration Request.
        yield self._radio(costs.radio_message + costs.ue_nas_processing)
        yield core.ngap_send(
            "ran",
            "amf",
            ngap.UplinkNASTransport(nas=ngap.RegistrationRequest(
                supi=ue.supi, registration_type="deregistration"
            )),
        )

        # 2. Release every PDU session: AMF -> SMF -> UPF (N4 delete),
        #    SMF -> PCF policy termination.
        for session_id in list(ue.sessions):
            sm = core.smf.context_for(ue.supi, session_id)
            yield from self._sbi(
                "amf",
                "smf",
                sbi.UpdateSmContextRequest(cause="REL_DUE_TO_DEREGISTRATION"),
                sbi.UpdateSmContextResponse(),
            )
            deletion = SessionDeletionRequest(
                seid=sm.seid, sequence=core.smf.next_sequence()
            )
            yield from core.n4_exchange(deletion)
            core.dl_routes.pop(sm.dl_teid, None)
            core.ue_ip_pool.release(sm.ue_ip)
            core.smf.release_sm_context(ue.supi, session_id)
            yield from self._sbi(
                "smf",
                "pcf",
                sbi.SmPolicyCreateRequest(
                    supi=ue.supi, pdu_session_id=session_id
                ),
                sbi.SubscriptionDataResponse(),
            )
            core.pcf.delete_sm_policy(ue.supi, session_id)

        # 3. AMF: UDM deregistration + AM policy termination.
        yield from self._sbi(
            "amf",
            "udm",
            sbi.SubscriptionDataRequest(supi=ue.supi, dataset_names=["DEREG"]),
            sbi.SubscriptionDataResponse(),
        )
        yield from self._sbi(
            "amf",
            "pcf",
            sbi.AmPolicyCreateRequest(supi=ue.supi),
            sbi.SubscriptionDataResponse(),
        )
        core.pcf.delete_am_policy(ue.supi)

        # 4. Deregistration Accept + AN release.
        yield core.ngap_send(
            "amf",
            "ran",
            ngap.DownlinkNASTransport(nas=ngap.RegistrationAccept()),
        )
        yield self._radio(costs.radio_message)
        yield core.ngap_send("amf", "ran", ngap.UEContextReleaseCommand())
        yield core.ngap_send("ran", "amf", ngap.UEContextReleaseComplete())
        gnb.disconnect(ue)
        ue.deregister()
        core.amf.deregister(ue.supi)
        return self._result("deregistration", started_at, messages_before)
