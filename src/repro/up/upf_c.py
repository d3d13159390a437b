"""UPF-C: the control-plane half of the factored UPF.

Terminates the N4 (PFCP) association with the SMF, decodes session
messages into the runtime rule state shared with the UPF-U, allocates
tunnel endpoints for F-TEIDs carrying the CHOOSE flag, and emits
downlink data reports when the UPF-U signals buffered data for an idle
UE.  Splitting the UPF this way isolates control-plane churn from the
forwarding path (§3.2).
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Optional, Type

from ..analysis import races as _races  # repro: noqa[W004] -- race-detector hooks, no-ops unless a detector is installed
from ..classifier.base import Classifier
from ..classifier.partition_sort import PartitionSortClassifier
from ..pfcp import ies as pfcp_ies
from ..pfcp import qos_ies
from ..pfcp.builder import build_downlink_report
from ..pfcp.messages import (
    PFCPMessage,
    SessionDeletionRequest,
    SessionDeletionResponse,
    SessionEstablishmentRequest,
    SessionEstablishmentResponse,
    SessionModificationRequest,
    SessionModificationResponse,
    SessionReportRequest,
)
from .qos import QerEnforcer, TokenBucket, UsageCounter
from .rules import far_from_ie, pdr_from_create_ie
from .session import SessionTableView, UPFSession
from .upf_u import UPFUserPlane

__all__ = ["UPFControlPlane"]


class UPFControlPlane:
    """The N4 endpoint of the UPF.

    Parameters
    ----------
    sessions:
        Session table shared with the UPF-U (same objects — no state
        propagation cost, §3.2's "zero cost state update").
    upf_u:
        The forwarding pipeline, needed to flush smart buffers on FAR
        transitions.
    address:
        The UPF's N3 IPv4 address used for allocated F-TEIDs.
    classifier_class:
        PDR lookup structure for new sessions.
    send_report:
        Callback delivering a :class:`SessionReportRequest` to the SMF
        (transport chosen by the deployment: UDP socket vs shm).
    """

    def __init__(
        self,
        sessions: SessionTableView,
        upf_u: Optional[UPFUserPlane] = None,
        address: int = 0xC0A80102,
        classifier_class: Type[Classifier] = PartitionSortClassifier,
        send_report: Optional[Callable[[SessionReportRequest], None]] = None,
        buffer_capacity: int = 3000,
    ):
        self.sessions = sessions
        self.upf_u = upf_u
        self.address = address
        self.classifier_class = classifier_class
        self.send_report = send_report or (lambda message: None)
        self.buffer_capacity = buffer_capacity
        self._teid_counter = itertools.count(0x1000)
        self._report_seq = itertools.count(1)
        self.messages_handled = 0

    # ------------------------------------------------------------------
    def allocate_teid(self, ue_ip: int = 0) -> int:
        """A node-unique uplink/forwarding TEID.

        ``ue_ip`` is the session's DL hash key, when known.  The base
        implementation ignores it; the sharded UPF-C overrides this to
        steer the TEID into the same RSS bucket as the UE IP so a
        session's UL and DL traffic land on the same shard.
        """
        return next(self._teid_counter)

    # ------------------------------------------------------------------
    def handle(self, message: PFCPMessage) -> PFCPMessage:
        """Dispatch one PFCP session message, returning the response.

        All rule-state writes happen under the "upf-c" role: this is
        the single writer of the shared session rules (§3.2).
        """
        detector = _races.active()
        if detector is None:
            return self._dispatch(message)
        with detector.role("upf-c"):
            return self._dispatch(message)

    def _dispatch(self, message: PFCPMessage) -> PFCPMessage:
        self.messages_handled += 1
        if isinstance(message, SessionEstablishmentRequest):
            return self._establish(message)
        if isinstance(message, SessionModificationRequest):
            return self._modify(message)
        if isinstance(message, SessionDeletionRequest):
            return self._delete(message)
        raise ValueError(f"UPF-C cannot handle {message.name}")

    # ------------------------------------------------------------------
    def _establish(
        self, message: SessionEstablishmentRequest
    ) -> SessionEstablishmentResponse:
        creates = message.find_all(pfcp_ies.CreatePdrIE)
        fars = message.find_all(pfcp_ies.CreateFarIE)
        # Pre-scan the UE IP: a CHOOSE F-TEID allocation needs the DL
        # hash key up front (shard steering), and the UE IP IE may
        # arrive in a later Create PDR than the F-TEID.
        ue_ip = 0
        for create in creates:
            pdi = create.child(pfcp_ies.PdiIE)
            ue_ip_ie = pdi.child(pfcp_ies.UeIpAddressIE) if pdi else None
            if ue_ip_ie is not None:
                ue_ip = ue_ip_ie.address
        ul_teid = 0
        allocated: List[pfcp_ies.IE] = []
        pdrs = []
        for create in creates:
            pdr = pdr_from_create_ie(create)
            pdi = create.child(pfcp_ies.PdiIE)
            fteid = pdi.child(pfcp_ies.FTeidIE) if pdi else None
            if fteid is not None:
                ul_teid = fteid.teid
                if fteid.choose:
                    # Re-decode the PDR around the allocated endpoint;
                    # the received request is left as it came.
                    ul_teid = self.allocate_teid(ue_ip=ue_ip)
                    pdr = pdr_from_create_ie(create, teid=ul_teid)
                    allocated.append(
                        pfcp_ies.FTeidIE(teid=ul_teid, address=self.address)
                    )
            pdrs.append(pdr)
        session = UPFSession(
            seid=message.seid,
            ue_ip=ue_ip,
            ul_teid=ul_teid,
            classifier_class=self.classifier_class,
            buffer_capacity=self.buffer_capacity,
        )
        for pdr in pdrs:
            session.install_pdr(pdr)
        for far_ie in fars:
            session.install_far(far_from_ie(far_ie))
        for qer_ie in message.find_all(qos_ies.CreateQerIE):
            session.install_qer_enforcer(self._decode_qer(qer_ie))
        for urr_ie in message.find_all(qos_ies.CreateUrrIE):
            session.install_usage_counter(self._decode_urr(urr_ie))
        try:
            self.sessions.add(session)
        except ValueError:
            # A retransmitted or colliding request (duplicate SEID, UL
            # TEID or UE IP; sharded: a TEID steered off the UE-IP
            # bucket).  add() left the table as it was; answer instead
            # of letting the error escape the N4 handler.
            return SessionEstablishmentResponse(
                seid=message.seid,
                sequence=message.sequence,
                ies=[pfcp_ies.CauseIE(cause=pfcp_ies.CAUSE_REQUEST_REJECTED)],
            )
        return SessionEstablishmentResponse(
            seid=message.seid,
            sequence=message.sequence,
            ies=[pfcp_ies.CauseIE(cause=pfcp_ies.CAUSE_ACCEPTED)] + allocated,
        )

    def _modify(
        self, message: SessionModificationRequest
    ) -> SessionModificationResponse:
        session = self.sessions.by_seid(message.seid)
        if session is None:
            return SessionModificationResponse(
                seid=message.seid,
                sequence=message.sequence,
                ies=[
                    pfcp_ies.CauseIE(cause=pfcp_ies.CAUSE_SESSION_NOT_FOUND)
                ],
            )
        response_ies: List[pfcp_ies.IE] = [
            pfcp_ies.CauseIE(cause=pfcp_ies.CAUSE_ACCEPTED)
        ]
        # F-TEID with CHOOSE: allocate a fresh endpoint (handover prep).
        for fteid in message.find_all(pfcp_ies.FTeidIE):
            if fteid.choose:
                response_ies.append(
                    pfcp_ies.FTeidIE(
                        teid=self.allocate_teid(ue_ip=session.ue_ip),
                        address=self.address,
                    )
                )
        released = 0
        for update in message.find_all(pfcp_ies.UpdateFarIE):
            far = far_from_ie(update)
            was_buffering = self._is_buffering(session, far.far_id)
            session.update_far(far)
            now_forwarding = far.forward and not far.buffer
            if was_buffering and now_forwarding and self.upf_u is not None:
                released += self.upf_u.flush_session(session)
        for create in message.find_all(pfcp_ies.CreatePdrIE):
            # A CHOOSE F-TEID inside the PDI is allocated as in
            # _establish: the PDR matches that endpoint, not every TEID.
            pdi = create.child(pfcp_ies.PdiIE)
            fteid = pdi.child(pfcp_ies.FTeidIE) if pdi else None
            teid = None
            if fteid is not None and fteid.choose:
                teid = self.allocate_teid(ue_ip=session.ue_ip)
                response_ies.append(
                    pfcp_ies.FTeidIE(teid=teid, address=self.address)
                )
            session.install_pdr(pdr_from_create_ie(create, teid=teid))
        for remove in message.find_all(pfcp_ies.RemovePdrIE):
            pdr_id = remove.child(pfcp_ies.PdrIdIE)
            if pdr_id is not None:
                session.remove_pdr(pdr_id.rule_id)
        for create in message.find_all(pfcp_ies.CreateFarIE):
            session.install_far(far_from_ie(create))
        for qer_ie in message.find_all(qos_ies.CreateQerIE):
            session.install_qer_enforcer(self._decode_qer(qer_ie))
        for urr_ie in message.find_all(qos_ies.CreateUrrIE):
            session.install_usage_counter(self._decode_urr(urr_ie))
        # Note: ``report_pending`` is UPF-U state; the flush above
        # already cleared it (flush_session runs under the "upf-u"
        # role).  The UPF-C must not write it — the race detector
        # flags that as a non-owner write.
        return SessionModificationResponse(
            seid=message.seid, sequence=message.sequence, ies=response_ies
        )

    def _delete(
        self, message: SessionDeletionRequest
    ) -> SessionDeletionResponse:
        removed = self.sessions.remove(message.seid)
        cause = (
            pfcp_ies.CAUSE_ACCEPTED
            if removed is not None
            else pfcp_ies.CAUSE_SESSION_NOT_FOUND
        )
        return SessionDeletionResponse(
            seid=message.seid,
            sequence=message.sequence,
            ies=[pfcp_ies.CauseIE(cause=cause)],
        )

    def _is_buffering(self, session: UPFSession, far_id: int) -> bool:
        far = session.fars.get(far_id)
        return far is not None and far.buffer

    # ------------------------------------------------------------------
    # QER / URR decoding
    # ------------------------------------------------------------------
    @staticmethod
    def _decode_qer(qer_ie: qos_ies.CreateQerIE) -> QerEnforcer:
        qer_id_ie = qer_ie.child(pfcp_ies.QerIdIE)
        if qer_id_ie is None:
            raise ValueError("Create QER without QER ID")
        enforcer = QerEnforcer(qer_id=qer_id_ie.rule_id)
        qfi = qer_ie.child(pfcp_ies.QfiIE)
        if qfi is not None:
            enforcer.qfi = qfi.qfi
        gate = qer_ie.child(qos_ies.GateStatusIE)
        if gate is not None:
            enforcer.ul_gate_open = gate.ul_open
            enforcer.dl_gate_open = gate.dl_open
        mbr = qer_ie.child(qos_ies.MbrIE)
        if mbr is not None:
            if mbr.ul_kbps:
                enforcer.ul_bucket = TokenBucket(mbr.ul_kbps * 1000.0)
            if mbr.dl_kbps:
                enforcer.dl_bucket = TokenBucket(mbr.dl_kbps * 1000.0)
        return enforcer

    @staticmethod
    def _decode_urr(urr_ie: qos_ies.CreateUrrIE) -> UsageCounter:
        urr_id_ie = urr_ie.child(qos_ies.UrrIdIE)
        if urr_id_ie is None:
            raise ValueError("Create URR without URR ID")
        threshold = urr_ie.child(qos_ies.VolumeThresholdIE)
        return UsageCounter(
            urr_id=urr_id_ie.rule_id,
            volume_threshold_bytes=(
                threshold.total_bytes if threshold else None
            ),
        )

    # ------------------------------------------------------------------
    # Usage reporting (URR volume-threshold trigger)
    # ------------------------------------------------------------------
    def on_usage_threshold(
        self, session: UPFSession, counter: UsageCounter
    ) -> None:
        """UPF-U callback: a URR's volume threshold tripped."""
        report = SessionReportRequest(
            seid=session.seid,
            sequence=next(self._report_seq),
            ies=[
                pfcp_ies.ReportTypeIE(dldr=False, usar=True),
                qos_ies.UsageReportIE(
                    children=[
                        qos_ies.UrrIdIE(rule_id=counter.urr_id),
                        qos_ies.VolumeMeasurementIE(
                            total_bytes=counter.total_bytes,
                            uplink_bytes=counter.uplink_bytes,
                            downlink_bytes=counter.downlink_bytes,
                        ),
                    ]
                ),
            ],
        )
        self.send_report(report)

    # ------------------------------------------------------------------
    # Downlink data notification (paging trigger)
    # ------------------------------------------------------------------
    def on_buffered_data(self, session: UPFSession) -> None:
        """UPF-U callback: first DL packet buffered for an idle UE."""
        report = build_downlink_report(
            seid=session.seid, sequence=next(self._report_seq)
        )
        self.send_report(report)
