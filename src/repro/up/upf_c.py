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
from typing import Callable, Optional, Type

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
from .qos import UsageCounter
from .rules import (
    RuleError, far_from_ie, pdr_from_create_ie, qer_from_ie,
    required_child, urr_from_ie,
)
from .session import RuleDelta, SessionTableView, UPFSession
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
        if isinstance(message, SessionEstablishmentRequest):
            handler, response = self._establish, SessionEstablishmentResponse
        elif isinstance(message, SessionModificationRequest):
            handler, response = self._modify, SessionModificationResponse
        elif isinstance(message, SessionDeletionRequest):
            handler, response = self._delete, SessionDeletionResponse
        else:
            raise ValueError(f"UPF-C cannot handle {message.name}")
        try:
            cause, ies = handler(message)
        except RuleError as error:
            # Refused whole, before any write (TS 29.244 §7.5).
            cause = error.cause
            ies = (pfcp_ies.OffendingIeIE(ie_type=error.ie_type),)
        return response(
            seid=message.seid,
            sequence=message.sequence,
            ies=[pfcp_ies.CauseIE(cause=cause), *ies],
        )

    # ------------------------------------------------------------------
    # Each handler returns the response's cause and its further IEs.
    def _establish(self, message: SessionEstablishmentRequest):
        # Pre-scan the UE IP: a CHOOSE F-TEID allocation needs the DL
        # hash key up front (shard steering), and the UE IP IE may
        # arrive in a later Create PDR than the F-TEID.
        pdis = [create.child(pfcp_ies.PdiIE)
                for create in message.find_all(pfcp_ies.CreatePdrIE)]
        ue_ips = [pdi.child(pfcp_ies.UeIpAddressIE) for pdi in pdis if pdi]
        ue_ip = next((ie.address for ie in reversed(ue_ips) if ie), 0)
        session = UPFSession(
            message.seid, ue_ip, 0, self.classifier_class,
            self.buffer_capacity,
        )
        delta = self._decode(message, session)
        # The UL hash key: the uplink endpoint a PDR names (else 0).
        session.ul_teid = max(session.uplink_teids(delta.pdrs))
        session.apply(delta)
        try:
            self.sessions.add(session)
        except ValueError:
            # A retransmitted or colliding request (duplicate SEID, UL
            # TEID or UE IP; sharded: a TEID steered off the UE-IP
            # bucket).  add() left the table as it was.
            return pfcp_ies.CAUSE_REQUEST_REJECTED, ()
        return pfcp_ies.CAUSE_ACCEPTED, delta.fteids

    def _modify(self, message: SessionModificationRequest):
        session = self.sessions.by_seid(message.seid)
        if session is None:
            return pfcp_ies.CAUSE_SESSION_NOT_FOUND, ()
        delta = self._decode(message, session)
        # BUFF -> FORW releases the smart buffer, after the commit.
        flush = any(
            self._is_buffering(session, far.far_id)
            and far.forward and not far.buffer
            for far in delta.far_updates
        )
        session.apply(delta, self.sessions)
        if flush and self.upf_u is not None:
            self.upf_u.flush_session(session)
        # Note: ``report_pending`` is UPF-U state; the flush above
        # already cleared it (flush_session runs under the "upf-u"
        # role).  The UPF-C must not write it — the race detector
        # flags that as a non-owner write.
        return pfcp_ies.CAUSE_ACCEPTED, delta.fteids

    def _delete(self, message: SessionDeletionRequest):
        if self.sessions.remove(message.seid) is None:
            return pfcp_ies.CAUSE_SESSION_NOT_FOUND, ()
        return pfcp_ies.CAUSE_ACCEPTED, ()

    def _decode(self, message: PFCPMessage, session: UPFSession) -> RuleDelta:
        """Decode a whole Establishment or Modification into one delta:
        every IE decoded, every FAR/QER/URR a PDR names resolved against
        ``session`` plus the request, before a CHOOSE F-TEID is
        allocated; a :class:`RuleError` leaves everything as it was."""
        def allocate():
            teid = self.allocate_teid(ue_ip=session.ue_ip)
            return pfcp_ies.FTeidIE(teid=teid, address=self.address)

        pdrs, removed, fars, updates, qers, urrs = [], [], [], [], [], []
        chosen, bare = [], 0  # Create PDRs, and bare F-TEIDs, to CHOOSE
        for ie in message.ies:  # one pass, not a find_all per kind
            kind = type(ie)
            if kind is pfcp_ies.CreatePdrIE:
                pdrs.append(pdr_from_create_ie(ie))
                fteid = ie.child(pfcp_ies.PdiIE).child(pfcp_ies.FTeidIE)
                if fteid is not None and fteid.choose:
                    chosen.append((len(pdrs) - 1, ie))
            elif kind is pfcp_ies.RemovePdrIE:
                removed.append(required_child(ie, pfcp_ies.PdrIdIE).rule_id)
            elif kind is pfcp_ies.CreateFarIE:
                fars.append(far_from_ie(ie))
            elif kind is pfcp_ies.UpdateFarIE:
                updates.append(far_from_ie(ie))
            elif kind is qos_ies.CreateQerIE:
                qers.append(qer_from_ie(ie))
            elif kind is qos_ies.CreateUrrIE:
                urrs.append(urr_from_ie(ie))
            elif kind is pfcp_ies.FTeidIE and ie.choose:
                bare += 1
        if pdrs:  # each FAR, QER and URR a PDR names is held or created
            far_ids = session.fars.keys() | {far.far_id for far in fars}
            qer_ids = {None, *session.qer_enforcers, *(q.qer_id for q in qers)}
            urr_ids = {None, *session.usage_counters, *(u.urr_id for u in urrs)}
            for pdr in pdrs:
                if (pdr.far_id not in far_ids or pdr.qer_id not in qer_ids
                        or pdr.urr_id not in urr_ids):
                    raise RuleError(
                        f"Create PDR {pdr.pdr_id} names a rule not held",
                        pfcp_ies.CreatePdrIE.IE_TYPE,
                        pfcp_ies.CAUSE_RULE_CREATION_MODIFICATION_FAILURE,
                    )
        # Checked: allocate the bare CHOOSE F-TEIDs (handover prep), then
        # each Create PDR's, decoding that PDR again around its endpoint
        # (the request is left as it came).
        fteids = [allocate() for _ in range(bare)]
        for index, create in chosen:
            fteids.append(allocate())
            pdrs[index] = pdr_from_create_ie(create, fteids[-1].teid)
        return RuleDelta(pdrs, removed, fars, updates, qers, urrs, fteids)

    def _is_buffering(self, session: UPFSession, far_id: int) -> bool:
        far = session.fars.get(far_id)
        return far is not None and far.buffer

    # -- usage reporting (URR volume-threshold trigger) ------------------
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

    # -- downlink data notification (paging trigger) ---------------------
    def on_buffered_data(self, session: UPFSession) -> None:
        """UPF-U callback: first DL packet buffered for an idle UE."""
        report = build_downlink_report(
            seid=session.seid, sequence=next(self._report_seq)
        )
        self.send_report(report)
