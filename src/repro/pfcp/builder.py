"""Convenience builders for the PFCP session messages the SMF emits.

The SMF composes the same IE trees over and over (UL/DL PDR pairs,
path-switch FAR updates, buffering FAR updates).  These helpers build
them exactly once so both the free5GC baseline and L25GC share the same
3GPP-compliant message content and only the transport differs.
"""

from __future__ import annotations

from typing import List, Optional

from . import ies, qos_ies
from .messages import (
    SessionEstablishmentRequest,
    SessionModificationRequest,
    SessionReportRequest,
)

__all__ = [
    "build_session_establishment",
    "build_path_switch",
    "build_buffering_update",
    "build_forward_update",
    "build_downlink_report",
]


def _uplink_pdr(pdr_id: int, teid: int, upf_address: int, far_id: int) -> ies.CreatePdrIE:
    """UL PDR: match the GTP tunnel from the gNB, strip the outer header."""
    pdi = ies.PdiIE(
        children=[
            ies.SourceInterfaceIE(interface=ies.ACCESS),
            ies.FTeidIE(teid=teid, address=upf_address),
            ies.NetworkInstanceIE(instance="internet"),
        ]
    )
    return ies.CreatePdrIE(
        children=[
            ies.PdrIdIE(rule_id=pdr_id),
            ies.PrecedenceIE(precedence=32),
            pdi,
            ies.OuterHeaderRemovalIE(),
            ies.FarIdIE(rule_id=far_id),
        ]
    )


def _downlink_pdr(pdr_id: int, ue_ip: int, far_id: int) -> ies.CreatePdrIE:
    """DL PDR: match the UE IP as destination on the core side."""
    pdi = ies.PdiIE(
        children=[
            ies.SourceInterfaceIE(interface=ies.CORE),
            ies.UeIpAddressIE(address=ue_ip, source_or_destination=1),
            ies.NetworkInstanceIE(instance="internet"),
        ]
    )
    return ies.CreatePdrIE(
        children=[
            ies.PdrIdIE(rule_id=pdr_id),
            ies.PrecedenceIE(precedence=32),
            pdi,
            ies.FarIdIE(rule_id=far_id),
        ]
    )


def build_session_establishment(
    seid: int,
    sequence: int,
    ue_ip: int,
    upf_address: int,
    ul_teid: int,
    gnb_address: int,
    dl_teid: int,
    smf_address: int = 0,
    qos_rules: Optional[List[ies.IE]] = None,
    qer_id: Optional[int] = None,
    urr_id: Optional[int] = None,
) -> SessionEstablishmentRequest:
    """The SMF's N4 session establishment: UL+DL PDRs and FARs.

    ``qos_rules`` (``CreateQerIE``/``CreateUrrIE`` trees) attaches QER/URR
    creations; ``qer_id``/``urr_id`` reference them from both PDRs.
    """
    ul_far = ies.CreateFarIE(
        children=[
            ies.FarIdIE(rule_id=1),
            ies.ApplyActionIE(flags=ies.ACTION_FORW),
            ies.ForwardingParametersIE(
                children=[ies.DestinationInterfaceIE(interface=ies.CORE)]
            ),
        ]
    )
    dl_far = ies.CreateFarIE(
        children=[
            ies.FarIdIE(rule_id=2),
            ies.ApplyActionIE(flags=ies.ACTION_FORW),
            ies.ForwardingParametersIE(
                children=[
                    ies.DestinationInterfaceIE(interface=ies.ACCESS),
                    ies.OuterHeaderCreationIE(teid=dl_teid, address=gnb_address),
                ]
            ),
        ]
    )
    ul_pdr = _uplink_pdr(1, ul_teid, upf_address, 1)
    dl_pdr = _downlink_pdr(2, ue_ip, 2)
    for pdr in (ul_pdr, dl_pdr):
        if qer_id is not None:
            pdr.children.append(ies.QerIdIE(rule_id=qer_id))
        if urr_id is not None:
            pdr.children.append(qos_ies.UrrIdIE(rule_id=urr_id))
    message_ies: List[ies.IE] = [
        ies.NodeIdIE(address=smf_address),
        ies.FSeidIE(seid=seid, address=smf_address),
        ul_pdr,
        dl_pdr,
        ul_far,
        dl_far,
    ]
    if qos_rules:
        message_ies.extend(qos_rules)
    return SessionEstablishmentRequest(
        seid=seid, sequence=sequence, ies=message_ies
    )


def build_path_switch(
    seid: int,
    sequence: int,
    new_gnb_address: int,
    new_dl_teid: int,
) -> SessionModificationRequest:
    """Switch the DL FAR to the target gNB after handover completes.

    Flipping a buffering FAR to FORW drains the smart buffer first;
    the UPF's serial re-injection keeps delivery in order (§3.3).
    """
    flags = ies.ACTION_FORW
    update = ies.UpdateFarIE(
        children=[
            ies.FarIdIE(rule_id=2),
            ies.ApplyActionIE(flags=flags),
            ies.ForwardingParametersIE(
                children=[
                    ies.DestinationInterfaceIE(interface=ies.ACCESS),
                    ies.OuterHeaderCreationIE(
                        teid=new_dl_teid, address=new_gnb_address
                    ),
                ]
            ),
        ]
    )
    return SessionModificationRequest(
        seid=seid, sequence=sequence, ies=[update]
    )


def build_buffering_update(
    seid: int,
    sequence: int,
    notify_cp: bool = False,
    choose_new_teid: bool = False,
    upf_address: int = 0,
) -> SessionModificationRequest:
    """Buffer DL packets at the UPF (paging, or L25GC handover start).

    For handover, L25GC piggybacks the BUFF flag on the same session
    modification that allocates a new F-TEID for the target gNB (§3.3)
    — ``choose_new_teid`` adds that F-TEID with the CHOOSE flag.
    """
    flags = ies.ACTION_BUFF | (ies.ACTION_NOCP if notify_cp else 0)
    children: List[ies.IE] = [
        ies.FarIdIE(rule_id=2),
        ies.ApplyActionIE(flags=flags),
    ]
    update = ies.UpdateFarIE(children=children)
    message_ies: List[ies.IE] = [update]
    if choose_new_teid:
        message_ies.append(
            ies.FTeidIE(teid=0, address=upf_address, choose=True)
        )
    return SessionModificationRequest(
        seid=seid, sequence=sequence, ies=message_ies
    )


def build_forward_update(
    seid: int, sequence: int, gnb_address: int, dl_teid: int
) -> SessionModificationRequest:
    """Re-activate forwarding after paging (FORW towards the gNB)."""
    return build_path_switch(seid, sequence, gnb_address, dl_teid)


def build_downlink_report(
    seid: int, sequence: int, pdr_id: int = 2
) -> SessionReportRequest:
    """UPF -> SMF: first DL packet arrived for an idle UE."""
    return SessionReportRequest(
        seid=seid,
        sequence=sequence,
        ies=[
            ies.ReportTypeIE(dldr=True),
            ies.DownlinkDataReportIE(
                children=[ies.PdrIdIE(rule_id=pdr_id)]
            ),
        ],
    )
