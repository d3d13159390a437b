"""User-plane rule state: PDRs and FARs as installed in the UPF.

The UPF-C decodes PFCP IEs into these runtime structures and stores
them in the session context that lives in shared memory (§3.2, "zero
cost state update").  Each PDR carries a
:class:`~repro.classifier.rule.Rule` for the classifier; precedence
follows PFCP semantics (lower value = higher priority), converted to
the classifier's higher-wins priority internally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..classifier.rule import FULL_DOMAIN, PDI_FIELDS, Rule, exact
from ..pfcp import ies as pfcp_ies

__all__ = ["PDR", "FAR", "FARAction", "pdr_from_create_ie", "far_from_ie"]

_FIELD_INDEX = {spec.name: i for i, spec in enumerate(PDI_FIELDS)}

#: Largest PFCP precedence value we accept; used to invert precedence
#: into the classifier's higher-wins priority.
_MAX_PRECEDENCE = 1 << 16


@dataclass(slots=True)
class FARAction:
    """The decoded Apply Action + forwarding parameters of a FAR."""

    forward: bool = True
    buffer: bool = False
    drop: bool = False
    notify_cp: bool = False
    #: Outer header towards the RAN (None = towards the DN, decap only).
    outer_teid: Optional[int] = None
    outer_address: Optional[int] = None
    destination_interface: int = pfcp_ies.CORE


@dataclass(slots=True)
class FAR:
    """Forwarding Action Rule."""

    far_id: int
    action: FARAction = field(default_factory=FARAction)


@dataclass(slots=True)
class PDR:
    """Packet Detection Rule as installed in the data plane."""

    pdr_id: int
    precedence: int
    match: Rule
    far_id: int
    qer_id: Optional[int] = None
    urr_id: Optional[int] = None
    outer_header_removal: bool = False
    source_interface: int = pfcp_ies.ACCESS

    @property
    def priority(self) -> int:
        """Classifier priority (higher wins), from PFCP precedence."""
        return _MAX_PRECEDENCE - self.precedence


def _rule_from_pdi(
    pdi: pfcp_ies.PdiIE, pdr_id: int, far_id: int, precedence: int
) -> Rule:
    """Convert a PDI grouped IE into a 20-dimension classifier rule.

    Unconstrained fields keep the shared
    :data:`~repro.classifier.rule.FULL_DOMAIN` tuples, so a PDR owns
    only the ranges its PDI names.
    """
    ranges = list(FULL_DOMAIN)
    source = pdi.child(pfcp_ies.SourceInterfaceIE)
    if source is not None:
        ranges[_FIELD_INDEX["source_iface"]] = exact(source.interface)
    fteid = pdi.child(pfcp_ies.FTeidIE)
    if fteid is not None and not fteid.choose:
        ranges[_FIELD_INDEX["teid"]] = exact(fteid.teid)
    ue_ip = pdi.child(pfcp_ies.UeIpAddressIE)
    if ue_ip is not None:
        key = "dst_ip" if ue_ip.source_or_destination else "src_ip"
        ranges[_FIELD_INDEX[key]] = exact(ue_ip.address)
    qfi = pdi.child(pfcp_ies.QfiIE)
    if qfi is not None:
        ranges[_FIELD_INDEX["qfi"]] = exact(qfi.qfi)
    sdf = pdi.child(pfcp_ies.SdfFilterIE)
    if sdf is not None and sdf.tos is not None:
        ranges[_FIELD_INDEX["tos"]] = exact(sdf.tos >> 8)
    if sdf is not None and sdf.spi is not None:
        ranges[_FIELD_INDEX["spi"]] = exact(sdf.spi)
    if sdf is not None and sdf.flow_label is not None:
        ranges[_FIELD_INDEX["flow_label"]] = exact(sdf.flow_label)
    if sdf is not None and sdf.filter_id is not None:
        ranges[_FIELD_INDEX["sdf_filter_id"]] = exact(sdf.filter_id & 0xFFFF)
    return Rule(
        ranges=tuple(ranges),
        priority=_MAX_PRECEDENCE - precedence,
        rule_id=pdr_id,
        far_id=far_id,
    )


def pdr_from_create_ie(create: pfcp_ies.CreatePdrIE) -> PDR:
    """Decode a Create PDR grouped IE into a runtime PDR."""
    pdr_id_ie = create.child(pfcp_ies.PdrIdIE)
    if pdr_id_ie is None:
        raise ValueError("Create PDR without PDR ID")
    precedence_ie = create.child(pfcp_ies.PrecedenceIE)
    precedence = precedence_ie.precedence if precedence_ie else 255
    far_id_ie = create.child(pfcp_ies.FarIdIE)
    far_id = far_id_ie.rule_id if far_id_ie else 0
    pdi = create.child(pfcp_ies.PdiIE)
    if pdi is None:
        raise ValueError("Create PDR without PDI")
    from ..pfcp.qos_ies import UrrIdIE

    qer_ie = create.child(pfcp_ies.QerIdIE)
    urr_ie = create.child(UrrIdIE)
    source = pdi.child(pfcp_ies.SourceInterfaceIE)
    return PDR(
        pdr_id=pdr_id_ie.rule_id,
        precedence=precedence,
        match=_rule_from_pdi(pdi, pdr_id_ie.rule_id, far_id, precedence),
        far_id=far_id,
        qer_id=qer_ie.rule_id if qer_ie else None,
        urr_id=urr_ie.rule_id if urr_ie else None,
        outer_header_removal=create.child(pfcp_ies.OuterHeaderRemovalIE)
        is not None,
        source_interface=source.interface if source else pfcp_ies.ACCESS,
    )


def far_from_ie(create_or_update: "pfcp_ies._GroupedIE") -> FAR:
    """Decode a Create/Update FAR grouped IE into a runtime FAR."""
    far_id_ie = create_or_update.child(pfcp_ies.FarIdIE)
    if far_id_ie is None:
        raise ValueError("FAR IE without FAR ID")
    apply_ie = create_or_update.child(pfcp_ies.ApplyActionIE)
    action = FARAction()
    if apply_ie is not None:
        action.forward = apply_ie.forward
        action.buffer = apply_ie.buffer
        action.drop = apply_ie.drop
        action.notify_cp = apply_ie.notify_cp
    params = create_or_update.child(pfcp_ies.ForwardingParametersIE)
    if params is not None:
        destination = params.child(pfcp_ies.DestinationInterfaceIE)
        if destination is not None:
            action.destination_interface = destination.interface
        outer = params.child(pfcp_ies.OuterHeaderCreationIE)
        if outer is not None:
            action.outer_teid = outer.teid
            action.outer_address = outer.address
    return FAR(far_id=far_id_ie.rule_id, action=action)
