"""User-plane rule state: PDRs and FARs as installed in the UPF.

The UPF-C decodes PFCP IEs into these runtime structures and stores
them in the session context that lives in shared memory (§3.2, "zero
cost state update").  A PDR *is* its
:class:`~repro.classifier.rule.Rule`: the object the session maps by
id is the one its classifier stores, so a classifier hit is the PDR.
Its one stored ordering is the classifier's higher-wins ``priority``;
PFCP precedence (lower value = higher priority) is derived from it.
A FAR holds its decoded Apply Action and forwarding parameters itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple, Type

from ..classifier.rule import FIELD_INDEX, FULL_DOMAIN, Rule, exact
from ..pfcp import ies as pfcp_ies
from ..pfcp import qos_ies
from .qos import QerEnforcer, TokenBucket, UsageCounter

__all__ = [
    "PDR", "FAR", "RuleError", "precedence_to_priority",
    "pdr_from_create_ie", "far_from_ie", "qer_from_ie", "urr_from_ie",
]

#: Largest PFCP precedence value we accept; used to invert precedence
#: into the classifier's higher-wins priority.
_MAX_PRECEDENCE = 1 << 16


@lru_cache(maxsize=1024)
def precedence_to_priority(precedence: int) -> int:
    """Classifier priority (higher wins) from PFCP precedence.

    Cached, so PDRs of equal precedence share one priority int instead
    of each owning one.
    """
    return _MAX_PRECEDENCE - precedence


class RuleError(ValueError):
    """A refused rule: its TS 29.244 cause and offending IE type."""

    def __init__(self, message: str, ie_type: int,
                 cause: int = pfcp_ies.CAUSE_MANDATORY_IE_MISSING):
        super().__init__(message)
        self.ie_type, self.cause = ie_type, cause


@dataclass(slots=True)
class FAR:
    """Forwarding Action Rule: the decoded Apply Action + forwarding
    parameters."""

    far_id: int
    forward: bool = True
    buffer: bool = False
    drop: bool = False
    notify_cp: bool = False
    #: Outer header towards the RAN (None = towards the DN, decap only).
    outer_teid: Optional[int] = None
    outer_address: Optional[int] = None
    destination_interface: int = pfcp_ies.CORE


@dataclass(slots=True)
class PDR(Rule):
    """Packet Detection Rule as installed in the data plane.

    ``rule_id`` is the PDR id and ``far_id`` its FAR; the inherited
    ``ranges`` are its PDI match fields.
    """

    qer_id: Optional[int] = None
    urr_id: Optional[int] = None
    outer_header_removal: bool = False
    source_interface: int = pfcp_ies.ACCESS

    @property
    def pdr_id(self) -> int:
        return self.rule_id

    @property
    def precedence(self) -> int:
        """PFCP precedence (lower wins), from the classifier priority."""
        return _MAX_PRECEDENCE - self.priority


def _ranges_from_pdi(
    pdi: pfcp_ies.PdiIE, teid: Optional[int] = None
) -> Tuple[Tuple[int, int], ...]:
    """Convert a PDI grouped IE into the 20 classifier ranges.

    Unconstrained fields keep the shared
    :data:`~repro.classifier.rule.FULL_DOMAIN` tuples, so a PDR owns
    only the ranges its PDI names.  ``teid``, when given, is matched
    instead of the PDI's own F-TEID.
    """
    ranges = list(FULL_DOMAIN)
    source = pdi.child(pfcp_ies.SourceInterfaceIE)
    if source is not None:
        ranges[FIELD_INDEX["source_iface"]] = exact(source.interface)
    fteid = pdi.child(pfcp_ies.FTeidIE)
    if teid is None and fteid is not None and not fteid.choose:
        teid = fteid.teid
    if teid is not None:
        ranges[FIELD_INDEX["teid"]] = exact(teid)
    ue_ip = pdi.child(pfcp_ies.UeIpAddressIE)
    if ue_ip is not None:
        key = "dst_ip" if ue_ip.source_or_destination else "src_ip"
        ranges[FIELD_INDEX[key]] = exact(ue_ip.address)
    qfi = pdi.child(pfcp_ies.QfiIE)
    if qfi is not None:
        ranges[FIELD_INDEX["qfi"]] = exact(qfi.qfi)
    sdf = pdi.child(pfcp_ies.SdfFilterIE)
    if sdf is not None and sdf.tos is not None:
        ranges[FIELD_INDEX["tos"]] = exact(sdf.tos >> 8)
    if sdf is not None and sdf.spi is not None:
        ranges[FIELD_INDEX["spi"]] = exact(sdf.spi)
    if sdf is not None and sdf.flow_label is not None:
        ranges[FIELD_INDEX["flow_label"]] = exact(sdf.flow_label)
    if sdf is not None and sdf.filter_id is not None:
        ranges[FIELD_INDEX["sdf_filter_id"]] = exact(sdf.filter_id & 0xFFFF)
    return tuple(ranges)


def required_child(group: pfcp_ies.IE, cls: Type[pfcp_ies.IE]):
    """``group``'s child of class ``cls``; its absence is cause 66."""
    child = group.child(cls)
    if child is None:
        raise RuleError(
            f"{type(group).__name__} without {cls.__name__}", cls.IE_TYPE
        )
    return child


def pdr_from_create_ie(
    create: pfcp_ies.CreatePdrIE, teid: Optional[int] = None
) -> PDR:
    """Decode a Create PDR grouped IE into a runtime PDR.

    ``teid`` is the endpoint the UPF allocated for a CHOOSE F-TEID: the
    PDR matches it, and the IE is left as it was received.
    """
    pdr_id = required_child(create, pfcp_ies.PdrIdIE).rule_id
    far_id = required_child(create, pfcp_ies.FarIdIE).rule_id
    pdi = required_child(create, pfcp_ies.PdiIE)
    precedence_ie = create.child(pfcp_ies.PrecedenceIE)
    precedence = precedence_ie.precedence if precedence_ie else 255
    qer_ie = create.child(pfcp_ies.QerIdIE)
    urr_ie = create.child(qos_ies.UrrIdIE)
    source = pdi.child(pfcp_ies.SourceInterfaceIE)
    return PDR(
        ranges=_ranges_from_pdi(pdi, teid),
        priority=precedence_to_priority(precedence),
        rule_id=pdr_id,
        far_id=far_id,
        qer_id=qer_ie.rule_id if qer_ie else None,
        urr_id=urr_ie.rule_id if urr_ie else None,
        outer_header_removal=create.child(pfcp_ies.OuterHeaderRemovalIE)
        is not None,
        source_interface=source.interface if source else pfcp_ies.ACCESS,
    )


def far_from_ie(create_or_update: "pfcp_ies._GroupedIE") -> FAR:
    """Decode a Create/Update FAR grouped IE into a runtime FAR."""
    far = FAR(far_id=required_child(create_or_update, pfcp_ies.FarIdIE).rule_id)
    apply_ie = create_or_update.child(pfcp_ies.ApplyActionIE)
    if apply_ie is not None:
        far.forward = apply_ie.forward
        far.buffer = apply_ie.buffer
        far.drop = apply_ie.drop
        far.notify_cp = apply_ie.notify_cp
    params = create_or_update.child(pfcp_ies.ForwardingParametersIE)
    if params is not None:
        destination = params.child(pfcp_ies.DestinationInterfaceIE)
        if destination is not None:
            far.destination_interface = destination.interface
        outer = params.child(pfcp_ies.OuterHeaderCreationIE)
        if outer is not None:
            far.outer_teid = outer.teid
            far.outer_address = outer.address
    return far


def qer_from_ie(create: qos_ies.CreateQerIE) -> QerEnforcer:
    """Decode a Create QER grouped IE into its gate + MBR enforcer."""
    qer = QerEnforcer(qer_id=required_child(create, pfcp_ies.QerIdIE).rule_id)
    qfi = create.child(pfcp_ies.QfiIE)
    if qfi is not None:
        qer.qfi = qfi.qfi
    gate = create.child(qos_ies.GateStatusIE)
    if gate is not None:
        qer.ul_gate_open, qer.dl_gate_open = gate.ul_open, gate.dl_open
    mbr = create.child(qos_ies.MbrIE)
    if mbr is not None and mbr.ul_kbps:
        qer.ul_bucket = TokenBucket(mbr.ul_kbps * 1000.0)
    if mbr is not None and mbr.dl_kbps:
        qer.dl_bucket = TokenBucket(mbr.dl_kbps * 1000.0)
    return qer


def urr_from_ie(create: qos_ies.CreateUrrIE) -> UsageCounter:
    """Decode a Create URR grouped IE into its usage counter."""
    threshold = create.child(qos_ies.VolumeThresholdIE)
    return UsageCounter(
        urr_id=required_child(create, qos_ies.UrrIdIE).rule_id,
        volume_threshold_bytes=threshold.total_bytes if threshold else None,
    )
