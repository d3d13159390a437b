"""PFCP Information Elements (3GPP TS 29.244) with real TLV codecs.

The N4 interface between SMF and UPF carries Packet Forwarding Control
Protocol messages built from type-length-value encoded IEs.  We
implement the subset the 5GC session procedures need — PDR/FAR/QER
creation and update, F-TEID and UE IP addressing, the Apply Action whose
BUFF flag L25GC piggybacks for smart handover buffering (§3.3), and the
downlink data report that triggers paging.

Each IE class knows its 3GPP type code and encodes its payload to real
bytes; grouped IEs nest child IEs.  ``decode_ies`` parses a buffer back
into typed objects through the registry.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Type

__all__ = [
    "IE",
    "CauseIE",
    "OffendingIeIE",
    "NodeIdIE",
    "FSeidIE",
    "PdrIdIE",
    "FarIdIE",
    "QerIdIE",
    "PrecedenceIE",
    "SourceInterfaceIE",
    "DestinationInterfaceIE",
    "FTeidIE",
    "UeIpAddressIE",
    "NetworkInstanceIE",
    "SdfFilterIE",
    "QfiIE",
    "ApplyActionIE",
    "OuterHeaderCreationIE",
    "OuterHeaderRemovalIE",
    "ReportTypeIE",
    "PdiIE",
    "CreatePdrIE",
    "RemovePdrIE",
    "ForwardingParametersIE",
    "CreateFarIE",
    "UpdateFarIE",
    "DownlinkDataReportIE",
    "decode_ies",
    "encode_ies",
    "ies_size",
    "IE_REGISTRY",
]

IE_REGISTRY: Dict[int, Type["IE"]] = {}

# Interface values (TS 29.244 §8.2.2 / §8.2.24)
ACCESS = 0
CORE = 1

# Apply Action flag bits (§8.2.26)
ACTION_DROP = 0x01
ACTION_FORW = 0x02
ACTION_BUFF = 0x04
ACTION_NOCP = 0x08  # Notify the CP function
ACTION_DUPL = 0x10

# Cause values (§8.2.1)
CAUSE_ACCEPTED = 1
CAUSE_REQUEST_REJECTED = 64
CAUSE_SESSION_NOT_FOUND = 65
CAUSE_MANDATORY_IE_MISSING = 66
CAUSE_RULE_CREATION_MODIFICATION_FAILURE = 73


def _register(cls: Type["IE"]) -> Type["IE"]:
    IE_REGISTRY[cls.IE_TYPE] = cls
    return cls


@dataclass(frozen=True)
class IE:
    """Base information element."""

    IE_TYPE: ClassVar[int] = 0
    GROUPED: ClassVar[bool] = False
    #: ``len(payload())`` of a fixed-format IE; None where it depends
    #: on the instance, which then overrides :meth:`payload_size`.
    PAYLOAD_SIZE: ClassVar[Optional[int]] = None

    def payload(self) -> bytes:
        raise NotImplementedError

    def payload_size(self) -> int:
        """``len(self.payload())`` without building the bytes."""
        return self.PAYLOAD_SIZE

    def wire_size(self) -> int:
        """``len(self.encode())``: the 4-byte TLV header plus payload."""
        return 4 + self.payload_size()

    @classmethod
    def parse(cls, data: bytes) -> "IE":
        raise NotImplementedError

    def encode(self) -> bytes:
        body = self.payload()
        return struct.pack("!HH", self.IE_TYPE, len(body)) + body


def encode_ies(ies: List[IE]) -> bytes:
    """Concatenate the TLV encodings of a list of IEs."""
    return b"".join(ie.encode() for ie in ies)


def ies_size(ies: List[IE]) -> int:
    """``len(encode_ies(ies))`` from the structure alone.

    What a shared-memory N4 leg is sized by: the descriptor is passed,
    never serialised, but the record keeps the size the bytes would be.
    """
    total = 0
    for ie in ies:
        size = ie.PAYLOAD_SIZE
        total += 4 + (ie.payload_size() if size is None else size)
    return total


def decode_ies(data: bytes) -> List[IE]:
    """Parse a buffer of TLVs into typed IEs (unknown types skipped)."""
    out: List[IE] = []
    pos = 0
    while pos < len(data):
        if pos + 4 > len(data):
            raise ValueError("truncated IE header")
        ie_type, length = struct.unpack_from("!HH", data, pos)
        pos += 4
        body = data[pos : pos + length]
        if len(body) < length:
            raise ValueError(f"truncated IE {ie_type} body")
        pos += length
        cls = IE_REGISTRY.get(ie_type)
        if cls is not None:
            try:
                out.append(cls.parse(body))
            except (struct.error, IndexError) as exc:
                raise ValueError(
                    f"malformed IE {ie_type}: {exc}"
                ) from exc
    return out


def _first(ies: List[IE], cls: Type[IE]) -> Optional[IE]:
    for ie in ies:
        if isinstance(ie, cls):
            return ie
    return None


# ---------------------------------------------------------------------------
# Scalar IEs
# ---------------------------------------------------------------------------
@_register
@dataclass(frozen=True)
class CauseIE(IE):
    """Cause (type 19)."""

    IE_TYPE: ClassVar[int] = 19
    PAYLOAD_SIZE: ClassVar[int] = struct.calcsize("!B")
    cause: int = CAUSE_ACCEPTED

    def payload(self) -> bytes:
        return struct.pack("!B", self.cause)

    @classmethod
    def parse(cls, data: bytes) -> "CauseIE":
        return cls(cause=data[0])

    @property
    def accepted(self) -> bool:
        return self.cause == CAUSE_ACCEPTED


@_register
@dataclass(frozen=True)
class OffendingIeIE(IE):
    """Offending IE (type 40): the type of the IE a rejection names."""

    IE_TYPE: ClassVar[int] = 40
    PAYLOAD_SIZE: ClassVar[int] = struct.calcsize("!H")
    ie_type: int = 0

    def payload(self) -> bytes:
        return struct.pack("!H", self.ie_type)

    @classmethod
    def parse(cls, data: bytes) -> "OffendingIeIE":
        return cls(ie_type=struct.unpack("!H", data[:2])[0])


@_register
@dataclass(frozen=True)
class NodeIdIE(IE):
    """Node ID (type 60), IPv4 form."""

    IE_TYPE: ClassVar[int] = 60
    PAYLOAD_SIZE: ClassVar[int] = struct.calcsize("!BI")
    address: int = 0

    def payload(self) -> bytes:
        return struct.pack("!BI", 0, self.address)  # 0 = IPv4

    @classmethod
    def parse(cls, data: bytes) -> "NodeIdIE":
        _kind, address = struct.unpack("!BI", data[:5])
        return cls(address=address)


@_register
@dataclass(frozen=True)
class FSeidIE(IE):
    """F-SEID (type 57): session endpoint id + IPv4."""

    IE_TYPE: ClassVar[int] = 57
    PAYLOAD_SIZE: ClassVar[int] = struct.calcsize("!BQI")
    seid: int = 0
    address: int = 0

    def payload(self) -> bytes:
        return struct.pack("!BQI", 0x02, self.seid, self.address)  # V4 flag

    @classmethod
    def parse(cls, data: bytes) -> "FSeidIE":
        _flags, seid, address = struct.unpack("!BQI", data[:13])
        return cls(seid=seid, address=address)


@_register
@dataclass(frozen=True)
class PdrIdIE(IE):
    """PDR ID (type 56)."""

    IE_TYPE: ClassVar[int] = 56
    PAYLOAD_SIZE: ClassVar[int] = struct.calcsize("!H")
    rule_id: int = 0

    def payload(self) -> bytes:
        return struct.pack("!H", self.rule_id)

    @classmethod
    def parse(cls, data: bytes) -> "PdrIdIE":
        return cls(rule_id=struct.unpack("!H", data[:2])[0])


@_register
@dataclass(frozen=True)
class FarIdIE(IE):
    """FAR ID (type 108)."""

    IE_TYPE: ClassVar[int] = 108
    PAYLOAD_SIZE: ClassVar[int] = struct.calcsize("!I")
    rule_id: int = 0

    def payload(self) -> bytes:
        return struct.pack("!I", self.rule_id)

    @classmethod
    def parse(cls, data: bytes) -> "FarIdIE":
        return cls(rule_id=struct.unpack("!I", data[:4])[0])


@_register
@dataclass(frozen=True)
class QerIdIE(IE):
    """QER ID (type 109)."""

    IE_TYPE: ClassVar[int] = 109
    PAYLOAD_SIZE: ClassVar[int] = struct.calcsize("!I")
    rule_id: int = 0

    def payload(self) -> bytes:
        return struct.pack("!I", self.rule_id)

    @classmethod
    def parse(cls, data: bytes) -> "QerIdIE":
        return cls(rule_id=struct.unpack("!I", data[:4])[0])


@_register
@dataclass(frozen=True)
class PrecedenceIE(IE):
    """Precedence (type 29): lower value wins."""

    IE_TYPE: ClassVar[int] = 29
    PAYLOAD_SIZE: ClassVar[int] = struct.calcsize("!I")
    precedence: int = 255

    def payload(self) -> bytes:
        return struct.pack("!I", self.precedence)

    @classmethod
    def parse(cls, data: bytes) -> "PrecedenceIE":
        return cls(precedence=struct.unpack("!I", data[:4])[0])


@_register
@dataclass(frozen=True)
class SourceInterfaceIE(IE):
    """Source Interface (type 20): ACCESS (UL) or CORE (DL)."""

    IE_TYPE: ClassVar[int] = 20
    PAYLOAD_SIZE: ClassVar[int] = struct.calcsize("!B")
    interface: int = ACCESS

    def payload(self) -> bytes:
        return struct.pack("!B", self.interface)

    @classmethod
    def parse(cls, data: bytes) -> "SourceInterfaceIE":
        return cls(interface=data[0] & 0x0F)


@_register
@dataclass(frozen=True)
class DestinationInterfaceIE(IE):
    """Destination Interface (type 42)."""

    IE_TYPE: ClassVar[int] = 42
    PAYLOAD_SIZE: ClassVar[int] = struct.calcsize("!B")
    interface: int = CORE

    def payload(self) -> bytes:
        return struct.pack("!B", self.interface)

    @classmethod
    def parse(cls, data: bytes) -> "DestinationInterfaceIE":
        return cls(interface=data[0] & 0x0F)


@_register
@dataclass(frozen=True)
class FTeidIE(IE):
    """F-TEID (type 21): local tunnel endpoint.

    The CHOOSE flag asks the UPF to allocate a TEID itself — used by
    the handover flow when the SMF requests a new endpoint for the
    target gNB.
    """

    IE_TYPE: ClassVar[int] = 21
    PAYLOAD_SIZE: ClassVar[int] = struct.calcsize("!BIIB")
    teid: int = 0
    address: int = 0
    choose: bool = False

    def payload(self) -> bytes:
        flags = 0x01  # V4
        if self.choose:
            flags |= 0x04  # CH
        return struct.pack("!BIIB", flags, self.teid, self.address, 0)

    @classmethod
    def parse(cls, data: bytes) -> "FTeidIE":
        flags, teid, address, _choose_id = struct.unpack("!BIIB", data[:10])
        return cls(teid=teid, address=address, choose=bool(flags & 0x04))


@_register
@dataclass(frozen=True)
class UeIpAddressIE(IE):
    """UE IP Address (type 93)."""

    IE_TYPE: ClassVar[int] = 93
    PAYLOAD_SIZE: ClassVar[int] = struct.calcsize("!BI")
    address: int = 0
    source_or_destination: int = 0  # 0 = source (UL), 1 = destination (DL)

    def payload(self) -> bytes:
        flags = 0x02  # V4
        if self.source_or_destination:
            flags |= 0x04  # S/D
        return struct.pack("!BI", flags, self.address)

    @classmethod
    def parse(cls, data: bytes) -> "UeIpAddressIE":
        flags, address = struct.unpack("!BI", data[:5])
        return cls(
            address=address, source_or_destination=1 if flags & 0x04 else 0
        )


@_register
@dataclass(frozen=True)
class NetworkInstanceIE(IE):
    """Network Instance (type 22): the DNN's transport domain."""

    IE_TYPE: ClassVar[int] = 22
    instance: str = "internet"

    def payload(self) -> bytes:
        return self.instance.encode("ascii")

    def payload_size(self) -> int:
        return len(self.instance)  # ASCII: one byte per character

    @classmethod
    def parse(cls, data: bytes) -> "NetworkInstanceIE":
        return cls(instance=data.decode("ascii"))


@_register
@dataclass(frozen=True)
class SdfFilterIE(IE):
    """SDF Filter (type 23): an IP-filter flow description.

    The paper expands the SDF filter into IP 5-tuples plus extra fields
    (§2.3 challenge 3); we encode the flow description string exactly as
    TS 29.244 does and carry parsed match ranges alongside.
    """

    IE_TYPE: ClassVar[int] = 23
    flow_description: str = "permit out ip from any to assigned"
    tos: Optional[int] = None
    spi: Optional[int] = None
    flow_label: Optional[int] = None
    filter_id: Optional[int] = None

    def payload(self) -> bytes:
        flags = 0x01  # FD present
        if self.tos is not None:
            flags |= 0x02
        if self.spi is not None:
            flags |= 0x04
        if self.flow_label is not None:
            flags |= 0x08
        if self.filter_id is not None:
            flags |= 0x10
        raw = self.flow_description.encode("ascii")
        out = struct.pack("!BBH", flags, 0, len(raw)) + raw
        if self.tos is not None:
            out += struct.pack("!H", self.tos)
        if self.spi is not None:
            out += struct.pack("!I", self.spi)
        if self.flow_label is not None:
            out += struct.pack("!I", self.flow_label & 0xFFFFFF)
        if self.filter_id is not None:
            out += struct.pack("!I", self.filter_id)
        return out

    def payload_size(self) -> int:
        return (
            4 + len(self.flow_description)  # flags, spare, length; ASCII
            + (0 if self.tos is None else 2)
            + (0 if self.spi is None else 4)
            + (0 if self.flow_label is None else 4)
            + (0 if self.filter_id is None else 4)
        )

    @classmethod
    def parse(cls, data: bytes) -> "SdfFilterIE":
        flags = data[0]
        pos = 2
        fields: Dict[str, object] = {"flow_description": ""}
        if flags & 0x01:
            (length,) = struct.unpack_from("!H", data, pos)
            pos += 2
            fields["flow_description"] = data[pos : pos + length].decode(
                "ascii"
            )
            pos += length
        if flags & 0x02:
            (fields["tos"],) = struct.unpack_from("!H", data, pos)
            pos += 2
        if flags & 0x04:
            (fields["spi"],) = struct.unpack_from("!I", data, pos)
            pos += 4
        if flags & 0x08:
            (fields["flow_label"],) = struct.unpack_from("!I", data, pos)
            pos += 4
        if flags & 0x10:
            (fields["filter_id"],) = struct.unpack_from("!I", data, pos)
            pos += 4
        return cls(**fields)


@_register
@dataclass(frozen=True)
class QfiIE(IE):
    """QoS Flow Identifier (type 124)."""

    IE_TYPE: ClassVar[int] = 124
    PAYLOAD_SIZE: ClassVar[int] = struct.calcsize("!B")
    qfi: int = 9

    def payload(self) -> bytes:
        return struct.pack("!B", self.qfi & 0x3F)

    @classmethod
    def parse(cls, data: bytes) -> "QfiIE":
        return cls(qfi=data[0] & 0x3F)


@_register
@dataclass(frozen=True)
class ApplyActionIE(IE):
    """Apply Action (type 44): DROP/FORW/BUFF/NOCP/DUPL flags.

    L25GC's smart buffering is provisioned purely through this IE's
    standard BUFF flag piggybacked on a session modification — no new
    message types (§3.3).
    """

    IE_TYPE: ClassVar[int] = 44
    PAYLOAD_SIZE: ClassVar[int] = struct.calcsize("!B")
    flags: int = ACTION_FORW

    def payload(self) -> bytes:
        return struct.pack("!B", self.flags)

    @classmethod
    def parse(cls, data: bytes) -> "ApplyActionIE":
        return cls(flags=data[0])

    @property
    def forward(self) -> bool:
        return bool(self.flags & ACTION_FORW)

    @property
    def buffer(self) -> bool:
        return bool(self.flags & ACTION_BUFF)

    @property
    def drop(self) -> bool:
        return bool(self.flags & ACTION_DROP)

    @property
    def notify_cp(self) -> bool:
        return bool(self.flags & ACTION_NOCP)


@_register
@dataclass(frozen=True)
class OuterHeaderCreationIE(IE):
    """Outer Header Creation (type 84): GTP-U/UDP/IPv4 towards a gNB."""

    IE_TYPE: ClassVar[int] = 84
    PAYLOAD_SIZE: ClassVar[int] = struct.calcsize("!HII")
    teid: int = 0
    address: int = 0

    def payload(self) -> bytes:
        return struct.pack("!HII", 0x0100, self.teid, self.address)

    @classmethod
    def parse(cls, data: bytes) -> "OuterHeaderCreationIE":
        _desc, teid, address = struct.unpack("!HII", data[:10])
        return cls(teid=teid, address=address)


@_register
@dataclass(frozen=True)
class OuterHeaderRemovalIE(IE):
    """Outer Header Removal (type 95)."""

    IE_TYPE: ClassVar[int] = 95
    PAYLOAD_SIZE: ClassVar[int] = struct.calcsize("!B")
    description: int = 0  # 0 = GTP-U/UDP/IPv4

    def payload(self) -> bytes:
        return struct.pack("!B", self.description)

    @classmethod
    def parse(cls, data: bytes) -> "OuterHeaderRemovalIE":
        return cls(description=data[0])


@_register
@dataclass(frozen=True)
class ReportTypeIE(IE):
    """Report Type (type 39).

    DLDR = downlink data report (paging trigger); USAR = usage report
    (URR volume threshold).
    """

    IE_TYPE: ClassVar[int] = 39
    PAYLOAD_SIZE: ClassVar[int] = struct.calcsize("!B")
    dldr: bool = True
    usar: bool = False

    def payload(self) -> bytes:
        flags = (0x01 if self.dldr else 0x00) | (0x02 if self.usar else 0x00)
        return struct.pack("!B", flags)

    @classmethod
    def parse(cls, data: bytes) -> "ReportTypeIE":
        return cls(dldr=bool(data[0] & 0x01), usar=bool(data[0] & 0x02))


# ---------------------------------------------------------------------------
# Grouped IEs
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _GroupedIE(IE):
    """Base for IEs whose payload is a list of child IEs."""

    GROUPED: ClassVar[bool] = True
    children: List[IE] = field(default_factory=list)

    def payload(self) -> bytes:
        return encode_ies(self.children)

    def payload_size(self) -> int:
        return ies_size(self.children)

    @classmethod
    def parse(cls, data: bytes) -> "_GroupedIE":
        return cls(children=decode_ies(data))

    def child(self, cls_: Type[IE]) -> Optional[IE]:
        return _first(self.children, cls_)


@_register
@dataclass(frozen=True)
class PdiIE(_GroupedIE):
    """Packet Detection Information (type 2, grouped)."""

    IE_TYPE: ClassVar[int] = 2


@_register
@dataclass(frozen=True)
class CreatePdrIE(_GroupedIE):
    """Create PDR (type 1, grouped): PDR ID, precedence, PDI, FAR ID."""

    IE_TYPE: ClassVar[int] = 1


@_register
@dataclass(frozen=True)
class RemovePdrIE(_GroupedIE):
    """Remove PDR (type 15, grouped): the PDR ID to delete."""

    IE_TYPE: ClassVar[int] = 15


@_register
@dataclass(frozen=True)
class ForwardingParametersIE(_GroupedIE):
    """Forwarding Parameters (type 4, grouped)."""

    IE_TYPE: ClassVar[int] = 4


@_register
@dataclass(frozen=True)
class CreateFarIE(_GroupedIE):
    """Create FAR (type 3, grouped): FAR ID, apply action, fwd params."""

    IE_TYPE: ClassVar[int] = 3


@_register
@dataclass(frozen=True)
class UpdateFarIE(_GroupedIE):
    """Update FAR (type 10, grouped) — carries the handover buffering
    action and the new outer header towards the target gNB."""

    IE_TYPE: ClassVar[int] = 10


@_register
@dataclass(frozen=True)
class DownlinkDataReportIE(_GroupedIE):
    """Downlink Data Report (type 83, grouped): PDR ID that saw DL data."""

    IE_TYPE: ClassVar[int] = 83
