"""QoS-enforcement and usage-reporting IEs (TS 29.244).

The paper's challenge 3 argues the 5GC is becoming packet-oriented:
per-flow QoS (QER) and usage metering (URR) must live in the data
plane next to the PDRs.  These IEs extend :mod:`repro.pfcp.ies` with
the rule-provisioning vocabulary the SMF uses for both.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import ClassVar

from .ies import IE, IE_REGISTRY, QerIdIE, _GroupedIE, _register

__all__ = [
    "GateStatusIE",
    "MbrIE",
    "GbrIE",
    "CreateQerIE",
    "UrrIdIE",
    "MeasurementMethodIE",
    "VolumeThresholdIE",
    "CreateUrrIE",
    "VolumeMeasurementIE",
    "UsageReportIE",
    "GATE_OPEN",
    "GATE_CLOSED",
]

GATE_OPEN = 0
GATE_CLOSED = 1


@_register
@dataclass(frozen=True)
class GateStatusIE(IE):
    """Gate Status (type 25): open/closed per direction."""

    IE_TYPE: ClassVar[int] = 25
    PAYLOAD_SIZE: ClassVar[int] = struct.calcsize("!B")
    ul_gate: int = GATE_OPEN
    dl_gate: int = GATE_OPEN

    def payload(self) -> bytes:
        return struct.pack("!B", (self.ul_gate & 0x3) << 2 | (self.dl_gate & 0x3))

    @classmethod
    def parse(cls, data: bytes) -> "GateStatusIE":
        return cls(ul_gate=(data[0] >> 2) & 0x3, dl_gate=data[0] & 0x3)

    @property
    def dl_open(self) -> bool:
        return self.dl_gate == GATE_OPEN

    @property
    def ul_open(self) -> bool:
        return self.ul_gate == GATE_OPEN


@_register
@dataclass(frozen=True)
class MbrIE(IE):
    """Maximum Bit Rate (type 26), kbps per direction."""

    IE_TYPE: ClassVar[int] = 26
    PAYLOAD_SIZE: ClassVar[int] = struct.calcsize("!QQ")
    ul_kbps: int = 0
    dl_kbps: int = 0

    def payload(self) -> bytes:
        # 5-byte fields in the spec; 8 bytes here for simplicity of a
        # faithful-but-readable codec.
        return struct.pack("!QQ", self.ul_kbps, self.dl_kbps)

    @classmethod
    def parse(cls, data: bytes) -> "MbrIE":
        ul_kbps, dl_kbps = struct.unpack("!QQ", data[:16])
        return cls(ul_kbps=ul_kbps, dl_kbps=dl_kbps)


@_register
@dataclass(frozen=True)
class GbrIE(IE):
    """Guaranteed Bit Rate (type 27), kbps per direction."""

    IE_TYPE: ClassVar[int] = 27
    PAYLOAD_SIZE: ClassVar[int] = struct.calcsize("!QQ")
    ul_kbps: int = 0
    dl_kbps: int = 0

    def payload(self) -> bytes:
        return struct.pack("!QQ", self.ul_kbps, self.dl_kbps)

    @classmethod
    def parse(cls, data: bytes) -> "GbrIE":
        ul_kbps, dl_kbps = struct.unpack("!QQ", data[:16])
        return cls(ul_kbps=ul_kbps, dl_kbps=dl_kbps)


@_register
@dataclass(frozen=True)
class CreateQerIE(_GroupedIE):
    """Create QER (type 7, grouped): QER ID, gate, MBR, QFI."""

    IE_TYPE: ClassVar[int] = 7


@_register
@dataclass(frozen=True)
class UrrIdIE(IE):
    """URR ID (type 81)."""

    IE_TYPE: ClassVar[int] = 81
    PAYLOAD_SIZE: ClassVar[int] = struct.calcsize("!I")
    rule_id: int = 0

    def payload(self) -> bytes:
        return struct.pack("!I", self.rule_id)

    @classmethod
    def parse(cls, data: bytes) -> "UrrIdIE":
        return cls(rule_id=struct.unpack("!I", data[:4])[0])


@_register
@dataclass(frozen=True)
class MeasurementMethodIE(IE):
    """Measurement Method (type 62): volume and/or duration."""

    IE_TYPE: ClassVar[int] = 62
    PAYLOAD_SIZE: ClassVar[int] = struct.calcsize("!B")
    volume: bool = True
    duration: bool = False

    def payload(self) -> bytes:
        flags = (0x02 if self.volume else 0) | (0x01 if self.duration else 0)
        return struct.pack("!B", flags)

    @classmethod
    def parse(cls, data: bytes) -> "MeasurementMethodIE":
        return cls(volume=bool(data[0] & 0x02), duration=bool(data[0] & 0x01))


@_register
@dataclass(frozen=True)
class VolumeThresholdIE(IE):
    """Volume Threshold (type 31): total bytes before a usage report."""

    IE_TYPE: ClassVar[int] = 31
    PAYLOAD_SIZE: ClassVar[int] = struct.calcsize("!BQ")
    total_bytes: int = 0

    def payload(self) -> bytes:
        return struct.pack("!BQ", 0x01, self.total_bytes)  # TOVOL flag

    @classmethod
    def parse(cls, data: bytes) -> "VolumeThresholdIE":
        _flags, total = struct.unpack("!BQ", data[:9])
        return cls(total_bytes=total)


@_register
@dataclass(frozen=True)
class CreateUrrIE(_GroupedIE):
    """Create URR (type 6, grouped): URR ID, method, threshold."""

    IE_TYPE: ClassVar[int] = 6


@_register
@dataclass(frozen=True)
class VolumeMeasurementIE(IE):
    """Volume Measurement (type 66): bytes counted so far."""

    IE_TYPE: ClassVar[int] = 66
    PAYLOAD_SIZE: ClassVar[int] = struct.calcsize("!BQQQ")
    total_bytes: int = 0
    uplink_bytes: int = 0
    downlink_bytes: int = 0

    def payload(self) -> bytes:
        return struct.pack(
            "!BQQQ", 0x07, self.total_bytes, self.uplink_bytes,
            self.downlink_bytes,
        )

    @classmethod
    def parse(cls, data: bytes) -> "VolumeMeasurementIE":
        _flags, total, uplink, downlink = struct.unpack("!BQQQ", data[:25])
        return cls(
            total_bytes=total, uplink_bytes=uplink, downlink_bytes=downlink
        )


@_register
@dataclass(frozen=True)
class UsageReportIE(_GroupedIE):
    """Usage Report (type 80, grouped): URR ID + volume measurement."""

    IE_TYPE: ClassVar[int] = 80
