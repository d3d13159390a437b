"""The in-simulator packet model.

Inside the discrete-event simulation, packets are Python objects rather
than byte strings: the zero-copy data plane passes *descriptors* around
and only the size of the wire representation matters for timing.  A
:class:`Packet` carries the five-tuple used by the classifier, GTP tunnel
metadata, measurement timestamps and an optional payload object (e.g. a
control-plane message).

The real byte-level codecs live in :mod:`repro.net.headers` and
:mod:`repro.net.gtp`; :meth:`Packet.to_bytes` bridges the two worlds when
a component genuinely serializes (trace dumps, GTP encap tests).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Dict, Optional

from .headers import PROTO_TCP, PROTO_UDP, IPv4Header, TCPHeader, UDPHeader

__all__ = ["Direction", "PacketKind", "FiveTuple", "Packet"]

_packet_ids = itertools.count(1)

#: Bytes of L2 + L3 + L4 framing assumed for a minimal data packet.
MIN_FRAME = 64
#: Ethernet + IPv4 + UDP overhead bytes.
HEADER_OVERHEAD = 14 + 20 + 8


class Direction(Enum):
    """Traffic direction relative to the UE."""

    UPLINK = "UL"
    DOWNLINK = "DL"


class PacketKind(Enum):
    """Coarse packet class used by the resiliency logger's four queues."""

    DATA = "data"
    CONTROL = "control"


@dataclass(frozen=True)
class FiveTuple:
    """The classic IP five-tuple, with integer addresses."""

    src_ip: int = 0
    dst_ip: int = 0
    src_port: int = 0
    dst_port: int = 0
    protocol: int = PROTO_UDP

    def reversed(self) -> "FiveTuple":
        """The tuple of the reverse flow (for replies/ACKs)."""
        return FiveTuple(
            src_ip=self.dst_ip,
            dst_ip=self.src_ip,
            src_port=self.dst_port,
            dst_port=self.src_port,
            protocol=self.protocol,
        )


@dataclass
class Packet:
    """A simulated packet / descriptor.

    Attributes
    ----------
    size:
        Wire size in bytes including framing (used for timing and
        throughput accounting).
    flow:
        Classifier five-tuple of the *inner* user packet.
    teid:
        GTP tunnel endpoint id when encapsulated on N3 (None otherwise).
    qfi:
        QoS flow identifier carried in the PDU session container.
    kind:
        Control vs. data, for the resiliency logger's queue split.
    created_at / delivered_at:
        Measurement timestamps maintained by the traffic tooling.
    payload:
        Arbitrary object riding in the packet (e.g. an SBI message).
    meta:
        Scratch space for model components (never serialized).
    """

    size: int = MIN_FRAME
    flow: FiveTuple = field(default_factory=FiveTuple)
    direction: Direction = Direction.DOWNLINK
    kind: PacketKind = PacketKind.DATA
    teid: Optional[int] = None
    qfi: Optional[int] = None
    tos: int = 0
    seq: Optional[int] = None
    created_at: Optional[float] = None
    delivered_at: Optional[float] = None
    payload: Any = None
    meta: Dict[str, Any] = field(default_factory=dict)
    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    def copy(self) -> "Packet":
        """A shallow copy with a fresh packet id (used by retransmits)."""
        duplicate = replace(self, meta=dict(self.meta))
        object.__setattr__(duplicate, "packet_id", next(_packet_ids))
        return duplicate

    @property
    def payload_size(self) -> int:
        """Inner payload bytes, i.e. size minus L2-L4 framing."""
        return max(0, self.size - HEADER_OVERHEAD)

    @property
    def latency(self) -> Optional[float]:
        """End-to-end latency if both timestamps were recorded."""
        if self.created_at is None or self.delivered_at is None:
            return None
        return self.delivered_at - self.created_at

    def to_bytes(self) -> bytes:
        """Render the inner user packet as real bytes.

        The payload area is zero-filled to the declared size; the
        headers are genuine so the result survives a decode round trip.
        """
        payload = b"\x00" * self.payload_size
        if self.flow.protocol == PROTO_TCP:
            l4 = TCPHeader(
                src_port=self.flow.src_port, dst_port=self.flow.dst_port
            )
            l4_bytes = l4.pack(payload, self.flow.src_ip, self.flow.dst_ip)
            l4_bytes += payload
        else:
            l4 = UDPHeader(
                src_port=self.flow.src_port, dst_port=self.flow.dst_port
            )
            l4_bytes = l4.pack(payload, self.flow.src_ip, self.flow.dst_ip)
            l4_bytes += payload
        ip = IPv4Header(
            src=self.flow.src_ip,
            dst=self.flow.dst_ip,
            protocol=self.flow.protocol,
            total_length=IPv4Header.LENGTH + len(l4_bytes),
            dscp=self.tos >> 2,
        )
        return ip.pack() + l4_bytes

    @classmethod
    def from_bytes(cls, data: bytes, **kwargs: Any) -> "Packet":
        """Parse real bytes back into a simulated packet."""
        ip, rest = IPv4Header.unpack(data)
        if ip.protocol == PROTO_TCP:
            l4, _ = TCPHeader.unpack(rest)
        elif ip.protocol == PROTO_UDP:
            l4, _ = UDPHeader.unpack(rest)
        else:
            raise ValueError(f"unsupported protocol: {ip.protocol}")
        flow = FiveTuple(
            src_ip=ip.src,
            dst_ip=ip.dst,
            src_port=l4.src_port,
            dst_port=l4.dst_port,
            protocol=ip.protocol,
        )
        return cls(
            size=len(data) + 14,  # add back Ethernet framing
            flow=flow,
            tos=ip.dscp << 2,
            **kwargs,
        )
