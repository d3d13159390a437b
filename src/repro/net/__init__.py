"""Packet and protocol substrate: addresses, headers, GTP-U, packet model."""

from .addresses import (
    AddressAllocator,
    int_to_ip,
    ip_to_int,
    prefix_mask,
    prefix_range,
)
from .gtp import GTPU_PORT, GTPUHeader, decapsulate, encapsulate
from .headers import (
    ETHERTYPE_IPV4,
    PROTO_TCP,
    PROTO_UDP,
    EthernetHeader,
    IPv4Header,
    TCPHeader,
    UDPHeader,
    internet_checksum,
)
from .packet import Direction, FiveTuple, Packet, PacketKind
from .pcap import PcapWriter, read_pcap, write_gtp_trace

__all__ = [
    "AddressAllocator",
    "int_to_ip",
    "ip_to_int",
    "prefix_mask",
    "prefix_range",
    "GTPU_PORT",
    "GTPUHeader",
    "decapsulate",
    "encapsulate",
    "ETHERTYPE_IPV4",
    "PROTO_TCP",
    "PROTO_UDP",
    "EthernetHeader",
    "IPv4Header",
    "TCPHeader",
    "UDPHeader",
    "internet_checksum",
    "PcapWriter",
    "read_pcap",
    "write_gtp_trace",
    "Direction",
    "FiveTuple",
    "Packet",
    "PacketKind",
]
