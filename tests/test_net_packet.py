"""Tests for the simulated packet model."""

import pytest

from repro.net import Direction, FiveTuple, Packet, PacketKind
from repro.net.headers import PROTO_TCP, PROTO_UDP


class TestFiveTuple:
    def test_reversed(self):
        flow = FiveTuple(
            src_ip=1, dst_ip=2, src_port=10, dst_port=20, protocol=PROTO_TCP
        )
        back = flow.reversed()
        assert back.src_ip == 2 and back.dst_ip == 1
        assert back.src_port == 20 and back.dst_port == 10
        assert back.protocol == PROTO_TCP

    def test_hashable(self):
        assert len({FiveTuple(src_ip=1), FiveTuple(src_ip=1)}) == 1


class TestPacket:
    def test_unique_ids(self):
        assert Packet().packet_id != Packet().packet_id

    def test_copy_gets_fresh_id_and_meta(self):
        original = Packet(meta={"key": "value"})
        duplicate = original.copy()
        assert duplicate.packet_id != original.packet_id
        duplicate.meta["key"] = "changed"
        assert original.meta["key"] == "value"

    def test_latency(self):
        packet = Packet(created_at=1.0, delivered_at=1.5)
        assert packet.latency == pytest.approx(0.5)
        assert Packet().latency is None

    def test_payload_size(self):
        assert Packet(size=100).payload_size == 100 - 42
        assert Packet(size=10).payload_size == 0

    def test_defaults(self):
        packet = Packet()
        assert packet.direction is Direction.DOWNLINK
        assert packet.kind is PacketKind.DATA
        assert packet.teid is None


class TestByteBridge:
    def test_udp_roundtrip(self):
        flow = FiveTuple(
            src_ip=0x0A3C0001,
            dst_ip=0x08080808,
            src_port=40000,
            dst_port=53,
            protocol=PROTO_UDP,
        )
        packet = Packet(size=200, flow=flow, tos=0x28)
        recovered = Packet.from_bytes(packet.to_bytes())
        assert recovered.flow == flow
        assert recovered.size == packet.size
        assert recovered.tos == 0x28

    def test_tcp_roundtrip(self):
        flow = FiveTuple(
            src_ip=1, dst_ip=2, src_port=443, dst_port=50000,
            protocol=PROTO_TCP,
        )
        packet = Packet(size=128, flow=flow)
        recovered = Packet.from_bytes(packet.to_bytes())
        assert recovered.flow == flow

    def test_unsupported_protocol_raises(self):
        from repro.net.headers import IPv4Header

        ip = IPv4Header(src=1, dst=2, protocol=99, total_length=20)
        with pytest.raises(ValueError):
            Packet.from_bytes(ip.pack())
