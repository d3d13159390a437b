"""Tests for the pcap trace writer and network slicing."""

import io

import pytest

from repro.deploy import NetworkSlice, SliceManager, SNssai
from repro.net import (
    FiveTuple,
    GTPUHeader,
    IPv4Header,
    Packet,
    PcapWriter,
    UDPHeader,
    read_pcap,
    write_gtp_trace,
)
from repro.net.gtp import GTPU_PORT


class TestPcap:
    def _packet(self, seq=0):
        return Packet(
            size=128,
            seq=seq,
            created_at=seq * 0.001,
            flow=FiveTuple(src_ip=0x0A3C0001, dst_ip=0x08080808,
                           src_port=40000, dst_port=443),
        )

    def test_roundtrip(self):
        buffer = io.BytesIO()
        writer = PcapWriter(buffer)
        writer.write_packet(self._packet(0))
        writer.write_packet(self._packet(1))
        buffer.seek(0)
        frames = read_pcap(buffer)
        assert len(frames) == 2
        assert frames[0][0] == pytest.approx(0.0)
        assert frames[1][0] == pytest.approx(0.001)

    def test_frames_parse_as_ethernet_ip(self):
        from repro.net import EthernetHeader

        buffer = io.BytesIO()
        PcapWriter(buffer).write_packet(self._packet())
        buffer.seek(0)
        ((_, frame),) = read_pcap(buffer)
        eth, rest = EthernetHeader.unpack(frame)
        ip, _ = IPv4Header.unpack(rest)
        assert ip.src == 0x0A3C0001

    def test_gtp_trace_has_gtp_headers(self):
        """The artifact's trace format: GTP-U/UDP/IP outer headers."""
        buffer = io.BytesIO()
        count = write_gtp_trace(
            buffer,
            [self._packet(i) for i in range(5)],
            teid=0xABC,
            upf_address=10,
            gnb_address=20,
        )
        assert count == 5
        buffer.seek(0)
        frames = read_pcap(buffer)
        from repro.net import EthernetHeader

        _eth, rest = EthernetHeader.unpack(frames[0][1])
        outer_ip, rest = IPv4Header.unpack(rest)
        assert (outer_ip.src, outer_ip.dst) == (10, 20)
        udp, rest = UDPHeader.unpack(rest)
        assert udp.dst_port == GTPU_PORT
        gtp, inner = GTPUHeader.unpack(rest)
        assert gtp.teid == 0xABC
        inner_ip, _ = IPv4Header.unpack(inner)
        assert inner_ip.dst == 0x08080808

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            read_pcap(io.BytesIO(b"\x00" * 24))

    def test_timestamp_microsecond_carry(self):
        buffer = io.BytesIO()
        writer = PcapWriter(buffer)
        writer.write(0.9999999, b"x" * 20)
        buffer.seek(0)
        ((when, _),) = read_pcap(buffer)
        assert when == pytest.approx(1.0, abs=1e-6)


class TestSlicing:
    def _manager(self):
        manager = SliceManager()
        embb = manager.create_slice(SNssai(sst=1, sd="010203"))
        urllc = manager.create_slice(SNssai(sst=2, sd="000001"))
        return manager, embb, urllc

    def test_service_id_blocks_disjoint(self):
        manager, embb, urllc = self._manager()
        assert manager.service_blocks_disjoint()
        embb_ids = {embb.service_id(i) for i in range(16)}
        urllc_ids = {urllc.service_id(i) for i in range(16)}
        assert embb_ids.isdisjoint(urllc_ids)

    def test_service_id_out_of_block(self):
        _, embb, _ = self._manager()
        with pytest.raises(ValueError):
            embb.service_id(16)

    def test_duplicate_slice_rejected(self):
        manager, _, _ = self._manager()
        with pytest.raises(ValueError):
            manager.create_slice(SNssai(sst=1, sd="010203"))

    def test_selection_uses_subscription(self):
        manager, embb, urllc = self._manager()
        manager.subscribe("imsi-1", embb.snssai)
        manager.subscribe("imsi-1", urllc.snssai)
        assert manager.select("imsi-1") is embb  # default = first subscribed
        assert manager.select("imsi-1", requested=urllc.snssai) is urllc

    def test_unsubscribed_slice_rejected(self):
        manager, embb, urllc = self._manager()
        manager.subscribe("imsi-1", embb.snssai)
        with pytest.raises(PermissionError):
            manager.select("imsi-1", requested=urllc.snssai)

    def test_unknown_ue_rejected(self):
        manager, _, _ = self._manager()
        with pytest.raises(KeyError):
            manager.select("imsi-ghost")

    def test_subscription_idempotent(self):
        manager, embb, _ = self._manager()
        manager.subscribe("imsi-1", embb.snssai)
        manager.subscribe("imsi-1", embb.snssai)
        assert manager.subscribed("imsi-1") == [embb.snssai]
