"""Tests for deployment: Toeplitz RSS, shard dispatch, canary weights."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.deploy import ShardRouter, toeplitz_hash, toeplitz_hash32
from repro.net import Direction, FiveTuple, Packet
from repro.sim import Environment


def _ip(dotted):
    a, b, c, d = (int(part) for part in dotted.split("."))
    return (a << 24) | (b << 16) | (c << 8) | d


class TestToeplitzKnownAnswers:
    """Microsoft's RSS verification suite (the de-facto conformance
    vectors for the default key) — TCP/IPv4 and IPv4-only inputs."""

    TCP_VECTORS = [
        ("66.9.149.187", 2794, "161.142.100.80", 1766, 0x51CCC178),
        ("199.92.111.2", 14230, "65.69.140.83", 4739, 0xC626B0EA),
        ("24.19.198.95", 12898, "12.22.207.184", 38024, 0x5C2B394A),
        ("38.27.205.30", 48228, "209.142.163.6", 2217, 0xAFC7327F),
        ("153.39.163.191", 44251, "202.188.127.2", 1303, 0x10E828A2),
    ]

    @pytest.mark.parametrize(
        "src, sport, dst, dport, expected",
        TCP_VECTORS,
        ids=[vec[0] for vec in TCP_VECTORS],
    )
    def test_tcp_ipv4_vectors(self, src, sport, dst, dport, expected):
        # RSS input for TCP over IPv4: src ip, dst ip, src port, dst port.
        data = struct.pack("!IIHH", _ip(src), _ip(dst), sport, dport)
        assert toeplitz_hash(data) == expected

    def test_ipv4_only_vector(self):
        data = struct.pack("!II", _ip("66.9.149.187"), _ip("161.142.100.80"))
        assert toeplitz_hash(data) == 0x323E8FC2

    def test_hash32_matches_generic_toeplitz(self):
        """The byte-table fast form is bit-identical to the reference."""
        for value in (0, 1, 0x1000, 0xDEADBEEF, 0xFFFFFFFF, _ip("10.60.0.1")):
            assert toeplitz_hash32(value) == toeplitz_hash(
                struct.pack("!I", value)
            )

    def test_hash32_is_linear_over_gf2(self):
        """hash(a ^ b) == hash(a) ^ hash(b) — the property the sharded
        deployment's TEID steering stands on."""
        a, b = 0x12345678, 0x9ABCDEF0
        assert toeplitz_hash32(a ^ b) == (
            toeplitz_hash32(a) ^ toeplitz_hash32(b)
        )
        assert toeplitz_hash32(0) == 0


#: A non-default RSS key (40 bytes, like the Microsoft one).
_OTHER_KEY = bytes((index * 37 + 11) & 0xFF for index in range(40))
_ROUTERS = {size: ShardRouter(4, size, _OTHER_KEY) for size in (1, 8, 128)}
_WORDS = st.integers(min_value=0, max_value=0xFFFFFFFF)


class TestShardRouterTables:
    """``ShardRouter`` dispatches through four precomputed byte tables;
    they must equal the masked reference hash for any key and size."""

    @given(value=_WORDS, size=st.sampled_from(sorted(_ROUTERS)))
    def test_bucket_of_is_the_masked_reference_hash(self, value, size):
        assert _ROUTERS[size].bucket_of(value) == (
            toeplitz_hash32(value, _OTHER_KEY) & (size - 1)
        )

    @given(
        teid=st.integers(min_value=1, max_value=0xFFFFFFFF),
        ue_ip=_WORDS,
        size=st.sampled_from(sorted(_ROUTERS)),
    )
    def test_shard_for_packet_reads_the_table_at_bucket_of(
        self, teid, ue_ip, size
    ):
        router = _ROUTERS[size]
        up_flow = FiveTuple(src_ip=ue_ip, dst_ip=_ip("8.8.8.8"))
        down_flow = FiveTuple(src_ip=_ip("8.8.8.8"), dst_ip=ue_ip)
        ul = Packet(direction=Direction.UPLINK, teid=teid, flow=up_flow)
        dl = Packet(direction=Direction.DOWNLINK, flow=down_flow)
        bare = Packet(direction=Direction.UPLINK, flow=up_flow)
        table = router.table
        assert router.shard_for_packet(ul) == table[router.bucket_of(teid)]
        assert router.shard_for_packet(dl) == table[router.bucket_of(ue_ip)]
        assert router.shard_for_packet(bare) == table[router.bucket_of(0)]


class TestRSS:
    def test_toeplitz_deterministic(self):
        data = b"\x0a\x00\x00\x01\x08\x08\x08\x08\x9c\x40\x01\xbb"
        assert toeplitz_hash(data) == toeplitz_hash(data)

    def test_toeplitz_key_too_short(self):
        with pytest.raises(ValueError):
            toeplitz_hash(b"x" * 64, key=b"short")


class TestCanaryAndPlacement:
    """Canary rollout through the NF manager's instance weights."""

    def _manager(self):
        from repro.core import NetworkFunction, NFManager, NFStatus

        env = Environment()
        manager = NFManager(env)
        for instance_id, name in ((0, "v1"), (1, "v2")):
            nf = NetworkFunction(env, name, service_id=3,
                                 instance_id=instance_id)
            manager.register(nf)
            nf.status = NFStatus.RUNNING
        return manager

    def test_ramp_schedule(self):
        manager = self._manager()
        for share in (0.05, 0.25, 0.5):
            manager.set_canary_weights(3, {0: 1.0 - share, 1: share})
            picks = [manager.lookup(3).instance_id for _ in range(400)]
            assert picks.count(1) / 400 == pytest.approx(share, abs=0.01)

    def test_promote_and_rollback(self):
        manager = self._manager()
        manager.set_canary_weights(3, {0: 0.0, 1: 1.0})  # promote
        assert manager.lookup(3).instance_id == 1
        manager.set_canary_weights(3, {0: 1.0, 1: 0.0})  # roll back
        assert manager.lookup(3).instance_id == 0

    def test_canary_share_of_zero_restores_stable(self):
        manager = self._manager()
        manager.set_canary_weights(3, {0: 1.0, 1: 0.0})
        picks = {manager.lookup(3).instance_id for _ in range(50)}
        assert picks == {0}
