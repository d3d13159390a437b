"""Tests for deployment: LB affinity, RSS, canary, placement."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.deploy import (
    CanaryController,
    FiveGCUnit,
    NodeSpec,
    PlacementEngine,
    RSSIndirection,
    ShardRouter,
    UEAwareLoadBalancer,
    UnitHandle,
    hash_five_tuple,
    toeplitz_hash,
    toeplitz_hash32,
)
from repro.net import Direction, FiveTuple, Packet
from repro.sim import Environment


def _ip(dotted):
    a, b, c, d = (int(part) for part in dotted.split("."))
    return (a << 24) | (b << 16) | (c << 8) | d


class TestLoadBalancer:
    def _lb(self, units=3, capacity=10):
        lb = UEAwareLoadBalancer()
        for unit_id in range(units):
            lb.add_unit(UnitHandle(unit_id=unit_id, capacity_sessions=capacity))
        return lb

    def test_balanced_assignment(self):
        lb = self._lb()
        for index in range(9):
            lb.assign(f"imsi-{index}")
        assert set(lb.distribution().values()) == {3}

    def test_affinity_stable(self):
        """§4: a UE session stays pinned to its 5GC unit."""
        lb = self._lb()
        first = lb.assign("imsi-A").unit_id
        for index in range(20):
            lb.assign(f"imsi-filler-{index}")
        assert lb.assign("imsi-A").unit_id == first
        # Affinity hits don't double-count sessions.
        assert sum(lb.distribution().values()) == 21

    def test_failed_unit_triggers_reassignment(self):
        lb = self._lb()
        unit = lb.assign("imsi-A").unit_id
        lb.mark_failed(unit)
        new_unit = lb.assign("imsi-A").unit_id
        assert new_unit != unit
        # And the new affinity is itself stable.
        assert lb.assign("imsi-A").unit_id == new_unit

    def test_capacity_exhaustion(self):
        lb = self._lb(units=1, capacity=2)
        assert lb.assign("imsi-1") is not None
        assert lb.assign("imsi-2") is not None
        assert lb.assign("imsi-3") is None
        assert lb.rejected == 1

    def test_release_frees_capacity(self):
        lb = self._lb(units=1, capacity=1)
        lb.assign("imsi-1")
        lb.release("imsi-1")
        assert lb.assign("imsi-2") is not None

    def test_duplicate_unit_rejected(self):
        lb = self._lb(units=1)
        with pytest.raises(ValueError):
            lb.add_unit(UnitHandle(unit_id=0))

    def test_unknown_release_is_counted_noop(self):
        """release() on a SUPI the LB never assigned must not raise and
        must not disturb the session counters."""
        lb = self._lb()
        lb.assign("imsi-A")
        before = lb.distribution()
        lb.release("imsi-never-assigned")
        assert lb.unknown_releases == 1
        assert lb.distribution() == before
        # Double release: the second one is the asymmetric case.
        lb.release("imsi-A")
        lb.release("imsi-A")
        assert lb.unknown_releases == 2
        assert sum(lb.distribution().values()) == 0

    def test_failover_then_release_does_not_underflow(self):
        """mark_failed re-homes the SUPI on the next assign; a release
        against the *old* unit must not double-decrement anything."""
        lb = self._lb()
        old_unit = lb.assign("imsi-A").unit_id
        lb.mark_failed(old_unit)
        new_unit = lb.assign("imsi-A").unit_id
        assert new_unit != old_unit
        assert lb.units[old_unit].sessions == 0
        lb.release("imsi-A")
        assert lb.units[new_unit].sessions == 0
        assert all(count >= 0 for count in lb.distribution().values())
        assert lb.unknown_releases == 0

    def test_failed_unit_sheds_counters_on_reassign(self):
        lb = self._lb(units=2, capacity=10)
        supis = [f"imsi-{index}" for index in range(6)]
        for supi in supis:
            lb.assign(supi)
        lb.mark_failed(0)
        for supi in supis:
            assert lb.assign(supi).unit_id == 1
        assert lb.units[0].sessions == 0
        assert lb.units[1].sessions == 6


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
        flow = FiveTuple(
            src_ip=_ip(src), dst_ip=_ip(dst), src_port=sport, dst_port=dport
        )
        assert hash_five_tuple(flow) == expected

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

    def test_same_flow_same_queue(self):
        rss = RSSIndirection(num_queues=8)
        flow = FiveTuple(src_ip=1, dst_ip=2, src_port=3, dst_port=4)
        assert rss.queue_for(flow) == rss.queue_for(flow)

    def test_flows_spread(self):
        rss = RSSIndirection(num_queues=4)
        queues = {
            rss.queue_for(
                FiveTuple(src_ip=index, dst_ip=index ^ 0xFFFF,
                          src_port=1000 + index, dst_port=443)
            )
            for index in range(200)
        }
        assert queues == {0, 1, 2, 3}

    def test_dispatch_preserves_flow_affinity(self):
        rss = RSSIndirection(num_queues=4)
        flow = FiveTuple(src_ip=1, dst_ip=2, src_port=3, dst_port=4)
        packets = [Packet(flow=flow) for _ in range(10)]
        queues = rss.dispatch(packets)
        non_empty = [queue for queue in queues if queue]
        assert len(non_empty) == 1 and len(non_empty[0]) == 10

    def test_invalid_queue_count(self):
        with pytest.raises(ValueError):
            RSSIndirection(num_queues=0)

    def test_dispatch_is_a_partition(self):
        """Every packet lands in exactly one queue; nothing is lost or
        duplicated across the indirection table."""
        rss = RSSIndirection(num_queues=4)
        packets = [
            Packet(
                flow=FiveTuple(
                    src_ip=0x0A000000 + index,
                    dst_ip=0x08080808,
                    src_port=1024 + index,
                    dst_port=443,
                )
            )
            for index in range(300)
        ]
        queues = rss.dispatch(packets)
        assert len(queues) == 4
        assert sum(len(queue) for queue in queues) == len(packets)
        seen = [packet for queue in queues for packet in queue]
        assert {id(packet) for packet in seen} == {
            id(packet) for packet in packets
        }
        for index, queue in enumerate(queues):
            for packet in queue:
                assert rss.queue_for(packet.flow) == index



class TestCanaryAndPlacement:
    def _controller(self):
        from repro.core import NetworkFunction, NFManager, NFStatus

        env = Environment()
        manager = NFManager(env)
        for instance_id, name in ((0, "v1"), (1, "v2")):
            nf = NetworkFunction(env, name, service_id=3,
                                 instance_id=instance_id)
            manager.register(nf)
            nf.status = NFStatus.RUNNING
        return manager, CanaryController(manager, service_id=3)

    def test_ramp_schedule(self):
        manager, controller = self._controller()
        for share in (0.05, 0.25, 0.5):
            controller.set_canary_share(share)
            picks = [manager.lookup(3).instance_id for _ in range(400)]
            assert picks.count(1) / 400 == pytest.approx(share, abs=0.01)
        assert controller.history == [0.05, 0.25, 0.5]

    def test_promote_and_rollback(self):
        manager, controller = self._controller()
        controller.set_canary_share(1.0)  # promote
        assert manager.lookup(3).instance_id == 1
        controller.set_canary_share(0.0)  # roll back
        assert manager.lookup(3).instance_id == 0

    def test_invalid_share(self):
        _, controller = self._controller()
        with pytest.raises(ValueError):
            controller.set_canary_share(1.5)

    def test_placement_same_node_affinity(self):
        env = Environment()
        nodes = [NodeSpec(node_id=0, cores=12), NodeSpec(node_id=1, cores=12)]
        engine = PlacementEngine(nodes)
        units = [FiveGCUnit(env, unit_id=i) for i in range(4)]
        placed = [engine.place(unit) for unit in units]
        assert all(node is not None for node in placed)
        # 6 cores per unit -> two per 12-core node.
        assert sorted(engine.utilization().values()) == [1.0, 1.0]

    def test_placement_rejects_when_full(self):
        env = Environment()
        engine = PlacementEngine([NodeSpec(node_id=0, cores=6)])
        assert engine.place(FiveGCUnit(env, unit_id=0)) is not None
        assert engine.place(FiveGCUnit(env, unit_id=1)) is None

    def test_unit_file_prefixes_unique(self):
        env = Environment()
        a = FiveGCUnit(env, unit_id=1)
        b = FiveGCUnit(env, unit_id=2)
        assert a.file_prefix != b.file_prefix

    def test_node_fits_boundary(self):
        node = NodeSpec(node_id=0, cores=FiveGCUnit.CORES_REQUIRED)
        assert node.fits(FiveGCUnit.CORES_REQUIRED)
        assert not node.fits(FiveGCUnit.CORES_REQUIRED + 1)
        node.used_cores = 1
        assert not node.fits(FiveGCUnit.CORES_REQUIRED)

    def test_placement_prefers_most_free_node(self):
        env = Environment()
        nodes = [
            NodeSpec(node_id=0, cores=12, used_cores=6),
            NodeSpec(node_id=1, cores=12),
        ]
        engine = PlacementEngine(nodes)
        placed = engine.place(FiveGCUnit(env, unit_id=0))
        assert placed is not None and placed.node_id == 1

    def test_utilization_reflects_partial_fill(self):
        env = Environment()
        engine = PlacementEngine([NodeSpec(node_id=0, cores=12)])
        engine.place(FiveGCUnit(env, unit_id=0))
        assert engine.utilization() == {0: 0.5}

    def test_canary_share_of_zero_restores_stable(self):
        manager, controller = self._controller()
        controller.set_canary_share(0.0)
        picks = {manager.lookup(3).instance_id for _ in range(50)}
        assert picks == {0}
