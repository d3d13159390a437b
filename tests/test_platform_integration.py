"""The UPF-U running as a real NF on the shared-memory platform.

Everything else drives the UPF through its direct API; this exercises
the ONVM-style path: packets injected at the manager, descriptors
through Rx/Tx rings, poll-mode processing with per-packet simulated
CPU cost, and manager routing of the output.
"""

import pytest

from repro.core import DEFAULT_COSTS, NFManager, NFStatus, PacketAction
from repro.net import Direction, FiveTuple, Packet
from repro.pfcp.builder import build_session_establishment
from repro.sim import MS, Environment
from repro.up import SessionTable, UPFControlPlane, UPFUserPlane

UE_IP = 0x0A3C0001


def build_platform(fast_path=True, burst_size=1):
    env = Environment()
    manager = NFManager(env, pool_size=4096)
    table = SessionTable()
    delivered = []
    upf_u = UPFUserPlane(
        env,
        table,
        service_id=2,
        downlink_sink=lambda p, t, a: delivered.append(p),
        fast_path=fast_path,
        burst_size=burst_size,
    )
    upf_c = UPFControlPlane(table, upf_u=upf_u, address=1)
    upf_c.handle(
        build_session_establishment(
            seid=1, sequence=1, ue_ip=UE_IP, upf_address=1,
            ul_teid=0x100, gnb_address=2, dl_teid=0x500,
        )
    )
    manager.register(upf_u)
    upf_u.start()
    manager.start()
    return env, manager, upf_u, delivered


def dl_packet(seq=0, size=128):
    return Packet(
        size=size,
        seq=seq,
        direction=Direction.DOWNLINK,
        flow=FiveTuple(src_ip=1, dst_ip=UE_IP, src_port=80, dst_port=4000),
    )


class TestUPFOnPlatform:
    def test_packets_flow_through_rings(self):
        env, manager, upf_u, delivered = build_platform()
        for seq in range(50):
            assert manager.inject(dl_packet(seq), service_id=2)
        env.run(until=10 * MS)
        assert len(delivered) == 50
        assert [p.seq for p in delivered] == list(range(50))
        assert upf_u.handled == 50
        # All descriptors returned to the pool.
        assert manager.pool.in_use == 0

    @pytest.mark.parametrize("burst_size", [1, 32])
    def test_every_packet_is_conserved_at_the_modeled_instant(
        self, burst_size
    ):
        """Mixed sizes through the Rx ring, the poll loop and the pool:
        each packet delivered once, in order, each descriptor back in
        the pool exactly once, and the last packet handled at the
        instant the per-descriptor costs give when added in order."""
        env, manager, upf_u, delivered = build_platform(burst_size=burst_size)
        finished = []

        def sink(packet, teid, address):
            delivered.append(packet)
            finished.append(env.now)

        returned = []  # every descriptor handed to handle / handle_burst
        handle, handle_burst = upf_u.handle, upf_u.handle_burst

        def record_one(descriptor):
            returned.append(descriptor)
            return handle(descriptor)

        def record_batch(descriptors):
            returned.extend(descriptors)
            return handle_burst(descriptors)

        upf_u.downlink_sink = sink
        upf_u.handle, upf_u.handle_burst = record_one, record_batch
        count = 96
        sizes = [(64, 128, 1500)[seq % 3] for seq in range(count)]
        for seq, size in enumerate(sizes):
            assert manager.inject(dl_packet(seq, size), service_id=2)
        env.run(until=10 * MS)

        assert [p.seq for p in delivered] == list(range(count))
        assert upf_u.handled == count
        assert manager.pool.in_use == 0
        assert upf_u.rx_ring.enqueued == upf_u.rx_ring.dequeued == count
        # The poll loop charges each drained batch as one timeout: the
        # batch's costs summed one descriptor at a time, in order.
        expected = 0.0
        for begin in range(0, count, burst_size):
            work = 0.0
            for size in sizes[begin:begin + burst_size]:
                work += DEFAULT_COSTS.per_packet_cost(True, size)
            expected += work
        assert finished[-1] == expected
        assert len(returned) == count
        held = manager.pool.alloc()  # the pool is no longer full
        for descriptor in returned:
            if descriptor is not held:
                with pytest.raises(ValueError, match="double free"):
                    descriptor.free()

    @pytest.mark.parametrize("fast_path", [True, False], ids=["dpdk", "kernel"])
    def test_poll_loop_charges_per_packet_cost(self, fast_path):
        """A burst's drain time reflects the calibrated per-packet CPU
        cost of the selected path."""
        env, manager, upf_u, delivered = build_platform(fast_path)
        drain_done = {}

        def watch():
            while upf_u.handled < 200:
                yield env.timeout(10e-6)
            drain_done["at"] = env.now

        env.process(watch())
        for seq in range(200):
            manager.inject(dl_packet(seq, size=1500), service_id=2)
        env.run(until=50 * MS)
        assert len(delivered) == 200
        cpu = 200 * DEFAULT_COSTS.per_packet_cost(fast_path, 1500)
        # The burst cannot drain faster than its total CPU time, and
        # should finish within a small multiple of it.
        assert drain_done["at"] >= cpu
        assert drain_done["at"] <= 3 * cpu + 1 * MS

    def test_frozen_upf_routes_around(self):
        """The manager routes only to RUNNING instances: freezing the
        sole UPF drops new traffic (a frozen *replica* never receives
        traffic while the primary serves — §3.5 semantics)."""
        env, manager, upf_u, delivered = build_platform()
        manager.inject(dl_packet(0), service_id=2)
        env.run(until=5 * MS)
        assert len(delivered) == 1
        upf_u.freeze()
        assert not manager.inject(dl_packet(1), service_id=2)
        assert manager.dropped == 1
        upf_u.unfreeze()
        assert manager.inject(dl_packet(2), service_id=2)
        env.run(until=25 * MS)
        assert len(delivered) == 2

    def test_ring_overflow_drops(self):
        """A burst faster than the NF drains tail-drops at the Rx
        ring; injections all land at one simulated instant, so the NF
        cannot run in between."""
        env, manager, upf_u, delivered = build_platform()
        accepted = sum(
            1
            for seq in range(3000)
            if manager.inject(dl_packet(seq), service_id=2)
        )
        assert accepted == upf_u.rx_ring.capacity
        assert manager.dropped == 3000 - accepted
        env.run(until=50 * MS)
        assert len(delivered) == accepted  # the admitted burst survives

    def test_canary_upf_rollout(self):
        """Two UPF-U instances behind one service id with a 50/50
        split — the canary deployment of §4 on the real data path."""
        env = Environment()
        manager = NFManager(env, pool_size=4096)
        table = SessionTable()
        counts = {}
        instances = []
        for instance_id in (0, 1):
            upf = UPFUserPlane(
                env,
                table,
                service_id=2,
                name=f"upf-u-v{instance_id}",
                instance_id=instance_id,
            )
            upf_c = UPFControlPlane(table, upf_u=upf, address=1)
            manager.register(upf)
            upf.start()
            instances.append(upf)
        UPFControlPlane(table, upf_u=instances[0], address=1).handle(
            build_session_establishment(
                seid=1, sequence=1, ue_ip=UE_IP, upf_address=1,
                ul_teid=0x100, gnb_address=2, dl_teid=0x500,
            )
        )
        manager.set_canary_weights(2, {0: 0.5, 1: 0.5})
        manager.start()
        for seq in range(100):
            manager.inject(dl_packet(seq), service_id=2)
        env.run(until=20 * MS)
        assert instances[0].handled == 50
        assert instances[1].handled == 50
