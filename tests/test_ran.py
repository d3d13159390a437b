"""Tests for the UE state machine and the gNB model."""

import pytest

from repro.net import Packet
from repro.ran import CMState, GNodeB, PDUSession, RMState, UserEquipment
from repro.ran.ue import StateError
from repro.sim import Environment

from .test_sim_engine import count_steps


class TestUEStateMachine:
    def test_initial_state(self):
        ue = UserEquipment()
        assert ue.rm_state is RMState.DEREGISTERED
        assert ue.cm_state is CMState.IDLE

    def test_register(self):
        ue = UserEquipment()
        ue.register(gnb_id=1, guti="guti-1")
        assert ue.rm_state is RMState.REGISTERED
        assert ue.cm_state is CMState.CONNECTED
        assert ue.serving_gnb_id == 1

    def test_idle_wake_cycle(self):
        ue = UserEquipment()
        ue.register(1, "guti")
        ue.go_idle()
        assert ue.cm_state is CMState.IDLE
        ue.wake()
        assert ue.cm_state is CMState.CONNECTED

    def test_idle_while_deregistered_raises(self):
        with pytest.raises(StateError):
            UserEquipment().go_idle()

    def test_wake_while_deregistered_raises(self):
        with pytest.raises(StateError):
            UserEquipment().wake()

    def test_handover_requires_registration(self):
        with pytest.raises(StateError):
            UserEquipment().hand_over(2)

    def test_handover_moves_serving_gnb(self):
        ue = UserEquipment()
        ue.register(1, "guti")
        ue.hand_over(2)
        assert ue.serving_gnb_id == 2

    def test_session_requires_registration(self):
        with pytest.raises(StateError):
            UserEquipment().add_session(PDUSession(session_id=1))

    def test_session_lookup(self):
        ue = UserEquipment()
        ue.register(1, "guti")
        ue.add_session(PDUSession(session_id=1, ue_ip=5))
        assert ue.session(1).ue_ip == 5
        with pytest.raises(KeyError):
            ue.session(2)

    def test_deregister_clears_sessions(self):
        ue = UserEquipment()
        ue.register(1, "guti")
        ue.add_session(PDUSession(session_id=1))
        ue.deregister()
        assert ue.sessions == {}
        assert ue.rm_state is RMState.DEREGISTERED


class TestGNodeB:
    def _gnb_and_ue(self, **kwargs):
        env = Environment()
        gnb = GNodeB(env, gnb_id=1, address=100, **kwargs)
        ue = UserEquipment()
        ue.register(1, "guti")
        gnb.connect(ue)
        return env, gnb, ue

    def test_direct_delivery(self):
        env, gnb, ue = self._gnb_and_ue(radio_latency=0.001)
        packet = Packet(created_at=env.now)
        gnb.receive_downlink(packet, ue)
        env.run()
        assert len(ue.received) == 1
        assert ue.received[0].latency == pytest.approx(0.001)
        assert gnb.delivered == 1

    def test_buffering_holds_packets(self):
        env, gnb, ue = self._gnb_and_ue()
        gnb.start_buffering(ue)
        for _ in range(5):
            gnb.receive_downlink(Packet(), ue)
        env.run()
        assert ue.received == []
        assert len(gnb._buffers[ue.supi]) == 5

    def test_buffer_tail_drop(self):
        """Challenge 2: the gNB's buffer is small; overflow is loss."""
        env, gnb, ue = self._gnb_and_ue(buffer_packets=3)
        gnb.start_buffering(ue)
        for _ in range(10):
            gnb.receive_downlink(Packet(), ue)
        assert len(gnb._buffers[ue.supi]) == 3
        assert gnb.dropped == 7

    def test_default_buffer_is_about_2mb(self):
        """~1300 full-MTU packets per radio-connected UE."""
        env = Environment()
        gnb = GNodeB(env, gnb_id=1, address=1)
        assert gnb._buffer_capacity == 1300

    def test_drain_returns_in_order(self):
        env, gnb, ue = self._gnb_and_ue()
        gnb.start_buffering(ue)
        packets = [Packet(seq=i) for i in range(4)]
        for packet in packets:
            gnb.receive_downlink(packet, ue)
        drained = gnb.drain_buffer(ue)
        assert [packet.seq for packet in drained] == [0, 1, 2, 3]
        assert ue.supi not in gnb._buffers

    def test_drain_without_buffering_is_empty(self):
        env, gnb, ue = self._gnb_and_ue()
        assert gnb.drain_buffer(ue) == []

    def test_delivery_to_departed_ue_is_lost(self):
        env, gnb, ue = self._gnb_and_ue(radio_latency=0.001)
        gnb.receive_downlink(Packet(), ue)
        gnb.disconnect(ue)  # UE leaves before the air delivery lands
        env.run()
        assert ue.received == []
        assert gnb.dropped == 1

    def test_departure_mid_flight_loses_only_that_ues_packets(self):
        """Two UEs' packets share the air timer; who is still connected
        is decided per packet when it lands."""
        env, gnb, ue = self._gnb_and_ue(radio_latency=0.001)
        leaver = UserEquipment(supi="imsi-leaver")
        leaver.register(1, "guti-2")
        gnb.connect(leaver)
        for seq in range(2):
            gnb.receive_downlink(Packet(seq=seq), ue)
            gnb.receive_downlink(Packet(seq=seq), leaver)
        gnb.disconnect(leaver)
        assert count_steps(env) == 1
        assert [packet.seq for packet in ue.received] == [0, 1]
        assert leaver.received == []
        assert gnb.delivered == 2 and gnb.dropped == 2

    def test_one_sim_event_per_air_hop(self):
        """The DL packets land together, so they share the hop's timer."""
        env, gnb, ue = self._gnb_and_ue(radio_latency=0.001)
        for seq in range(5):
            gnb.receive_downlink(Packet(seq=seq), ue)
        assert count_steps(env) == 1
        assert [packet.seq for packet in ue.received] == list(range(5))
        assert {packet.delivered_at for packet in ue.received} == {0.001}

    def test_a_mixed_n3_batch_keeps_order_and_tail_drop(self):
        """One N3 batch, one buffering UE and one connected UE: the
        buffered packets stay off the air batch, each UE keeps its
        order, and the full buffer tail-drops."""
        env, gnb, ue = self._gnb_and_ue(radio_latency=0.001, buffer_packets=2)
        mover = UserEquipment(supi="imsi-mover")
        mover.register(1, "guti-2")
        gnb.connect(mover)
        gnb.start_buffering(mover)
        aired = []
        air = gnb._air_delivery

        def spy(items):
            items = list(items)
            aired.extend(packet.seq for packet, _ in items)
            air(iter(items))

        gnb._air_delivery = spy
        items = []
        for seq in range(4):
            items += [(Packet(seq=seq), mover), (Packet(seq=10 + seq), ue)]
        env.call_together(0.002, gnb.receive_downlink_batch, *items)
        assert count_steps(env) == 2
        assert aired == [10, 11, 12, 13]
        assert [packet.seq for packet in ue.received] == [10, 11, 12, 13]
        assert [packet.seq for packet in gnb.drain_buffer(mover)] == [0, 1]
        assert mover.received == []
        assert (gnb.delivered, gnb.dropped) == (4, 2)

    def test_an_all_buffered_n3_batch_adds_no_air_step(self):
        env, gnb, ue = self._gnb_and_ue()
        gnb.start_buffering(ue)
        items = [(Packet(seq=seq), ue) for seq in range(3)]
        env.call_together(0.002, gnb.receive_downlink_batch, *items)
        assert count_steps(env) == 1
        assert len(gnb._buffers[ue.supi]) == 3 and ue.received == []

    def test_a_zero_item_push_schedules_nothing(self):
        env, gnb, _ = self._gnb_and_ue()
        env.call_together(0.002, gnb.receive_downlink_batch)
        gnb.receive_downlink_batch(iter(()))
        assert env._heap == [] and env._batches == {}

    def test_teid_allocation_unique(self):
        env, gnb, _ = self._gnb_and_ue()
        teids = {gnb.allocate_dl_teid() for _ in range(100)}
        assert len(teids) == 100

