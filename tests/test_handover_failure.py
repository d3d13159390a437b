"""Tests for the handover preparation-failure (admission control) path."""

from repro.cp import HOState
from repro.net import Direction, FiveTuple, Packet
from repro.sim import Environment

from .test_cp_procedures import attached, run_ops


def refusing_target():
    """An attached UE whose handover target gNB admits nobody."""
    core, ue, detail = attached()
    core.gnbs[2].max_ues = 0
    return core, ue, detail


class TestAdmissionControl:
    def test_can_admit_semantics(self):
        from repro.ran import GNodeB, UserEquipment

        env = Environment()
        gnb = GNodeB(env, gnb_id=9, address=1, max_ues=1)
        first, second = UserEquipment("imsi-a"), UserEquipment("imsi-b")
        assert gnb.can_admit(first)
        gnb.connect(first)
        assert gnb.can_admit(first)  # already connected
        assert not gnb.can_admit(second)

    def test_refused_handover_cancels(self):
        core, ue, _ = refusing_target()
        [result] = run_ops(core, ue, ("handover", 2))
        assert result.event == "handover-cancelled"
        assert result.detail["cause"] == "no-resources"
        # The UE never moved.
        assert ue.serving_gnb_id == 1
        assert ue.supi in core.gnbs[1].connected
        assert ue.supi not in core.gnbs[2].connected
        sm = core.smf.context_for(ue.supi, 1)
        assert sm.ho_state is HOState.NONE
        assert sm.gnb_address == core.gnbs[1].address

    def test_data_still_flows_after_cancel(self):
        core, ue, detail = refusing_target()
        run_ops(core, ue, ("handover", 2))
        core.inject_downlink(
            Packet(direction=Direction.DOWNLINK,
                   flow=FiveTuple(src_ip=1, dst_ip=detail["ue_ip"],
                                  src_port=80, dst_port=4000),
                   created_at=core.env.now)
        )
        core.env.run()
        assert core.gnbs[1].delivered == 1

    def test_buffered_packets_released_on_cancel(self):
        """Traffic buffered during the failed preparation is not lost."""
        core, ue, _ = refusing_target()
        run_ops(core, ue, ("downlink", 500, 0.04), ("wait", 0.005),
                ("handover", 2))
        assert len(ue.received) == 20
        received = [packet.seq for packet in ue.received]
        assert received == sorted(received)

    def test_retry_succeeds_after_capacity_frees(self):
        core, ue, _ = refusing_target()
        [refused] = run_ops(core, ue, ("handover", 2))
        core.gnbs[2].max_ues = None  # capacity restored
        [admitted] = run_ops(core, ue, ("handover", 2))
        assert refused.event == "handover-cancelled"
        assert admitted.event == "handover"
        assert ue.serving_gnb_id == 2

    def test_cancel_cheaper_than_full_handover(self):
        core, ue, _ = refusing_target()
        [result] = run_ops(core, ue, ("handover", 2))
        # No radio sync happened: the cancel completes much faster.
        assert result.duration < 0.06
