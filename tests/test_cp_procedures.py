"""Tests for the 3GPP procedures on the assembled core."""

import hashlib

import pytest

from repro.cp import (
    FiveGCore,
    HOState,
    ProcedureRunner,
    RegistrationState,
    SystemConfig,
    scenario,
)
from repro.core import Channel
from repro.cp.nfs import AUSF
from repro.cp.scenario import ATTACH
from repro.net import Direction, FiveTuple, Packet
from repro.pfcp import (
    CAUSE_REQUEST_REJECTED,
    PFCPMessage,
    SessionReportResponse,
    build_buffering_update,
    build_downlink_report,
    build_session_establishment,
)
from repro.pfcp.ies import CauseIE, FTeidIE
from repro.ran import CMState, RMState
from repro.sim import Environment

from .test_sim_engine import count_steps


SUPI = "imsi-208930000000003"


def build(config=None):
    env = Environment()
    core = FiveGCore(env, config or SystemConfig.l25gc())
    runner = ProcedureRunner(core)
    ue = core.add_ue(SUPI)
    return env, core, runner, ue


def attached(config=None, supi=SUPI):
    """A core whose UE holds PDU session 1: ``(core, ue, its detail)``."""
    core = FiveGCore(Environment(), config or SystemConfig.l25gc())
    _, (_, session) = scenario.run(core, {supi: ATTACH})
    return core, core.ues[supi], session.detail


def run_ops(core, ue, *ops):
    """Run one UE's operations; their results, in order."""
    return [result for _, result in scenario.run(core, {ue.supi: ops})]


def run_procedures(env, *procedures):
    results = []

    def drive():
        for procedure in procedures:
            results.append((yield from procedure))

    env.process(drive())
    env.run()
    return results


class TestRegistration:
    def test_states_after_registration(self):
        env, core, runner, ue = build()
        (result,) = run_procedures(env, runner.register_ue(ue, gnb_id=1))
        assert ue.rm_state is RMState.REGISTERED
        assert ue.cm_state is CMState.CONNECTED
        assert ue.guti is not None
        amf_ctx = core.amf.context(ue.supi)
        assert amf_ctx.state is RegistrationState.REGISTERED
        assert amf_ctx.serving_gnb_id == 1
        assert result.event == "registration"
        assert result.duration > 0

    def test_policy_created(self):
        env, core, runner, ue = build()
        run_procedures(env, runner.register_ue(ue))
        assert ue.supi in core.pcf.am_policies

    def test_messages_counted(self):
        env, core, runner, ue = build()
        (result,) = run_procedures(env, runner.register_ue(ue))
        assert result.messages == core.bus.total_messages()
        assert result.messages >= 20  # auth + security + policy + accept

    @pytest.mark.parametrize("access", ["3gpp", "non3gpp"])
    def test_authentication_is_confirmed(self, access):
        """The AUSF checks the UE's RES* / AT_RES and hands the AMF the
        KSEAF it derives: no vector stays pending."""
        env, core, runner, ue = build()
        key = core.udm.subscriber_key(ue.supi)
        if access == "3gpp":
            procedure = runner.register_ue(ue)
            vector = AUSF().challenge(
                ue.supi, "5G:mnc093.mcc208.3gppnetwork.org", key
            )
        else:
            core.add_n3iwf(100)
            procedure = runner.register_ue_non3gpp(ue, n3iwf_id=100)
            vector = AUSF().eap_aka_prime_challenge(
                ue.supi, "5G:NR:non3gpp", key
            )
        run_procedures(env, procedure)
        assert core.ausf.pending == {}
        kseaf = hashlib.sha256(
            f"kseaf|{vector.kausf}".encode()
        ).hexdigest()[:32]
        assert core.amf.context(ue.supi).security_context == kseaf


class TestSessionEstablishment:
    def test_session_state(self):
        env, core, runner, ue = build()
        results = run_procedures(
            env, runner.register_ue(ue), runner.establish_session(ue)
        )
        session_result = results[1]
        detail = session_result.detail
        assert detail["ue_ip"] != 0
        # The UPF has the session installed under both keys.
        session = core.sessions.by_seid(detail["seid"])
        assert session is not None
        assert core.sessions.by_teid(detail["ul_teid"]) is session
        assert core.sessions.by_ue_ip(detail["ue_ip"]) is session
        # And the UE knows its session.
        assert ue.session(1).ue_ip == detail["ue_ip"]

    def test_data_flows_after_establishment(self):
        env, core, runner, ue = build()
        results = run_procedures(
            env, runner.register_ue(ue), runner.establish_session(ue)
        )
        detail = results[1].detail
        core.inject_downlink(
            Packet(
                direction=Direction.DOWNLINK,
                flow=FiveTuple(src_ip=0x08080808, dst_ip=detail["ue_ip"],
                               src_port=80, dst_port=4000),
                created_at=env.now,
            )
        )
        core.inject_uplink(
            Packet(teid=detail["ul_teid"],
                   flow=FiveTuple(src_ip=detail["ue_ip"], dst_ip=0x08080808,
                                  src_port=4000, dst_port=80))
        )
        env.run()
        assert len(ue.received) == 1
        assert len(core.dn_received) == 1

    def test_unique_ue_ips(self):
        core = FiveGCore(Environment(), SystemConfig.l25gc())
        results = scenario.run(core, {
            f"imsi-20893000000000{i}": ATTACH for i in range(2)})
        ips = {result.detail["ue_ip"] for _, result in results
               if result.event == "session-request"}
        assert len(ips) == 2


class TestIdleAndPaging:
    def _idle_ue(self):
        core, ue, _ = attached()
        run_ops(core, ue, ("idle",))
        return core.env, core, ue

    def test_idle_buffers_downlink(self):
        env, core, ue = self._idle_ue()
        assert ue.cm_state is CMState.IDLE
        session = core.sessions.sessions()[0]
        core.inject_downlink(
            Packet(
                direction=Direction.DOWNLINK,
                flow=FiveTuple(src_ip=0x08080808,
                               dst_ip=session.ue_ip,
                               src_port=80, dst_port=4000),
                created_at=env.now,
            )
        )
        assert len(session.buffer) == 1
        assert ue.received == []

    def test_report_triggers_paging_hook(self):
        env, core, ue = self._idle_ue()
        session = core.sessions.sessions()[0]
        reports = []
        core.on_report = reports.append
        core.inject_downlink(
            Packet(direction=Direction.DOWNLINK,
                   flow=FiveTuple(src_ip=1, dst_ip=session.ue_ip),
                   created_at=env.now)
        )
        env.run()
        assert len(reports) == 1
        assert reports[0].seid == session.seid

    def test_paging_wakes_and_drains(self):
        env, core, ue = self._idle_ue()
        session = core.sessions.sessions()[0]
        run_ops(core, ue, ("downlink", 1000, 0.001), ("report",), ("page",))
        assert ue.cm_state is CMState.CONNECTED
        assert len(ue.received) == 1
        assert len(session.buffer) == 0


class TestDownlinkDeliveryPath:
    """N6 -> UPF-U -> N3 hop -> gNB -> air hop -> UE: two timers per
    injection instant, shared by every packet that crosses together."""

    def _connected_ue(self, config=None):
        core, ue, _ = attached(config)
        return core.env, core, ue, core.sessions.sessions()[0]

    @staticmethod
    def _packets(env, session, count):
        return [
            Packet(direction=Direction.DOWNLINK, seq=seq,
                   flow=FiveTuple(src_ip=1, dst_ip=session.ue_ip,
                                  src_port=80, dst_port=4000),
                   created_at=env.now)
            for seq in range(count)
        ]

    @staticmethod
    def _record_sends(env, core):
        """seq -> (sim time the UPF-U released it, its drain delay)."""
        sent = {}
        sink = core.upf_u.downlink_sink

        def spy(packet, teid, address):
            sent[packet.seq] = (env.now, packet.meta.get("extra_delay", 0.0))
            sink(packet, teid, address)

        core.upf_u.downlink_sink = spy
        return sent

    @staticmethod
    def _expected_arrival(core, gnb, sent_at, extra_delay):
        n3 = (
            core.costs.forward_latency(core.config.fast_path, len(core.sessions))
            + core.costs.lan_propagation
            + extra_delay
        )
        return sent_at + n3 + gnb.radio_latency

    @pytest.mark.parametrize("burst_size", [1, 32])
    def test_two_steps_per_packet_in_injection_order(self, burst_size):
        """Two steps per injection *instant*: the 50 packets (50 bursts
        of 1, or 32 + 18) leave the UPF-U at one instant, so they share
        the N3 timer and then the air timer."""
        env, core, ue, session = self._connected_ue(
            SystemConfig(burst_size=burst_size, flow_cache=True)
        )
        core.inject_downlink_burst(self._packets(env, session, 50))
        assert count_steps(env) == 2
        assert [packet.seq for packet in ue.received] == list(range(50))
        assert core.gnbs[1].delivered == 50
        # A second instant is a second pair of timers.
        env.run(until=env.now + 1.0)
        core.inject_downlink_burst(self._packets(env, session, 50))
        assert count_steps(env) == 2
        assert core.gnbs[1].delivered == 100

    def test_delivery_time_is_the_sum_of_the_two_hops(self):
        env, core, ue, session = self._connected_ue()
        sent = self._record_sends(env, core)
        core.inject_downlink_burst(self._packets(env, session, 3))
        env.run()
        assert len(ue.received) == 3
        for packet in ue.received:
            sent_at, extra_delay = sent[packet.seq]
            assert extra_delay == 0.0
            assert packet.delivered_at == self._expected_arrival(
                core, core.gnbs[1], sent_at, extra_delay
            )

    def test_drained_packets_carry_their_extra_delay(self):
        env, core, ue, session = self._connected_ue()
        run_ops(core, ue, ("idle",))
        core.inject_downlink_burst(self._packets(env, session, 3))
        assert len(session.buffer) == 3
        sent = self._record_sends(env, core)
        run_ops(core, ue, ("page",))
        assert [packet.seq for packet in ue.received] == [0, 1, 2]
        delays = [sent[seq][1] for seq in range(3)]
        assert 0.0 < delays[0] < delays[1] < delays[2]
        for packet in ue.received:
            assert "extra_delay" not in packet.meta
            assert packet.delivered_at == self._expected_arrival(
                core, core.gnbs[1], *sent[packet.seq]
            )

    def test_n3_delay_follows_the_session_count_between_bursts(self):
        """The hop delay is kept per session count; a count change
        between two bursts must show in the second one's arrivals."""
        env, core, ue, session = self._connected_ue()
        sent = self._record_sends(env, core)

        def hop_times():
            ue.received.clear()
            core.inject_downlink_burst(self._packets(env, session, 3))
            env.run()
            assert len(ue.received) == 3
            for packet in ue.received:
                assert packet.delivered_at == self._expected_arrival(
                    core, core.gnbs[1], *sent[packet.seq]
                )
            return {p.delivered_at - sent[p.seq][0] for p in ue.received}

        alone = hop_times()
        other = core.add_ue("imsi-208930000000004")
        run_ops(core, other, *ATTACH)
        assert len(core.sessions) == 2
        shared = hop_times()
        assert len(alone) == len(shared) == 1 and alone != shared

    def test_unrouted_downlink_is_counted_not_scheduled(self):
        env, core, ue, session = self._connected_ue()
        registry = core.metrics_registry()
        core.dl_routes.clear()
        core.inject_downlink_burst(self._packets(env, session, 4))
        assert not env._heap  # nothing scheduled
        assert core.dl_unrouted == 4
        assert registry["n3.dl_unrouted"].value == 4
        assert ue.received == [] and core.gnbs[1].dropped == 0

    def test_gnb_buffering_is_decided_at_n3_arrival(self):
        env, core, ue, session = self._connected_ue()
        gnb = core.gnbs[1]
        core.inject_downlink_burst(self._packets(env, session, 2))
        gnb.start_buffering(ue)  # after the send, before the N3 arrival
        env.run()
        assert len(gnb._buffers[ue.supi]) == 2
        assert ue.received == [] and gnb.delivered == 0

    def test_ue_departure_is_decided_at_air_arrival(self):
        env, core, ue, session = self._connected_ue()
        gnb = core.gnbs[1]
        sent = self._record_sends(env, core)
        core.inject_downlink_burst(self._packets(env, session, 2))
        arrival = self._expected_arrival(core, gnb, *sent[0])
        env.run(until=arrival - gnb.radio_latency / 2)  # mid air hop
        assert gnb.delivered == 0 and gnb.dropped == 0
        gnb.disconnect(ue)
        env.run()
        assert ue.received == []
        assert gnb.dropped == 2

    def test_a_shared_timer_still_decides_per_packet_at_arrival(self):
        """Two UEs' packets cross both hops in one batch; the gNB starts
        buffering for one of them mid-N3: only that UE's are held."""
        env, core, ue, session = self._connected_ue()
        other = core.add_ue("imsi-208930000000004")
        run_ops(core, other, *ATTACH)
        gnb = core.gnbs[1]
        packets = [
            packet
            for upf_session in core.sessions.sessions()
            for packet in self._packets(env, upf_session, 2)
        ]
        core.inject_downlink_burst(packets)
        gnb.start_buffering(other)  # after the send, before the N3 arrival
        assert count_steps(env) == 2
        assert len(gnb._buffers[other.supi]) == 2 and other.received == []
        assert [packet.seq for packet in ue.received] == [0, 1]
        assert gnb.delivered == 2 and gnb.dropped == 0


class TestHandover:
    #: 30 downlink packets 10 ms apart; the handover starts at 50 ms.
    MID_TRAFFIC = [("downlink", 100, 0.3), ("wait", 0.05), ("handover", 2)]

    def test_handover_moves_ue_and_path(self):
        core, ue, _ = attached()
        [result] = run_ops(core, ue, ("handover", 2))
        assert ue.serving_gnb_id == 2
        assert ue.supi in core.gnbs[2].connected
        assert ue.supi not in core.gnbs[1].connected
        sm = core.smf.context_for(ue.supi, 1)
        assert sm.ho_state is HOState.COMPLETED
        assert sm.gnb_address == core.gnbs[2].address
        assert sm.dl_teid == result.detail["target_dl_teid"]

    def test_data_follows_to_target(self):
        core, ue, _ = attached()
        run_ops(core, ue, ("handover", 2))
        session = core.sessions.sessions()[0]
        core.inject_downlink(
            Packet(direction=Direction.DOWNLINK,
                   flow=FiveTuple(src_ip=1, dst_ip=session.ue_ip,
                                  src_port=80, dst_port=4000),
                   created_at=core.env.now)
        )
        core.env.run()
        assert core.gnbs[2].delivered == 1
        assert core.gnbs[1].delivered == 0

    def test_smart_buffering_holds_during_handover(self):
        """L25GC: DL packets arriving mid-handover are buffered at the
        UPF and delivered, in order, after the path switch."""
        core, ue, _ = attached()
        run_ops(core, ue, *self.MID_TRAFFIC)
        received = [packet.seq for packet in ue.received]
        assert received == sorted(received)  # in-order delivery (§3.3)
        assert len(received) == 30  # nothing lost
        assert core.upf_u.stats.buffered > 0

    def test_3gpp_mode_buffers_at_source_gnb(self):
        """With smart buffering off, the source gNB buffers and the
        drained packets hairpin back through the UPF."""
        config = SystemConfig.l25gc()
        config.smart_handover_buffering = False
        config.name = "l25gc-no-smart"
        core, ue, _ = attached(config)
        [result] = run_ops(core, ue, *self.MID_TRAFFIC)
        assert result.detail["hairpinned"] > 0
        assert core.upf_u.stats.buffered == 0  # UPF did not buffer


class TestAcrossSystems:
    @pytest.mark.parametrize(
        "factory", [SystemConfig.free5gc, SystemConfig.onvm_upf,
                    SystemConfig.l25gc],
        ids=["free5gc", "onvm-upf", "l25gc"],
    )
    def test_full_lifecycle_all_systems(self, factory):
        """The same 3GPP sequences complete on every system."""
        core = FiveGCore(Environment(), factory())
        results = scenario.run(core, {SUPI: scenario.UE_LIFECYCLE})
        ue = core.ues[SUPI]
        events = [result.event for _, result in results]
        assert events == [
            "registration", "session-request", "handover",
            "an-release", "paging",
        ]
        assert ue.cm_state is CMState.CONNECTED
        assert ue.serving_gnb_id == 2

    def test_message_sequences_identical_across_systems(self):
        """3GPP compliance: the *names* of exchanged messages match
        between free5GC and L25GC; only channels differ."""

        def trace(factory):
            core, _, _ = attached(factory())
            return [record.name for record in core.bus.log]

        assert trace(SystemConfig.free5gc) == trace(SystemConfig.l25gc)


class TestN4Sizing:
    """A shared-memory N4 leg passes the descriptor and is only sized;
    the kernel-UDP baseline serialises.  Both record the same bytes."""

    @pytest.mark.parametrize("channel", [Channel.SHARED_MEMORY, Channel.UDP_PFCP])
    def test_sizes_and_latencies_are_the_encoded_ones(self, channel, monkeypatch):
        env, core, runner, ue = build(SystemConfig(n4_channel=channel))
        establishment = build_session_establishment(
            seid=7, sequence=1, ue_ip=0x0A3C0001, upf_address=core.UPF_ADDRESS,
            ul_teid=0x100, gnb_address=core.gnbs[1].address, dl_teid=0x200,
        )
        modification = build_buffering_update(seid=7, sequence=2, notify_cp=True)
        report = build_downlink_report(seid=7, sequence=3)
        encode, encoded = PFCPMessage.encode, []
        monkeypatch.setattr(
            PFCPMessage, "encode",
            lambda self: encoded.append(self) or encode(self),
        )
        exchanged = []

        def exchange():
            for request in (establishment, modification):
                exchanged.append(request)
                exchanged.append((yield from core.n4_exchange(request)))

        env.process(exchange())
        core._report_to_smf(report)
        env.run()
        exchanged += [report, SessionReportResponse(seid=7, sequence=3)]
        by_name = {record.name: record for record in core.bus.log}
        assert len(by_name) == len(core.bus.log) == len(exchanged) == 6
        assert {record.channel for record in core.bus.log} == {channel}
        if channel is Channel.SHARED_MEMORY:
            assert encoded == []
        else:  # each leg serialised exactly once
            assert sorted(m.name for m in encoded) == sorted(by_name)
        for message in exchanged:
            record = by_name[message.name]
            assert record.size == len(encode(message))
            assert record.delivered_at == record.sent_at + core.costs.message_cost(
                channel, record.size
            )
            assert record.handler_time == message.HANDLER_TIME


class TestRefusedModification:
    """A Session Modification the UPF refuses reaches the SMF as its
    cause, mid-scenario: nothing escapes the N4 handler, the session
    keeps every rule, and the UE's later operations still run."""

    def test_smf_gets_cause_66_with_the_offending_ie(self):
        from repro.pfcp import ies, qos_ies
        from repro.pfcp.messages import SessionModificationRequest

        env = Environment()
        core = FiveGCore(env, SystemConfig.l25gc())
        exchanged = []

        def malformed():
            yield env.timeout(0.5)  # after ATTACH, before the handover
            seid = core.smf.context_for(SUPI, 1).seid
            session = core.sessions.by_seid(seid)
            before = (dict(session.fars), dict(session.pdrs))
            far_9 = ies.CreateFarIE(children=[
                ies.FarIdIE(rule_id=9),
                ies.ApplyActionIE(flags=ies.ACTION_FORW),
            ])
            request = SessionModificationRequest(
                seid=seid, sequence=99,
                ies=[far_9, qos_ies.CreateQerIE(children=[])],
            )
            response = yield from core.n4_exchange(request)
            exchanged.append((response, before, session))

        env.process(malformed())
        results = scenario.run(
            core, {SUPI: [*ATTACH, ("wait", 1.0), ("handover", 2)]}
        )
        assert [result.event for _, result in results] == [
            "registration", "session-request", "handover",
        ]
        ((response, before, session),) = exchanged
        assert response.find(CauseIE).cause == ies.CAUSE_MANDATORY_IE_MISSING
        assert response.find(ies.OffendingIeIE).ie_type == (
            ies.QerIdIE.IE_TYPE
        )
        assert 9 not in session.fars and not session.qer_enforcers
        assert set(session.pdrs) == set(before[1])
        # The handover after it moved the DL FAR to the target gNB.
        assert session.fars[2].outer_address == core.gnbs[2].address


class TestDuplicateEstablishment:
    """A retransmitted or colliding N4 Session Establishment Request is
    answered ``Request rejected``; the UPF's state is untouched."""

    UE_IP = 0x0A3C0001

    def _state(self, core):
        sessions = core.sessions.sessions()
        tables = getattr(core.sessions, "tables", [core.sessions])
        return (
            sorted((s.seid, s.ul_teid, s.ue_ip) for s in sessions),
            [core.sessions.by_seid(s.seid) is s
             and core.sessions.by_teid(s.ul_teid) is s
             and core.sessions.by_ue_ip(s.ue_ip) is s for s in sessions],
            [(len(table), table.epoch.value) for table in tables],
        )

    def _exchange(self, env, core, **fields):
        request = build_session_establishment(
            sequence=1, upf_address=core.UPF_ADDRESS,
            gnb_address=core.gnbs[1].address, dl_teid=0x200, **fields,
        )
        return run_procedures(env, core.n4_exchange(request))[0]

    def _established(self, shards):
        env, core, _runner, _ue = build(SystemConfig(upf_shards=shards))
        router = getattr(core.upf_c, "router", None)
        steer = router.steer_teid if router else (lambda ue_ip, base: base)
        # A second UE address on the first one's shard, so a clashing
        # TEID is rejected as a duplicate, not as mis-steered.
        other_ip = next(
            ip for ip in range(self.UE_IP + 1, self.UE_IP + 4096)
            if router is None
            or router.shard_for_ue_ip(ip) == router.shard_for_ue_ip(self.UE_IP)
        )
        teid = steer(self.UE_IP, 0x100)
        accepted = self._exchange(
            env, core, seid=7, ue_ip=self.UE_IP, ul_teid=teid
        )
        assert accepted.find(CauseIE).accepted
        return env, core, steer, teid, other_ip

    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("clash", ["seid", "ul_teid", "ue_ip"])
    def test_colliding_request_is_rejected_and_changes_nothing(
        self, clash, shards
    ):
        env, core, steer, teid, other_ip = self._established(shards)
        fields = {
            "seid": dict(seid=7, ue_ip=other_ip,
                         ul_teid=steer(other_ip, 0x300)),
            "ul_teid": dict(seid=8, ue_ip=other_ip, ul_teid=teid),
            "ue_ip": dict(seid=8, ue_ip=self.UE_IP,
                          ul_teid=steer(self.UE_IP, 0x300)),
        }[clash]
        before = self._state(core)
        response = self._exchange(env, core, **fields)
        assert response.find(CauseIE).cause == CAUSE_REQUEST_REJECTED
        assert response.find(FTeidIE) is None
        assert self._state(core) == before
        assert len(core.sessions) == 1

    def test_sharded_teid_off_the_ue_ip_bucket_is_rejected(self):
        env, core, steer, teid, other_ip = self._established(4)
        router = core.upf_c.router
        stray = next(
            t for t in range(0x300, 0x300 + 4096)
            if router.shard_for_teid(t) != router.shard_for_ue_ip(other_ip)
        )
        before = self._state(core)
        response = self._exchange(
            env, core, seid=8, ue_ip=other_ip, ul_teid=stray
        )
        assert response.find(CauseIE).cause == CAUSE_REQUEST_REJECTED
        assert self._state(core) == before
