"""Tests for the extended procedures: Xn handover, deregistration,
GTP end markers, and the scalability ablations."""

import pytest

from repro.cp import SystemConfig, scenario
from repro.cp.context import RegistrationState
from repro.cp.scenario import ATTACH
from repro.classifier import LinearClassifier, PartitionSortClassifier, Rule
from repro.classifier.partition_sort import _SortableRuleset
from repro.experiments.scalability import (
    _session_with_rules,
    session_scale_sweep,
)
from repro.net import Direction, FiveTuple, Packet
from repro.pfcp.messages import SessionModificationRequest
from repro.ran import RMState

from .test_cp_procedures import attached, run_ops


def downlink_to(ue_ip, env):
    return Packet(direction=Direction.DOWNLINK,
                  flow=FiveTuple(src_ip=1, dst_ip=ue_ip,
                                 src_port=80, dst_port=4000),
                  created_at=env.now)


class TestXnHandover:
    def test_moves_ue_and_path(self):
        core, ue, detail = attached()
        run_ops(core, ue, ("xn_handover", 2))
        assert ue.serving_gnb_id == 2
        sm = core.smf.context_for(ue.supi, 1)
        assert sm.gnb_address == core.gnbs[2].address
        # Data follows.
        core.inject_downlink(downlink_to(detail["ue_ip"], core.env))
        core.env.run()
        assert core.gnbs[2].delivered == 1

    def test_far_fewer_core_messages_than_n2(self):
        """Xn preparation bypasses the core: only the path switch
        touches AMF/SMF/UPF."""
        core, ue, _ = attached()
        xn, n2 = run_ops(core, ue, ("xn_handover", 2), ("handover", 1))
        assert xn.messages < n2.messages / 3

    def test_direct_forwarding_no_loss(self):
        core, ue, _ = attached()
        run_ops(core, ue, ("downlink", 100, 0.2), ("wait", 0.03),
                ("xn_handover", 2))
        assert len(ue.received) == 20


class TestEndMarker:
    def test_end_marker_sent_to_source_gnb(self):
        core, ue, detail = attached()
        source = core.gnbs[1]
        markers = []
        original = source.receive_downlink

        def spy(packet, target_ue):
            if packet.meta.get("gtp_message") == "end-marker":
                markers.append(packet)
            original(packet, target_ue)

        source.receive_downlink = spy
        run_ops(core, ue, ("handover", 2))
        assert len(markers) == 1
        # The marker closes the *old* tunnel (TS 29.281 §5.1).
        assert markers[0].teid == detail["dl_teid"]


class TestHandoverRoutes:
    """A handover retires the source tunnel's DL route: the route table
    holds one entry per live session, however often the UE moves."""

    @pytest.mark.parametrize(
        "factory", [SystemConfig.l25gc, SystemConfig.free5gc],
        ids=["l25gc", "free5gc"],
    )
    def test_ping_pong_leaves_one_route_per_session(self, factory):
        core, ue, _ = attached(factory())
        routes = []
        for op in [("handover", 2), ("handover", 1), ("handover", 2),
                   ("handover", 1), ("xn_handover", 2)]:
            run_ops(core, ue, op)
            sm = core.smf.context_for(ue.supi, 1)
            gnb, _ = core.dl_routes[sm.dl_teid]
            routes.append((len(core.dl_routes), gnb.gnb_id))
        run_ops(core, ue, ("deregister",))
        assert routes == [(1, 2), (1, 1), (1, 2), (1, 1), (1, 2)]
        assert core.dl_routes == {}


class TestDeregistration:
    def test_full_teardown(self):
        core, ue, detail = attached()
        run_ops(core, ue, ("deregister",))
        assert ue.rm_state is RMState.DEREGISTERED
        assert len(core.sessions) == 0
        assert core.ue_ip_pool.in_use == 0
        assert detail["dl_teid"] not in core.dl_routes
        assert not core.gnbs[1].is_connected(ue)

    def test_amf_and_pcf_forget_the_ue(self):
        """The teardown's policy terminations and the deregistration
        itself change NF state, not only UE/UPF state."""
        core, ue, _ = attached()
        ctx = core.amf.context(ue.supi)
        assert ctx.state is RegistrationState.REGISTERED and ctx.guti
        assert core.pcf.am_policies and core.pcf.sm_policies
        version = ctx.version

        run_ops(core, ue, ("deregister",))
        assert ctx.state is RegistrationState.DEREGISTERED
        assert ctx.guti is None and ctx.security_context is None
        assert ctx.serving_gnb_id is None and not ctx.cm_connected
        assert ctx.version > version
        assert core.pcf.am_policies == {} and core.pcf.sm_policies == {}

    def test_reattach_gets_a_fresh_guti_and_policies(self):
        core, ue, _ = attached()
        old_guti = core.amf.context(ue.supi).guti
        run_ops(core, ue, ("deregister",), *ATTACH)
        ctx = core.amf.context(ue.supi)
        assert ctx.state is RegistrationState.REGISTERED
        assert ctx.guti and ctx.guti != old_guti
        assert ctx.security_context and ctx.serving_gnb_id == 1
        assert set(core.pcf.am_policies) == {ue.supi}
        assert set(core.pcf.sm_policies) == {f"{ue.supi}/1"}

    def test_data_stops_after_deregistration(self):
        core, ue, detail = attached()
        run_ops(core, ue, ("deregister",))
        before = core.upf_u.stats.dropped_no_session
        core.inject_downlink(downlink_to(detail["ue_ip"], core.env))
        assert core.upf_u.stats.dropped_no_session == before + 1

    def test_released_ip_reused(self):
        core, ue, detail = attached()
        run_ops(core, ue, ("deregister",))
        _, (_, result) = scenario.run(core, {"imsi-208930000008002": ATTACH})
        assert result.detail["ue_ip"] == detail["ue_ip"]

    def test_handover_after_reattach_targets_live_session(self):
        """Deregister -> register -> establish reuses PDU session id 1
        under a new SEID; the SMF must resolve the id to that one, not
        to the context the deregistration released."""
        core, ue, detail = attached()
        modified = []
        handle = core.upf_c.handle

        def spy(message):
            if isinstance(message, SessionModificationRequest):
                modified.append(message.seid)
            return handle(message)

        core.upf_c.handle = spy
        run_ops(core, ue, ("deregister",))
        with pytest.raises(KeyError):
            core.smf.context_for(ue.supi, 1)
        _, session, _ = run_ops(core, ue, *ATTACH, ("handover", 2))
        fresh = session.detail
        sm = core.smf.context_for(ue.supi, 1)
        assert sm.seid == fresh["seid"] != detail["seid"]
        assert modified and set(modified) == {sm.seid}
        assert sm.gnb_address == core.gnbs[2].address
        core.inject_downlink(downlink_to(fresh["ue_ip"], core.env))
        core.env.run()
        assert core.gnbs[2].delivered == 1


class TestScalability:
    def test_per_ue_latency_flat(self):
        """Control-plane events stay flat as session count grows —
        sessions are independent (the paper's limitation is in the
        implementation's session bookkeeping, not the architecture)."""
        rows = session_scale_sweep(
            SystemConfig.l25gc(), session_counts=(1, 5, 20)
        )
        registrations = [row.mean_registration_s for row in rows]
        assert max(registrations) < 1.05 * min(registrations)
        assert rows[-1].upf_sessions == 20

    def test_messages_scale_linearly(self):
        rows = session_scale_sweep(
            SystemConfig.l25gc(), session_counts=(2, 10)
        )
        per_ue = [row.control_messages / row.sessions for row in rows]
        assert per_ue[0] == per_ue[1]

    def test_classifier_ablation_shape(self, count_calls):
        """The in-UPF version of Fig 11, counted through
        ``UPFUserPlane.process``: per packet PDR-LL evaluates every
        rule of the session (the probe flow matches the demoted
        catch-all, last in the list) while PDR-PS binary-searches 2 / 4
        / 4 partitions, at most 2 / 10 / 16 head comparisons -- the
        paper's ~20x at 500 rules/session.  The host-time form is
        ``benchmarks/test_bench_ablations.py``."""
        matches = count_calls(Rule, "matches")
        search = count_calls(_SortableRuleset, "lookup")
        packets = 10
        shape = []
        for extra in (0, 98, 498):
            upf_u, packet = _session_with_rules(LinearClassifier, extra)
            matches.calls = 0
            for _ in range(packets):
                assert upf_u.process(packet) == "forwarded-dl"
            evaluated = matches.calls
            upf_u, packet = _session_with_rules(
                PartitionSortClassifier, extra
            )
            search.calls = 0
            for _ in range(packets):
                assert upf_u.process(packet) == "forwarded-dl"
            partitions = upf_u.sessions.by_seid(1).classifier._partitions
            shape.append(
                (
                    evaluated / packets,
                    search.calls / packets,
                    sum(len(p.slots).bit_length() for p in partitions),
                )
            )
        assert shape == [(2, 2, 2), (100, 4, 10), (500, 4, 16)]
