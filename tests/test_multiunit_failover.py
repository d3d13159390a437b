"""Integrated Fig 5 scenario: a serving region with multiple 5GC units
behind the UE-aware LB, surviving a unit failure without re-attach.

This ties the deployment layer (§4) to the resiliency framework (§3.5)
end to end: UE state checkpointed from the primary unit restores into a
replica unit's NFs, the UPF session is reconstructed from the restored
SM context, and data flows again — no re-registration.
"""

import pytest

from repro.cp import FiveGCore, ProcedureRunner, SystemConfig
from repro.cp.nfs import AMF, SMF
from repro.deploy import UEAwareLoadBalancer, UnitHandle
from repro.net import Direction, FiveTuple, Packet, PacketKind
from repro.pfcp.builder import build_session_establishment
from repro.ran import RMState
from repro.resiliency import ResiliencyFramework
from repro.sim import MS, Environment

SUPI = "imsi-208930000050001"


class Region:
    """Two 5GC units + LB + resiliency, in one simulation."""

    def __init__(self):
        self.env = Environment()
        self.units = {
            unit_id: FiveGCore(self.env, SystemConfig.l25gc())
            for unit_id in (0, 1)
        }
        for core in self.units.values():
            for gnb in core.gnbs.values():
                gnb.radio_latency = 0.0
        self.lb = UEAwareLoadBalancer()
        for unit_id in self.units:
            self.lb.add_unit(UnitHandle(unit_id=unit_id))
        self.framework = None

    def primary_for(self, supi):
        return self.units[self.lb.assign(supi).unit_id]


@pytest.fixture
def region():
    return Region()


def onboard(region, supi=SUPI):
    """Register + session on the LB-chosen unit, with replication."""
    core = region.primary_for(supi)
    runner = ProcedureRunner(core)
    ue = core.add_ue(supi)
    framework = ResiliencyFramework(
        region.env,
        {"amf": core.amf, "smf": core.smf},
        sync_period=5 * MS,
    )
    framework.start()
    region.framework = framework
    detail = {}

    def scenario():
        yield from runner.register_ue(ue, gnb_id=1)
        framework.log_message("reg", Direction.UPLINK, PacketKind.CONTROL)
        yield from framework.commit_event()
        result = yield from runner.establish_session(ue)
        detail.update(result.detail)
        framework.log_message("est", Direction.UPLINK, PacketKind.CONTROL)
        yield from framework.commit_event()
        yield region.env.timeout(50 * MS)  # checkpoints flow

    region.env.process(scenario())
    region.env.run(until=region.env.now + 1.0)
    return core, ue, detail


def fail_over(region, primary, ue, detail):
    """Fail the primary unit; restore state into the survivor."""
    framework = region.framework
    framework.stop()
    failed_id = next(
        unit_id for unit_id, core in region.units.items() if core is primary
    )
    region.lb.mark_failed(failed_id)
    survivor = region.units[region.lb.assign(ue.supi).unit_id]
    assert survivor is not primary

    # Restore control-plane state from the remote replica.
    survivor.amf.restore(framework.remote.stores["amf"].state)
    survivor.smf.restore(framework.remote.stores["smf"].state)
    survivor.ues[ue.supi] = ue
    survivor.gnbs[1].connect(ue)

    # Rebuild the UPF session from the restored SM context — the
    # forwarding-state reconstruction of §3.5.
    sm = survivor.smf.context_for(ue.supi, 1)
    establishment = build_session_establishment(
        seid=sm.seid,
        sequence=survivor.smf.next_sequence(),
        ue_ip=sm.ue_ip,
        upf_address=survivor.UPF_ADDRESS,
        ul_teid=sm.ul_teid,
        gnb_address=survivor.gnbs[1].address,
        dl_teid=sm.dl_teid,
    )
    survivor.upf_c.handle(establishment)
    survivor.dl_routes[sm.dl_teid] = (survivor.gnbs[1], ue)
    return survivor, sm


class TestRegionFailover:
    def test_state_survives_unit_failure(self, region):
        primary, ue, detail = onboard(region)
        survivor, sm = fail_over(region, primary, ue, detail)
        # Identity and session state intact — no re-attach.
        assert ue.rm_state is RMState.REGISTERED
        assert survivor.amf.context(ue.supi).guti == ue.guti
        assert sm.ue_ip == detail["ue_ip"]
        assert sm.ul_teid == detail["ul_teid"]

    def test_data_flows_on_survivor(self, region):
        primary, ue, detail = onboard(region)
        survivor, sm = fail_over(region, primary, ue, detail)
        before = len(ue.received)
        survivor.inject_downlink(
            Packet(direction=Direction.DOWNLINK,
                   flow=FiveTuple(src_ip=1, dst_ip=detail["ue_ip"],
                                  src_port=80, dst_port=4000),
                   created_at=region.env.now)
        )
        region.env.run(until=region.env.now + 1 * MS)
        assert len(ue.received) == before + 1

    def test_paging_works_on_survivor(self, region):
        """A full procedure runs on the restored unit: idle + page."""
        primary, ue, detail = onboard(region)
        survivor, sm = fail_over(region, primary, ue, detail)
        runner = ProcedureRunner(survivor)

        def on_report(report):
            def page():
                yield from runner.page_ue(ue)

            region.env.process(page())

        survivor.on_report = on_report

        def idle():
            yield from runner.release_to_idle(ue)

        region.env.process(idle())
        region.env.run(until=region.env.now + 1.0)
        survivor.inject_downlink(
            Packet(direction=Direction.DOWNLINK,
                   flow=FiveTuple(src_ip=1, dst_ip=detail["ue_ip"],
                                  src_port=80, dst_port=4000),
                   created_at=region.env.now)
        )
        region.env.run(until=region.env.now + 1.0)
        from repro.ran import CMState

        assert ue.cm_state is CMState.CONNECTED
        assert len(ue.received) >= 1

    def test_lb_affinity_moves_once(self, region):
        primary, ue, detail = onboard(region)
        survivor, _ = fail_over(region, primary, ue, detail)
        survivor_id = next(
            unit_id for unit_id, core in region.units.items()
            if core is survivor
        )
        # Subsequent lookups stay pinned to the survivor.
        for _ in range(5):
            assert region.lb.assign(ue.supi).unit_id == survivor_id
