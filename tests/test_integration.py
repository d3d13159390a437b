"""End-to-end integration scenarios across subsystems."""

import pytest

from repro.cp import FiveGCore, ProcedureRunner, SystemConfig, scenario
from repro.cp.scenario import ATTACH
from repro.experiments.common import data_plane_core, latency_series
from repro.net import Direction, PacketKind
from repro.ran import CMState
from repro.sim import MS, Environment
from repro.traffic import summarize



class TestTwoUEsConcurrent:
    """The paper's control plane supports two users (§3.2) — run both
    through the full lifecycle concurrently and check isolation."""

    def test_concurrent_lifecycles(self):
        core = FiveGCore(Environment(), SystemConfig.l25gc())
        supis = [f"imsi-2089300000100{i:02d}" for i in range(2)]
        results = scenario.run(
            core, dict.fromkeys(supis, [*ATTACH, ("handover", 2)]))
        details = {supi: result.detail for supi, result in results
                   if result.event == "session-request"}
        assert len(details) == 2
        first, second = (details[supi] for supi in supis)
        assert first["ue_ip"] != second["ue_ip"]
        assert first["seid"] != second["seid"]
        assert all(core.ues[supi].serving_gnb_id == 2 for supi in supis)
        assert len(core.sessions) == 2

    def test_traffic_isolated_per_ue(self):
        core = data_plane_core(SystemConfig.l25gc())
        supis = [f"imsi-2089300000200{i:02d}" for i in range(2)]
        scenario.run(core, dict.fromkeys(supis, ATTACH))
        # Send 50 packets to UE 0 only.
        scenario.run(core, {supis[0]: [("downlink", 10_000, 0.005)]})
        assert len(core.ues[supis[0]].received) == 50
        assert len(core.ues[supis[1]].received) == 0


class TestSteadyStateDataPlane:
    @pytest.mark.parametrize(
        "factory,expected_rtt",
        [(SystemConfig.free5gc, 116e-6), (SystemConfig.l25gc, 25e-6)],
        ids=["free5gc", "l25gc"],
    )
    def test_base_rtt_through_full_stack(self, factory, expected_rtt):
        """Generator -> UPF -> gNB -> UE, measured like the paper."""
        core = data_plane_core(factory())
        supi = "imsi-208930000003001"
        scenario.run(core, {supi: [*ATTACH, ("downlink", 5000, 0.2)]})
        summary = summarize(latency_series(core.ues[supi]))
        assert summary.base_rtt == pytest.approx(expected_rtt, rel=0.10)
        assert summary.elevated_count == 0  # steady state, no events


class TestIdleActiveDataCycle:
    def test_multiple_paging_cycles(self):
        """Idle -> page -> active, three times, without losing data."""
        core = data_plane_core(SystemConfig.l25gc())
        supi = "imsi-208930000004001"
        scenario.run(core, {supi: ATTACH})
        ue = core.ues[supi]
        for _ in range(3):
            scenario.run(core, {supi: [("idle",)]})
            assert ue.cm_state is CMState.IDLE
            # Ten packets; the first one's data report pages the UE.
            scenario.run(core, {supi: [
                ("downlink", 10_000, 0.001), ("report",), ("page",)]})
            assert ue.cm_state is CMState.CONNECTED
        assert len(ue.received) == 30


class TestResiliencyIntegration:
    def test_state_replicated_through_procedures(self):
        """Run real procedures, checkpoint AMF/SMF state to a remote
        replica, and verify the replica can serve the same contexts."""
        from repro.cp.nfs import AMF, SMF
        from repro.resiliency import ResiliencyFramework

        env = Environment()
        core = FiveGCore(env, SystemConfig.l25gc())
        runner = ProcedureRunner(core)
        ue = core.add_ue("imsi-208930000005001")
        framework = ResiliencyFramework(
            env,
            {"amf": core.amf, "smf": core.smf},
            sync_period=5 * MS,
        )
        framework.start()

        def scenario():
            yield from runner.register_ue(ue)
            framework.log_message(
                "registration", Direction.UPLINK, PacketKind.CONTROL
            )
            yield from framework.commit_event()
            yield from runner.establish_session(ue)
            framework.log_message(
                "session", Direction.UPLINK, PacketKind.CONTROL
            )
            yield from framework.commit_event()
            yield env.timeout(50 * MS)  # let checkpoints flow

        env.process(scenario())
        env.run(until=1.0)
        framework.stop()

        # Rebuild an AMF and SMF from the remote replica's state.
        amf_clone = AMF()
        amf_clone.restore(framework.remote.stores["amf"].state)
        assert amf_clone.context(ue.supi).guti == ue.guti
        smf_clone = SMF()
        smf_clone.restore(framework.remote.stores["smf"].state)
        restored = smf_clone.context_for(ue.supi, 1)
        original = core.smf.context_for(ue.supi, 1)
        assert restored.ue_ip == original.ue_ip
        assert restored.ul_teid == original.ul_teid
