"""Tests for non-3GPP access: N3IWF, EAP-AKA', and the procedures."""

import pytest

from repro.cp import FiveGCore, SystemConfig, scenario
from repro.cp.nfs import AUSF, UDM
from repro.net import Direction, FiveTuple, Packet
from repro.ran import N3IWF, RMState, UserEquipment
from repro.ran.n3iwf import ESP_OVERHEAD
from repro.sim import Environment

from .test_sim_engine import count_steps


class TestEapAkaPrime:
    KEY = "465b5ce8b199b49faa5f0a2ee238a6bc"
    NETWORK = "5G:NR:non3gpp"

    def test_challenge_deterministic_and_network_bound(self):
        ausf = AUSF()
        a = ausf.eap_aka_prime_challenge("imsi-1", self.NETWORK, self.KEY)
        b = AUSF().eap_aka_prime_challenge("imsi-1", self.NETWORK, self.KEY)
        assert a == b
        other = AUSF().eap_aka_prime_challenge(
            "imsi-1", "5G:NR:other-net", self.KEY
        )
        # CK'/IK' bind the access network name: different network,
        # different key material.
        assert other.kausf != a.kausf

    def test_confirm_success_and_consumption(self):
        import hashlib

        ausf = AUSF()
        vector = ausf.eap_aka_prime_challenge(
            "imsi-1", self.NETWORK, self.KEY
        )
        response = hashlib.sha256(
            "|".join(
                ["at-res", self.KEY, vector.rand, self.NETWORK]
            ).encode()
        ).hexdigest()[:32]
        kseaf = ausf.eap_aka_prime_confirm(
            "imsi-1", response, self.NETWORK, self.KEY
        )
        assert kseaf is not None
        assert (
            ausf.eap_aka_prime_confirm(
                "imsi-1", response, self.NETWORK, self.KEY
            )
            is None
        )

    def test_confirm_wrong_response(self):
        ausf = AUSF()
        ausf.eap_aka_prime_challenge("imsi-1", self.NETWORK, self.KEY)
        assert (
            ausf.eap_aka_prime_confirm(
                "imsi-1", "bogus", self.NETWORK, self.KEY
            )
            is None
        )

    def test_independent_from_5g_aka(self):
        """EAP and 5G-AKA contexts do not collide for the same SUPI."""
        ausf = AUSF()
        ausf.challenge("imsi-1", self.NETWORK, self.KEY)
        ausf.eap_aka_prime_challenge("imsi-1", self.NETWORK, self.KEY)
        assert "imsi-1" in ausf.pending
        assert "eap:imsi-1" in ausf.pending


class TestN3IWF:
    def _n3iwf_and_ue(self):
        env = Environment()
        n3iwf = N3IWF(env, n3iwf_id=100, address=50, wifi_latency=0.002)
        ue = UserEquipment("imsi-n3-1")
        ue.register(100, "guti")
        return env, n3iwf, ue

    def test_signalling_then_child_sa(self):
        env, n3iwf, ue = self._n3iwf_and_ue()
        signalling = n3iwf.establish_signalling_sa(ue)
        child = n3iwf.establish_child_sa(ue, pdu_session_id=1)
        assert signalling.spi != child.spi
        assert n3iwf.sa_for(ue.supi, None) is signalling
        assert n3iwf.sa_for(ue.supi, 1) is child

    def test_child_sa_requires_signalling(self):
        env, n3iwf, ue = self._n3iwf_and_ue()
        with pytest.raises(RuntimeError):
            n3iwf.establish_child_sa(ue, 1)

    def test_downlink_adds_esp_and_wifi_latency(self):
        env, n3iwf, ue = self._n3iwf_and_ue()
        n3iwf.establish_signalling_sa(ue)
        n3iwf.establish_child_sa(ue, 1)
        packet = Packet(size=200, created_at=env.now)
        n3iwf.receive_downlink(packet, ue)
        env.run()
        assert len(ue.received) == 1
        assert ue.received[0].size == 200 + ESP_OVERHEAD
        assert ue.received[0].latency >= 0.002

    def test_downlink_without_sa_dropped(self):
        env, n3iwf, ue = self._n3iwf_and_ue()
        n3iwf.receive_downlink(Packet(), ue)
        env.run()
        assert n3iwf.dropped == 1
        assert ue.received == []

    def test_release_tears_down_all_sas(self):
        env, n3iwf, ue = self._n3iwf_and_ue()
        n3iwf.establish_signalling_sa(ue)
        n3iwf.establish_child_sa(ue, 1)
        assert n3iwf.release_ue(ue) == 2
        assert n3iwf.sa_for(ue.supi, None) is None
        assert ue.supi not in n3iwf.connected

    def test_one_sim_event_per_wifi_hop(self):
        """DL packets that land together share the hop's timer."""
        env, n3iwf, ue = self._n3iwf_and_ue()
        n3iwf.establish_signalling_sa(ue)
        for seq in range(5):
            n3iwf.receive_downlink(Packet(seq=seq), ue)
        assert count_steps(env) == 1
        assert [packet.seq for packet in ue.received] == list(range(5))
        hop = n3iwf.ipsec_overhead + n3iwf.wifi_latency
        assert {packet.delivered_at for packet in ue.received} == {hop}
        assert env.now == pytest.approx(hop)

    def test_departure_during_the_wifi_hop_is_a_drop(self):
        env, n3iwf, ue = self._n3iwf_and_ue()
        n3iwf.establish_signalling_sa(ue)
        n3iwf.receive_downlink(Packet(), ue)
        env.run(until=n3iwf.wifi_latency / 2)
        assert n3iwf.dropped == 0
        n3iwf.disconnect(ue)
        env.run()
        assert ue.received == []
        assert (n3iwf.delivered, n3iwf.dropped) == (0, 1)


class TestNon3gppProcedures:
    SUPI = "imsi-208930000007001"

    def _core(self):
        core = FiveGCore(Environment(), SystemConfig.l25gc())
        n3iwf = core.add_n3iwf(100)
        n3iwf.wifi_latency = 0.0  # zeroed for base-RTT style checks
        return core, n3iwf

    def test_registration_via_n3iwf(self):
        core, n3iwf = self._core()
        [(_, result)] = scenario.run(
            core, {self.SUPI: [("register_non3gpp", 100)]})
        ue = core.ues[self.SUPI]
        assert ue.rm_state is RMState.REGISTERED
        assert ue.serving_gnb_id == 100
        assert n3iwf.sa_for(ue.supi, None) is not None
        assert result.event == "registration-non3gpp"

    def test_duplicate_ran_node_id_rejected(self):
        env = Environment()
        core = FiveGCore(env, SystemConfig.l25gc())
        with pytest.raises(ValueError):
            core.add_n3iwf(1)  # collides with gNB 1

    def test_session_and_data_over_ipsec(self):
        core, _ = self._core()
        _, (_, session) = scenario.run(core, {self.SUPI: [
            ("register_non3gpp", 100), ("establish_non3gpp", 1)]})
        detail = session.detail
        assert "child_spi" in detail
        core.inject_downlink(
            Packet(
                direction=Direction.DOWNLINK,
                size=200,
                flow=FiveTuple(src_ip=1, dst_ip=detail["ue_ip"],
                               src_port=80, dst_port=4000),
                created_at=core.env.now,
            )
        )
        core.env.run()
        ue = core.ues[self.SUPI]
        assert len(ue.received) == 1
        assert ue.received[0].meta["esp_spi"] == detail["child_spi"]
        assert ue.received[0].size == 200 + ESP_OVERHEAD

    def test_non3gpp_slower_than_3gpp_registration(self):
        """The WiFi leg + EAP round trips cost more than NR access."""
        core, n3iwf = self._core()
        n3iwf.wifi_latency = 0.004
        [(_, wifi)] = scenario.run(
            core, {self.SUPI: [("register_non3gpp", 100)]})
        [(_, nr)] = scenario.run(
            core, {"imsi-208930000007002": [("register", 1)]})
        assert wifi.duration > nr.duration
