"""Tests for the control-plane NFs and contexts."""

import pytest

from repro.cp import (
    AMF,
    AUSF,
    HOState,
    NRF,
    PCF,
    RegistrationState,
    SMContext,
    SMF,
    UDM,
    UEContext,
)


class TestContexts:
    def test_ue_context_snapshot_roundtrip(self):
        ctx = UEContext(supi="imsi-1")
        ctx.state = RegistrationState.REGISTERED
        ctx.guti = "guti-1"
        ctx.version = 7
        restored = UEContext.restore(ctx.snapshot())
        assert restored == ctx

    def test_sm_context_snapshot_roundtrip(self):
        ctx = SMContext(supi="imsi-1", pdu_session_id=1, seid=5)
        ctx.ho_state = HOState.PREPARED
        ctx.target_dl_teid = 77
        restored = SMContext.restore(ctx.snapshot())
        assert restored == ctx

    def test_commit_handover_promotes_target(self):
        ctx = SMContext(supi="imsi-1", pdu_session_id=1)
        ctx.gnb_address = 1
        ctx.dl_teid = 10
        ctx.target_gnb_address = 2
        ctx.target_dl_teid = 20
        ctx.ho_state = HOState.PREPARED
        ctx.commit_handover()
        assert ctx.gnb_address == 2 and ctx.dl_teid == 20
        assert ctx.ho_state is HOState.COMPLETED
        assert ctx.target_dl_teid == 0

    def test_commit_without_preparation_raises(self):
        ctx = SMContext(supi="imsi-1", pdu_session_id=1)
        with pytest.raises(RuntimeError):
            ctx.commit_handover()

    def test_version_bump(self):
        ctx = UEContext(supi="imsi-1")
        ctx.bump()
        ctx.bump()
        assert ctx.version == 2


class TestAMF:
    def test_registration_flow(self):
        amf = AMF()
        amf.begin_authentication("imsi-1")
        assert amf.context("imsi-1").state is RegistrationState.AUTHENTICATING
        amf.complete_security("imsi-1", "kseaf")
        guti = amf.complete_registration("imsi-1", gnb_id=2)
        ctx = amf.context("imsi-1")
        assert ctx.state is RegistrationState.REGISTERED
        assert ctx.guti == guti
        assert ctx.serving_gnb_id == 2
        assert ctx.cm_connected

    def test_gutis_unique(self):
        amf = AMF()
        gutis = {
            amf.complete_registration(f"imsi-{i}", 1) for i in range(10)
        }
        assert len(gutis) == 10

    def test_connection_release_resume(self):
        amf = AMF()
        amf.complete_registration("imsi-1", 1)
        amf.release_connection("imsi-1")
        assert not amf.context("imsi-1").cm_connected
        amf.resume_connection("imsi-1")
        assert amf.context("imsi-1").cm_connected

    def test_snapshot_restore(self):
        amf = AMF()
        amf.complete_registration("imsi-1", 1)
        amf.complete_registration("imsi-2", 2)
        clone = AMF()
        clone.restore(amf.snapshot())
        assert clone.context("imsi-1").serving_gnb_id == 1
        assert clone.context("imsi-2").serving_gnb_id == 2


class TestSMF:
    def test_seids_unique(self):
        smf = SMF()
        seids = {smf.create_sm_context(f"imsi-{i}", 1).seid for i in range(5)}
        assert len(seids) == 5

    def test_context_for(self):
        smf = SMF()
        created = smf.create_sm_context("imsi-1", pdu_session_id=3)
        assert smf.context_for("imsi-1", 3) is created
        with pytest.raises(KeyError):
            smf.context_for("imsi-1", 9)

    def test_snapshot_restore(self):
        smf = SMF()
        ctx = smf.create_sm_context("imsi-1", 1)
        ctx.ue_ip = 0x0A3C0001
        clone = SMF()
        clone.restore(smf.snapshot())
        assert clone.context_for("imsi-1", 1).ue_ip == 0x0A3C0001


class TestAUSF:
    KEY = "465b5ce8b199b49faa5f0a2ee238a6bc"
    NETWORK = "5G:mnc093.mcc208.3gppnetwork.org"

    def test_challenge_deterministic(self):
        a = AUSF().challenge("imsi-1", self.NETWORK, self.KEY)
        b = AUSF().challenge("imsi-1", self.NETWORK, self.KEY)
        assert a == b

    def test_different_keys_different_vectors(self):
        ausf = AUSF()
        a = ausf.challenge("imsi-1", self.NETWORK, self.KEY)
        b = ausf.challenge("imsi-2", self.NETWORK, "00" * 16)
        assert a.rand != b.rand or a.autn != b.autn

    def test_confirm_success(self):
        import hashlib

        ausf = AUSF()
        vector = ausf.challenge("imsi-1", self.NETWORK, self.KEY)
        # The UE-side derivation mirrors the AUSF's.
        res_star = hashlib.sha256(
            "|".join(["xres*", self.KEY, vector.rand, self.NETWORK]).encode()
        ).hexdigest()[:32]
        kseaf = ausf.confirm("imsi-1", res_star, self.KEY)
        assert kseaf is not None
        # The pending context is consumed.
        assert ausf.confirm("imsi-1", res_star, self.KEY) is None

    def test_confirm_wrong_res_fails(self):
        ausf = AUSF()
        ausf.challenge("imsi-1", self.NETWORK, self.KEY)
        assert ausf.confirm("imsi-1", "00" * 16, self.KEY) is None


class TestUDM:
    def test_provision_and_key(self):
        udm = UDM()
        udm.provision("imsi-1", key="aa" * 16)
        assert udm.subscriber_key("imsi-1") == "aa" * 16

    def test_unknown_subscriber_raises(self):
        with pytest.raises(KeyError):
            UDM().subscriber_key("imsi-404")

    def test_suci_deconcealment(self):
        udm = UDM()
        suci = "suci-0-208-93-0000-0-0-0000000003"
        assert udm.deconceal_suci(suci) == "imsi-208930000000003"

    def test_non_suci_passthrough(self):
        assert UDM().deconceal_suci("imsi-1") == "imsi-1"

    def test_subscription_data(self):
        udm = UDM()
        udm.provision("imsi-1")
        assert "subscribedUeAmbr" in udm.subscription_data("imsi-1", "am_data")


class TestPCFAndNRF:
    def test_policies_unique(self):
        pcf = PCF()
        am = pcf.create_am_policy("imsi-1")
        sm = pcf.create_sm_policy("imsi-1", 1)
        assert am != sm
        assert pcf.am_policies["imsi-1"]["id"] == am

    def test_nrf_discovery(self):
        nrf = NRF()
        nrf.register_nf("SMF", "smf-1", "127.0.0.2")
        nrf.register_nf("AMF", "amf-1", "127.0.0.3")
        found = nrf.discover("SMF")
        assert len(found) == 1
        assert found[0]["nfInstanceId"] == "smf-1"
        assert nrf.discoveries == 1

    def test_nrf_discovery_empty(self):
        assert NRF().discover("UPF") == []

    def test_nrf_discovery_by_type(self):
        nrf = NRF()
        nrf.register_nf("SMF", "smf-1", "127.0.0.2")
        nrf.register_nf("AMF", "amf-1", "127.0.0.3")
        nrf.register_nf("SMF", "smf-2", "127.0.0.4")
        found = nrf.discover("SMF")
        assert found == [nrf.profiles["smf-1"], nrf.profiles["smf-2"]]
        assert nrf.discover("UPF") == [] and nrf.discoveries == 2
        # A fresh list per call, the registry's own profiles inside.
        found.clear()
        assert len(nrf.discover("SMF")) == 2

    def test_nrf_reregistration_replaces_the_profile(self):
        nrf = NRF()
        nrf.register_nf("SMF", "nf-1", "127.0.0.2")
        nrf.register_nf("SMF", "nf-1", "127.0.0.9")
        assert [p["address"] for p in nrf.discover("SMF")] == ["127.0.0.9"]
        nrf.register_nf("AMF", "nf-1", "127.0.0.9")
        assert nrf.discover("SMF") == []
        assert nrf.discover("AMF") == [nrf.profiles["nf-1"]]
