"""Tests for QoS enforcement (QER) and usage reporting (URR)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Direction, FiveTuple, Packet
from repro.pfcp import decode_message, ies
from repro.pfcp.builder import build_session_establishment
from repro.pfcp.qos_ies import (
    CreateQerIE,
    CreateUrrIE,
    GateStatusIE,
    MbrIE,
    MeasurementMethodIE,
    UsageReportIE,
    UrrIdIE,
    VolumeMeasurementIE,
    VolumeThresholdIE,
    GATE_CLOSED,
)
from repro.sim import Environment
from repro.up import (
    QerEnforcer,
    SessionTable,
    TokenBucket,
    UPFControlPlane,
    UPFUserPlane,
    UsageCounter,
)

UE_IP = 0x0A3C0001


def build_qos_rules(
    qer_id=1, qfi=9, mbr_ul_kbps=0, mbr_dl_kbps=0, urr_id=None,
    volume_threshold_bytes=None,
):
    """A QER (gate + MBR) and optionally a URR with a volume threshold:
    the ``qos_rules`` of an N4 establishment, as a test input (the SMF
    sends none)."""
    out = [CreateQerIE(children=[
        ies.QerIdIE(rule_id=qer_id), ies.QfiIE(qfi=qfi), GateStatusIE(),
        MbrIE(ul_kbps=mbr_ul_kbps, dl_kbps=mbr_dl_kbps),
    ])]
    if urr_id is not None:
        children = [UrrIdIE(rule_id=urr_id), MeasurementMethodIE(volume=True)]
        if volume_threshold_bytes is not None:
            children.append(VolumeThresholdIE(total_bytes=volume_threshold_bytes))
        out.append(CreateUrrIE(children=children))
    return out


class TestTokenBucket:
    def test_admits_within_burst(self):
        bucket = TokenBucket(rate_bps=8_000, burst_bytes=1000)
        assert bucket.admit(500, now=0.0)
        assert bucket.admit(500, now=0.0)
        assert not bucket.admit(1, now=0.0)

    def test_refills_over_time(self):
        bucket = TokenBucket(rate_bps=8_000, burst_bytes=1000)  # 1000 B/s
        assert bucket.admit(1000, now=0.0)
        assert not bucket.admit(100, now=0.0)
        assert bucket.admit(100, now=0.2)  # 200 B refilled

    def test_never_exceeds_burst(self):
        bucket = TokenBucket(rate_bps=8_000, burst_bytes=500)
        bucket.admit(0, now=100.0)  # long idle
        assert bucket._tokens == pytest.approx(500)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_bps=0)
        with pytest.raises(ValueError):
            TokenBucket(rate_bps=100, burst_bytes=0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=1e3, max_value=1e8),
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=1500),
                st.floats(min_value=1e-5, max_value=0.01),
            ),
            min_size=10,
            max_size=200,
        ),
    )
    def test_long_run_rate_never_exceeded(self, rate_bps, arrivals):
        """Admitted volume <= burst + rate x elapsed (policer bound)."""
        bucket = TokenBucket(rate_bps=rate_bps)
        now = 0.0
        admitted = 0
        for size, gap in arrivals:
            now += gap
            if bucket.admit(size, now):
                admitted += size
        bound = bucket.burst_bytes + rate_bps / 8 * now
        assert admitted <= bound + 1e-6

    def test_first_admit_at_late_sim_time_caps_at_burst(self):
        """A bucket created at t=0 but first used deep into the
        simulation (``_last_refill == 0.0``, huge elapsed) must cap the
        refill at the bucket depth — the long idle gap is not credit."""
        bucket = TokenBucket(rate_bps=8_000, burst_bytes=500)
        assert bucket.admit(400, now=1e9)  # ~125 MB "refilled" if uncapped
        assert bucket._tokens == pytest.approx(100)
        # A burst-sized draw right after must fail: only depth remains.
        assert not bucket.admit(500, now=1e9)

    def test_non_monotonic_now_never_goes_negative(self):
        """Time running backwards (clock skew between callers) must not
        refill and must never drive the token count negative."""
        bucket = TokenBucket(rate_bps=8_000, burst_bytes=1000)
        assert bucket.admit(1000, now=1.0)
        assert bucket._tokens == pytest.approx(0.0)
        # Earlier timestamp: elapsed < 0, refill skipped, no admit.
        assert not bucket.admit(1, now=0.5)
        assert bucket._tokens >= 0.0
        assert bucket._tokens == pytest.approx(0.0)
        # _last_refill stays at the later stamp: moving forward again
        # refills from 1.0, not from the skewed 0.5.
        assert bucket.admit(100, now=1.1)  # 0.1 s x 1000 B/s = 100 B
        assert bucket._tokens == pytest.approx(0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2000),
                st.floats(
                    min_value=0.0,
                    max_value=1e7,
                    allow_nan=False,
                    allow_infinity=False,
                ),
            ),
            min_size=1,
            max_size=100,
        )
    )
    def test_tokens_always_within_bounds(self, draws):
        """Under arbitrary (even non-monotonic) timestamps the token
        count stays in ``[0, burst_bytes]``."""
        bucket = TokenBucket(rate_bps=1e6, burst_bytes=1500)
        for size, now in draws:
            bucket.admit(size, now)
            assert 0.0 <= bucket._tokens <= bucket.burst_bytes + 1e-9


class TestQerEnforcer:
    def _packet(self, direction=Direction.DOWNLINK, size=100):
        return Packet(size=size, direction=direction)

    def test_closed_gate_blocks(self):
        enforcer = QerEnforcer(qer_id=1, dl_gate_open=False)
        assert not enforcer.admit(self._packet(), now=0.0)
        assert enforcer.gated_packets == 1
        # Uplink gate independent.
        assert enforcer.admit(self._packet(Direction.UPLINK), now=0.0)

    def test_policing_counts(self):
        enforcer = QerEnforcer(
            qer_id=1, dl_bucket=TokenBucket(8_000, burst_bytes=150)
        )
        assert enforcer.admit(self._packet(size=100), now=0.0)
        assert not enforcer.admit(self._packet(size=100), now=0.0)
        assert enforcer.policed_packets == 1

    def test_no_bucket_means_unlimited(self):
        enforcer = QerEnforcer(qer_id=1)
        for _ in range(1000):
            assert enforcer.admit(self._packet(), now=0.0)


class TestUsageCounter:
    def test_accounting_per_direction(self):
        counter = UsageCounter(urr_id=1)
        counter.account(Packet(size=100, direction=Direction.UPLINK))
        counter.account(Packet(size=200, direction=Direction.DOWNLINK))
        assert counter.uplink_bytes == 100
        assert counter.downlink_bytes == 200
        assert counter.total_bytes == 300

    def test_threshold_triggers_each_crossing(self):
        counter = UsageCounter(urr_id=1, volume_threshold_bytes=250)
        reports = sum(
            counter.account(Packet(size=100, direction=Direction.DOWNLINK))
            for _ in range(10)
        )
        # 1000 bytes / 250 threshold -> reports at 300, 600, 900 = 3..4
        assert reports == counter.reports_raised
        assert 3 <= reports <= 4

    def test_no_threshold_never_reports(self):
        counter = UsageCounter(urr_id=1)
        for _ in range(100):
            assert not counter.account(Packet(size=1500))

    def test_one_packet_crossing_multiple_thresholds_reports_once(self):
        """A single packet whose volume spans several threshold
        multiples raises exactly one report; the high-water mark then
        resets to the current total, so the *next* crossing needs a
        full threshold of fresh volume."""
        counter = UsageCounter(urr_id=1, volume_threshold_bytes=100)
        assert counter.account(
            Packet(size=1000, direction=Direction.DOWNLINK)
        )
        assert counter.reports_raised == 1
        # 99 more bytes: still under the next threshold from 1000.
        assert not counter.account(
            Packet(size=99, direction=Direction.DOWNLINK)
        )
        assert counter.account(
            Packet(size=1, direction=Direction.DOWNLINK)
        )
        assert counter.reports_raised == 2

    def test_report_bookkeeping_is_internal(self):
        """``_reported_at_bytes`` is bookkeeping, not configuration: it
        must not leak into ``__init__``, ``repr``, or equality."""
        with pytest.raises(TypeError):
            UsageCounter(urr_id=1, _reported_at_bytes=5)
        reported = UsageCounter(urr_id=1, volume_threshold_bytes=100)
        silent = UsageCounter(urr_id=1, volume_threshold_bytes=100)
        assert reported.account(
            Packet(size=100, direction=Direction.DOWNLINK)
        )
        # Same public totals, different report timing -> still equal.
        silent.uplink_bytes = reported.uplink_bytes
        silent.downlink_bytes = reported.downlink_bytes
        silent.reports_raised = reported.reports_raised
        assert reported == silent
        assert reported._reported_at_bytes != silent._reported_at_bytes
        assert "_reported_at_bytes" not in repr(reported)


class TestQosIEs:
    def test_qos_rules_roundtrip(self):
        rules = build_qos_rules(
            qer_id=3, qfi=5, mbr_ul_kbps=1000, mbr_dl_kbps=2000,
            urr_id=7, volume_threshold_bytes=1 << 20,
        )
        message = build_session_establishment(
            seid=1, sequence=1, ue_ip=UE_IP, upf_address=1,
            ul_teid=0x100, gnb_address=2, dl_teid=0x500,
            qos_rules=rules, qer_id=3, urr_id=7,
        )
        decoded = decode_message(message.encode())
        qer = decoded.find(CreateQerIE)
        assert qer is not None
        mbr = qer.child(MbrIE)
        assert (mbr.ul_kbps, mbr.dl_kbps) == (1000, 2000)
        urr = decoded.find(CreateUrrIE)
        assert urr.child(VolumeThresholdIE).total_bytes == 1 << 20

    def test_gate_status_roundtrip(self):
        gate = GateStatusIE(ul_gate=GATE_CLOSED, dl_gate=0)
        from repro.pfcp import decode_ies

        (decoded,) = decode_ies(gate.encode())
        assert not decoded.ul_open
        assert decoded.dl_open


class TestUPFIntegration:
    def _upf_with_qos(self, mbr_dl_kbps=0, threshold=None):
        env = Environment()
        table = SessionTable()
        delivered, reports = [], []
        upf_u = UPFUserPlane(
            env, table, downlink_sink=lambda p, t, a: delivered.append(p)
        )
        upf_c = UPFControlPlane(
            table, upf_u=upf_u, send_report=reports.append
        )
        upf_u.usage_report_sink = upf_c.on_usage_threshold
        message = build_session_establishment(
            seid=1, sequence=1, ue_ip=UE_IP, upf_address=1,
            ul_teid=0x100, gnb_address=2, dl_teid=0x500,
            qos_rules=build_qos_rules(
                qer_id=1, mbr_dl_kbps=mbr_dl_kbps,
                urr_id=9 if threshold else None,
                volume_threshold_bytes=threshold,
            ),
            qer_id=1,
            urr_id=9 if threshold else None,
        )
        upf_c.handle(message)
        return env, upf_u, delivered, reports

    def _dl(self, size=1500):
        return Packet(
            size=size,
            direction=Direction.DOWNLINK,
            flow=FiveTuple(src_ip=1, dst_ip=UE_IP, src_port=80,
                           dst_port=4000),
        )

    def test_mbr_polices_burst(self):
        env, upf_u, delivered, _ = self._upf_with_qos(mbr_dl_kbps=1000)

        def burst():
            for _ in range(100):
                upf_u.process(self._dl())
                yield env.timeout(1e-4)

        env.process(burst())
        env.run()
        assert upf_u.stats.dropped_qos > 50
        assert len(delivered) < 50
        # Conforming volume stays near bucket + rate x time.
        conforming = sum(packet.size for packet in delivered)
        assert conforming <= 12_500 + 1000 * 125 * 0.011 + 1500

    def test_usage_report_carries_measurement(self):
        env, upf_u, delivered, reports = self._upf_with_qos(
            threshold=4000
        )
        for _ in range(10):
            upf_u.process(self._dl(size=1000))
        assert len(reports) >= 2
        report = reports[0]
        usage = report.find(UsageReportIE)
        assert usage.child(UrrIdIE).rule_id == 9
        assert usage.child(VolumeMeasurementIE).total_bytes >= 4000

    def test_no_qos_rules_no_enforcement(self):
        env = Environment()
        table = SessionTable()
        delivered = []
        upf_u = UPFUserPlane(
            env, table, downlink_sink=lambda p, t, a: delivered.append(p)
        )
        upf_c = UPFControlPlane(table, upf_u=upf_u)
        upf_c.handle(
            build_session_establishment(
                seid=1, sequence=1, ue_ip=UE_IP, upf_address=1,
                ul_teid=0x100, gnb_address=2, dl_teid=0x500,
            )
        )
        for _ in range(100):
            upf_u.process(self._dl())
        assert len(delivered) == 100
        assert upf_u.stats.dropped_qos == 0
