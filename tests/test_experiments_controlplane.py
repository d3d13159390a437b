"""Shape tests for the control-plane experiments (Figs 6-9)."""

import pytest

from repro.experiments.fig06 import measure_serialization
from repro.experiments.fig07 import pfcp_message_latency
from repro.experiments.fig08 import event_completion_times
from repro.experiments.fig09 import average_speedup, communication_speedup


class TestFig06:
    @pytest.fixture(scope="class")
    def rows(self):
        return {
            row.format: row for row in measure_serialization(repeats=30)
        }

    def test_all_formats_present(self, rows):
        assert set(rows) == {"json", "protobuf", "flatbuffers",
                             "shm-descriptor"}

    def test_shared_memory_eliminates_everything(self, rows):
        """The modeled protocol cost; that the descriptor codec passes
        a reference (``encode(m) is m``) is tests/test_sbi_codecs.py's,
        and its host time the Fig 6 regenerator's."""
        shm = rows["shm-descriptor"]
        assert shm.protocol_s < 1e-5
        assert shm.encoded_bytes == 0

    def test_json_bulkiest_encoding(self, rows):
        """JSON's wire form is the largest (CPython's C-accelerated
        json module makes *decode timing* non-transferable from Go, so
        the size comparison carries the format-efficiency claim)."""
        assert rows["json"].encoded_bytes > rows["protobuf"].encoded_bytes

    def test_protocol_cost_remains_for_optimized_formats(self, rows):
        """Fig 6's punchline: serialization tweaks keep the kernel
        protocol cost; only shared memory removes it."""
        assert rows["flatbuffers"].protocol_s > 100e-6
        assert rows["protobuf"].protocol_s > 100e-6


class TestFig07:
    @pytest.fixture(scope="class")
    def rows(self):
        return pfcp_message_latency()

    def test_three_message_types(self, rows):
        assert {row.message for row in rows} == {
            "SessionEstablishment", "SessionModification", "SessionReport"
        }

    def test_reduction_in_paper_band(self, rows):
        """21-39 % latency reduction for every message type."""
        for row in rows:
            assert 0.21 <= row.reduction <= 0.40, row

    def test_l25gc_always_faster(self, rows):
        for row in rows:
            assert row.l25gc_s < row.free5gc_s

    def test_establishment_heaviest(self, rows):
        by_name = {row.message: row for row in rows}
        assert (
            by_name["SessionEstablishment"].free5gc_s
            > by_name["SessionReport"].free5gc_s
        )


class TestFig08:
    @pytest.fixture(scope="class")
    def rows(self):
        return {row.event: row for row in event_completion_times()}

    def test_all_events(self, rows):
        assert set(rows) == {
            "registration", "session-request", "handover", "paging"
        }

    def test_l25gc_roughly_halves_everything(self, rows):
        for row in rows.values():
            assert 0.40 <= row.reduction <= 0.62, row.event

    def test_onvm_upf_marginal(self, rows):
        """Fig 8: ONVM-UPF alone gives only a slight improvement."""
        for row in rows.values():
            assert row.onvm_upf_s <= row.free5gc_s
            assert row.onvm_upf_s > 0.95 * row.free5gc_s

    def test_paging_anchor(self, rows):
        """Table 1: ~59 ms vs ~28 ms."""
        paging = rows["paging"]
        assert paging.free5gc_s == pytest.approx(59e-3, rel=0.15)
        assert paging.l25gc_s == pytest.approx(28e-3, rel=0.15)

    def test_handover_anchor(self, rows):
        """Table 2: ~227 ms vs ~130 ms."""
        handover = rows["handover"]
        assert handover.free5gc_s == pytest.approx(227e-3, rel=0.10)
        assert handover.l25gc_s == pytest.approx(130e-3, rel=0.10)

    def test_registration_is_largest(self, rows):
        assert rows["registration"].free5gc_s > rows["paging"].free5gc_s

    def test_two_users_no_perceptible_difference(self):
        """§5.2: 1 vs 2 concurrent users look the same."""
        one = {r.event: r.l25gc_s for r in event_completion_times(num_ues=1)}
        two = {r.event: r.l25gc_s for r in event_completion_times(num_ues=2)}
        for event in one:
            assert two[event] == pytest.approx(one[event], rel=0.10)

    def test_two_users_report_each_procedures_own_messages(self):
        """A concurrent user's messages are not added to the count."""
        one = {r.event: r.messages for r in event_completion_times(num_ues=1)}
        two = {r.event: r.messages for r in event_completion_times(num_ues=2)}
        assert two == one == {
            "registration": 32, "session-request": 27, "handover": 38,
            "paging": 14,
        }


class TestFig09:
    @pytest.fixture(scope="class")
    def rows(self):
        return communication_speedup()

    def test_average_speedup_about_13x(self, rows):
        assert average_speedup(rows) == pytest.approx(13.0, rel=0.20)

    def test_every_message_speeds_up_substantially(self, rows):
        for row in rows:
            assert row.speedup > 8.0

    def test_sizes_from_real_encodings(self, rows):
        for row in rows:
            assert row.json_bytes > 100
