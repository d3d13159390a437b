"""The scenario interpreter: what each operation does and when.

The procedures' message sequences under it are pinned by the golden
digests in ``test_procedure_tables.py``; these cases pin the
interpreter's own contract.
"""

import pytest

from repro.cp import FiveGCore, SystemConfig, scenario
from repro.cp.scenario import ATTACH
from repro.sim import Environment

from .test_cp_procedures import SUPI


def core():
    return FiveGCore(Environment(), SystemConfig.l25gc())


class TestInterpreter:
    def test_unknown_operation_is_rejected_before_anything_runs(self):
        plane = core()
        with pytest.raises(ValueError, match="'kill'"):
            scenario.run(plane, {SUPI: [*ATTACH, ("kill", "upf")]})
        assert plane.ues == {} and plane.bus.total_messages() == 0

    def test_unfinished_operations_raise(self):
        """No downlink traffic, so no data report ever arrives."""
        with pytest.raises(RuntimeError, match=SUPI):
            scenario.run(core(), {SUPI: [*ATTACH, ("idle",), ("report",)]})

    def test_results_come_in_completion_order(self):
        late = "imsi-208930000000004"
        results = scenario.run(core(), {
            late: [("wait", 0.5), ("register", 1)],
            SUPI: [("register", 1)],
        })
        assert [supi for supi, _ in results] == [SUPI, late]
        assert results[1][1].started_at == 0.5

    def test_downlink_starts_traffic_and_goes_on_at_once(self):
        plane = core()
        scenario.run(plane, {SUPI: ATTACH})
        started = plane.env.now
        [(_, handover)] = scenario.run(
            plane, {SUPI: [("downlink", 1000, 0.02), ("handover", 2)]})
        assert handover.started_at == started
        received = plane.ues[SUPI].received
        assert len(received) == 20
        assert received[0].created_at == started

    def test_report_then_page_pages_at_the_report(self):
        plane = core()
        scenario.run(plane, {SUPI: [*ATTACH, ("idle",)]})
        [(_, paging)] = scenario.run(plane, {SUPI: [
            ("downlink", 1000, 0.001), ("report",), ("page",)]})
        [response] = [record for record in plane.bus.log
                      if record.name == "SessionReportResponse"]
        # Paging starts as the SMF finishes handling the report exchange.
        assert paging.event == "paging"
        assert paging.started_at == pytest.approx(
            response.delivered_at + response.handler_time, abs=1e-12)
        assert len(plane.ues[SUPI].received) == 1
