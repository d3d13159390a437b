"""The procedures' message sequences, pinned two ways.

A golden SHA-256 over every bus-log record and every
:class:`EventResult` of a multi-UE lifecycle, written as scenario data
(:mod:`repro.cp.scenario`), fixes the exact sequence, sizing and
sim-clock timing of the 3GPP procedures on each system, so a change to
how a procedure is written cannot move what it does.  The
table test reads each procedure's message count off its step table:
the table is the specification of its sequence.
"""

import hashlib
import json

import pytest

from repro.cp import SYSTEMS, FiveGCore, SystemConfig, scenario
from repro.cp.procedures import (
    AN_RELEASE, DEREGISTRATION, DEREGISTRATION_REQUEST, HO_CANCEL,
    HO_EXECUTION, HO_PREPARATION, PAGING, REGISTRATION, REGISTRATION_NON3GPP,
    SESSION, SESSION_NON3GPP, SESSION_RELEASE, XN_HANDOVER,
)
from repro.sim import Environment

#: The paper's systems plus the shared-memory-SBI ablation point.
FACTORIES = {**SYSTEMS, "shm-sbi-only": SystemConfig.shm_sbi_only}


def digest(core, results) -> str:
    """SHA-256 over the bus log and the procedures' results."""
    sha = hashlib.sha256()
    for record in core.bus.log:
        sha.update(repr((
            record.source, record.destination, record.name,
            record.channel.name, record.size, record.sent_at,
            record.delivered_at, record.handler_time,
        )).encode())
    for result in results:
        sha.update(repr((
            result.event, result.system, result.started_at,
            result.completed_at, result.messages,
            sorted(result.detail.items()),
        )).encode())
    return sha.hexdigest()


def staggered(prefix, count, ops):
    """``count`` UEs starting 1 ms apart, each running ``ops``."""
    return {f"{prefix}{index:02d}": [("wait", index * 0.001), *ops]
            for index in range(count)}


#: (core set-up, scenario).  ``3gpp``: three staggered UEs register,
#: open two sessions, hand over N2 there and Xn back, go idle, are
#: paged and deregister, with 200 pps downlink on session 1.
#: ``non3gpp``: two UEs over an N3IWF.  ``cancelled``: the target
#: admits nobody, so the handover takes the cancel branch.
SCENARIOS = {
    "3gpp": (None, staggered("imsi-2089300000950", 3, [
        ("register", 1), ("establish", 1), ("establish", 2),
        ("downlink", 200, 1.0), ("handover", 2), ("xn_handover", 1),
        ("idle",), ("page",), ("deregister",),
    ])),
    "non3gpp": (lambda core: core.add_n3iwf(100), staggered(
        "imsi-2089300000960", 2, [
            ("register_non3gpp", 100), ("establish_non3gpp", 1),
            ("downlink", 200, 0.2), ("idle",), ("page",), ("deregister",),
        ])),
    "cancelled": (
        lambda core: setattr(core.gnbs[2], "max_ues", 0),
        {"imsi-208930000097001": [
            ("register", 1), ("establish", 1), ("downlink", 500, 0.08),
            ("wait", 0.005), ("handover", 2), ("deregister",),
        ]}),
}


def run_scenario(system, name, ops=None):
    core = FiveGCore(Environment(), FACTORIES[system]())
    prepare, default = SCENARIOS[name]
    if prepare is not None:
        prepare(core)
    results = scenario.run(core, default if ops is None else ops)
    return core, [result for _, result in results]


#: Recorded on the hand-written generators the step tables replaced;
#: ``3gpp`` and ``non3gpp`` re-recorded when ``EventResult.messages``
#: stopped counting concurrent procedures' messages (bus log and every
#: other result field unchanged); unchanged when the lifecycles became
#: scenario data.
GOLDEN = {
    ("free5gc", "3gpp"): "316afeeaece5a4382b8a207a64f52d75c81040b273c2377b752c20e23fbdad42",
    ("free5gc", "cancelled"): "fc1899b9e27533d8a00415b1dd0b59d1260b18fa1981ef1a62101e95d620c55f",
    ("free5gc", "non3gpp"): "c1c9704e791a956a509b66e432d586e7d1c96f1a4d0cd2455bf2d57dc53fb8b8",
    ("l25gc", "3gpp"): "67af9363f41db0d0cf65cfd5c5fff1da5dcf34bb99afc3ad4be7478361dd9755",
    ("l25gc", "cancelled"): "ef214ddc4df0eedee57e762d9f14663746d400986dc8e94e2d66ae0989555524",
    ("l25gc", "non3gpp"): "d181ecddebd2ac048977ac25ee664685aa0369a7492ce0f30aa6ed850bd3ee73",
    ("onvm-upf", "3gpp"): "07d92eca843ca9b6da3c058d22bedf0f44dece7ca26a86649f4a11081aac75f9",
    ("onvm-upf", "cancelled"): "a3b2d6bbe5dd243fb567c67596a3bf23023f4b1bb2771cdbfa932080bb509a06",
    ("onvm-upf", "non3gpp"): "0e6c22aa26774e661d761e8ff953b5af1b6984a5720ae23aedad2d959ffabbf7",
    ("shm-sbi-only", "3gpp"): "182d6299075023d7ca5fda41ae67f77cb86c4934d31f27d7f22969594eec953a",
    ("shm-sbi-only", "cancelled"): "7eec91e325ef9c5396c92199ba1b6c143c89cb0c394c2e4bd998315112ef63f4",
    ("shm-sbi-only", "non3gpp"): "e8c7348537ea3b6e052dd02fb2774501b02cfc7e5d996ebe9935cae09bd5b807",
}


class TestGoldenDigest:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("system", sorted(FACTORIES))
    def test_bus_log_and_results_are_unchanged(self, system, name):
        core, results = run_scenario(system, name)
        assert digest(core, results) == GOLDEN[system, name]

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_a_scenario_survives_a_json_round_trip(self, name):
        ops = json.loads(json.dumps(SCENARIOS[name][1]))
        core, results = run_scenario("l25gc", name, ops)
        assert digest(core, results) == GOLDEN["l25gc", name]


#: Bus messages per row kind: an SBI exchange is NRF discovery plus
#: the request/response pair, an N4 exchange a PFCP request/response.
PER_KIND = {"radio": 0, "ngap": 1, "n4": 2, "sbi": 4}

#: (event, the tables its call runs, its messages on the generators the
#: tables replaced).  Deregistration runs SESSION_RELEASE per session.
SEQUENCES = [
    ("registration", (REGISTRATION,), 32),
    ("session-request", (SESSION,), 27),
    ("session-request", (SESSION,), 27),
    ("handover", (HO_PREPARATION, HO_EXECUTION), 38),
    ("xn-handover", (XN_HANDOVER,), 8),
    ("an-release", (AN_RELEASE,), 8),
    ("paging", (PAGING,), 14),
    ("deregistration", (DEREGISTRATION_REQUEST, SESSION_RELEASE,
                        SESSION_RELEASE, DEREGISTRATION), 32),
    ("registration-non3gpp", (REGISTRATION_NON3GPP,), 26),
    ("session-request", (SESSION_NON3GPP,), 27),
    ("registration", (REGISTRATION,), 32),
    ("session-request", (SESSION,), 27),
    ("handover-cancelled", (HO_PREPARATION, HO_CANCEL), 19),
]


def table_messages(tables):
    return sum(PER_KIND[step.kind] for table in tables for step in table)


class TestConcurrentRuns:
    """A result counts its own procedure's messages, not those of the
    procedures running beside it."""

    @pytest.mark.parametrize("system", sorted(FACTORIES))
    def test_concurrent_registrations_report_their_own_count(self, system):
        core = FiveGCore(Environment(), FACTORIES[system]())
        results = scenario.run(core, {
            f"imsi-2089300000990{index:02d}": [("register", 1), ("establish", 1)]
            for index in range(3)
        })
        assert sorted((r.event, r.messages) for _, r in results) == (
            [("registration", 32)] * 3 + [("session-request", 27)] * 3
        )
        assert core.bus.total_messages() == 3 * (32 + 27)


class TestTablesAreTheSequence:
    """One UE per access type, one procedure at a time: each result's
    message count is the one its tables spell out."""

    @pytest.mark.parametrize("system", sorted(FACTORIES))
    def test_messages_read_off_the_tables(self, system):
        core = FiveGCore(Environment(), FACTORIES[system]())
        core.add_n3iwf(100)
        results = []
        for supi, ops in (
            ("imsi-208930000098001", [
                ("register", 1), ("establish", 1), ("establish", 2),
                ("handover", 2), ("xn_handover", 1), ("idle",), ("page",),
                ("deregister",)]),
            ("imsi-208930000098002", [
                ("register_non3gpp", 100), ("establish_non3gpp", 1)]),
            ("imsi-208930000098003", [("register", 1), ("establish", 1)]),
        ):
            results += scenario.run(core, {supi: ops})
        core.gnbs[2].max_ues = 0
        results += scenario.run(core, {"imsi-208930000098003": [("handover", 2)]})
        assert [result.event for _, result in results] == [
            event for event, _, _ in SEQUENCES
        ]
        for (_, result), (event, tables, expected) in zip(results, SEQUENCES):
            assert result.messages == expected == table_messages(tables), event
