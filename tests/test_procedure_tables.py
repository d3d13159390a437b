"""The procedures' message sequences, pinned two ways.

A golden SHA-256 over every bus-log record and every
:class:`EventResult` of a multi-UE lifecycle fixes the exact sequence,
sizing and sim-clock timing of the 3GPP procedures on each system, so a
change to how a procedure is written cannot move what it does.  The
table test reads each procedure's message count off its step table:
the table is the specification of its sequence.
"""

import hashlib

import pytest

from repro.cp import FiveGCore, ProcedureRunner, SystemConfig
from repro.cp.procedures import (
    AN_RELEASE, DEREGISTRATION, DEREGISTRATION_REQUEST, HO_CANCEL,
    HO_EXECUTION, HO_PREPARATION, PAGING, REGISTRATION, REGISTRATION_NON3GPP,
    SESSION, SESSION_NON3GPP, SESSION_RELEASE, XN_HANDOVER,
)
from repro.net import Direction, FiveTuple, Packet
from repro.sim import Environment

FACTORIES = {
    "l25gc": SystemConfig.l25gc,
    "onvm-upf": SystemConfig.onvm_upf,
    "free5gc": SystemConfig.free5gc,
    "shm-sbi-only": SystemConfig.shm_sbi_only,
}


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


def downlink(env, core, ue_ip, count=200, gap=0.005):
    """A CBR downlink stream towards one session, across its events."""
    for seq in range(count):
        core.inject_downlink(Packet(
            direction=Direction.DOWNLINK, seq=seq,
            flow=FiveTuple(src_ip=1, dst_ip=ue_ip, src_port=80, dst_port=4000),
            created_at=env.now,
        ))
        yield env.timeout(gap)


def lifecycle_3gpp(env, core, runner, results):
    """Three staggered UEs: register, two sessions, N2 there, Xn back,
    idle, page, deregister (both sessions), with DL traffic."""

    def one(index, ue):
        yield env.timeout(index * 0.001)
        results.append((yield from runner.register_ue(ue, gnb_id=1)))
        first = yield from runner.establish_session(ue, pdu_session_id=1)
        results.append(first)
        results.append((yield from runner.establish_session(ue, 2)))
        env.process(downlink(env, core, first.detail["ue_ip"]))
        results.append((yield from runner.handover(ue, target_gnb_id=2)))
        results.append((yield from runner.xn_handover(ue, target_gnb_id=1)))
        results.append((yield from runner.release_to_idle(ue)))
        results.append((yield from runner.page_ue(ue)))
        results.append((yield from runner.deregister_ue(ue)))

    for index in range(3):
        env.process(one(index, core.add_ue(f"imsi-2089300000950{index:02d}")))


def lifecycle_non3gpp(env, core, runner, results):
    """Two UEs over an N3IWF: register, session, idle, page, deregister."""
    core.add_n3iwf(100)

    def one(index, ue):
        yield env.timeout(index * 0.001)
        results.append((yield from runner.register_ue_non3gpp(ue, 100)))
        session = yield from runner.establish_session_non3gpp(ue)
        results.append(session)
        env.process(downlink(env, core, session.detail["ue_ip"], count=40))
        results.append((yield from runner.release_to_idle(ue)))
        results.append((yield from runner.page_ue(ue)))
        results.append((yield from runner.deregister_ue(ue)))

    for index in range(2):
        env.process(one(index, core.add_ue(f"imsi-2089300000960{index:02d}")))


def cancelled_handover(env, core, runner, results):
    """The target admits nobody: preparation, then the cancel branch."""
    core.gnbs[2].max_ues = 0
    ue = core.add_ue("imsi-208930000097001")

    def one():
        results.append((yield from runner.register_ue(ue, gnb_id=1)))
        session = yield from runner.establish_session(ue)
        results.append(session)
        env.process(downlink(env, core, session.detail["ue_ip"], count=40,
                             gap=0.002))
        yield env.timeout(0.005)
        results.append((yield from runner.handover(ue, target_gnb_id=2)))
        results.append((yield from runner.deregister_ue(ue)))

    env.process(one())


SCENARIOS = {
    "3gpp": lifecycle_3gpp,
    "non3gpp": lifecycle_non3gpp,
    "cancelled": cancelled_handover,
}


def run_scenario(system, scenario):
    env = Environment()
    core = FiveGCore(env, FACTORIES[system]())
    runner = ProcedureRunner(core)
    results = []
    SCENARIOS[scenario](env, core, runner, results)
    env.run()
    return core, results


#: Recorded on the hand-written generators the step tables replaced;
#: ``3gpp`` and ``non3gpp`` re-recorded when ``EventResult.messages``
#: stopped counting concurrent procedures' messages (bus log and every
#: other result field unchanged).
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
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("system", sorted(FACTORIES))
    def test_bus_log_and_results_are_unchanged(self, system, scenario):
        core, results = run_scenario(system, scenario)
        assert digest(core, results) == GOLDEN[system, scenario]


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
        env = Environment()
        core = FiveGCore(env, FACTORIES[system]())
        runner = ProcedureRunner(core)
        results = []

        def one(ue):
            results.append((yield from runner.register_ue(ue, gnb_id=1)))
            results.append((yield from runner.establish_session(ue)))

        for index in range(3):
            env.process(one(core.add_ue(f"imsi-2089300000990{index:02d}")))
        env.run()
        assert sorted((r.event, r.messages) for r in results) == (
            [("registration", 32)] * 3 + [("session-request", 27)] * 3
        )
        assert core.bus.total_messages() == 3 * (32 + 27)


class TestTablesAreTheSequence:
    """One UE per access type, one procedure at a time: each result's
    message count is the one its tables spell out."""

    @pytest.mark.parametrize("system", sorted(FACTORIES))
    def test_messages_read_off_the_tables(self, system):
        env = Environment()
        core = FiveGCore(env, FACTORIES[system]())
        core.add_n3iwf(100)
        runner = ProcedureRunner(core)
        ue = core.add_ue("imsi-208930000098001")
        wifi = core.add_ue("imsi-208930000098002")
        refused = core.add_ue("imsi-208930000098003")
        results = []

        def scenario():
            for procedure in (
                runner.register_ue(ue, gnb_id=1),
                runner.establish_session(ue, 1),
                runner.establish_session(ue, 2),
                runner.handover(ue, target_gnb_id=2),
                runner.xn_handover(ue, target_gnb_id=1),
                runner.release_to_idle(ue),
                runner.page_ue(ue),
                runner.deregister_ue(ue),
                runner.register_ue_non3gpp(wifi, n3iwf_id=100),
                runner.establish_session_non3gpp(wifi),
                runner.register_ue(refused, gnb_id=1),
                runner.establish_session(refused),
            ):
                results.append((yield from procedure))
            core.gnbs[2].max_ues = 0
            results.append((yield from runner.handover(refused, 2)))

        env.process(scenario())
        env.run()
        assert [result.event for result in results] == [
            event for event, _, _ in SEQUENCES
        ]
        for result, (event, tables, expected) in zip(results, SEQUENCES):
            assert result.messages == expected == table_messages(tables), event
