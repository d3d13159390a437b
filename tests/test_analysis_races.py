"""Tests for the shared-state race detector (repro.analysis.races).

Three kinds of coverage:

* seeded hazards — fixtures that plant each violation class (same-
  instant cross-role conflict between processes or timer firings,
  non-owner write) and assert the exact report contents, including
  both access sites;
* clean runs — full attach, N2 handover, paging re-activation, and a
  UPF failover rebuild, each asserted race-free under an active
  detector (these double as regressions for the ownership fixes);
* the detector's own bookkeeping — role scoping, deduplication,
  strict mode, the disabled fast path.

The seeded fixtures intentionally violate the single-writer model —
they are the bug, on purpose — which is why the static ownership rule
R008 judges production code only and leaves ``tests/`` alone.
"""

import pytest

from repro.analysis import races
from repro.cp import FiveGCore, ProcedureRunner, SystemConfig, scenario
from repro.cp.scenario import ATTACH
from repro.net import Direction, FiveTuple, Packet, PacketKind
from repro.pfcp.builder import build_session_establishment
from repro.resiliency import ResiliencyFramework
from repro.sim import MS, Environment
from repro.up import FAR, RuleDelta, UPFControlPlane, UPFSession


UE_IP = 0x0A3C0001
SUPI = "imsi-208930000060001"


def _session(seid=1):
    return UPFSession(seid=seid, ue_ip=UE_IP, ul_teid=0x100)


class TestEngineSections:
    def test_yield_generation_counts_resumes(self):
        env = Environment()
        seen = []

        def proc():
            seen.append(env.yield_generation)
            yield env.timeout(1)
            seen.append(env.yield_generation)

        env.process(proc())
        env.run()
        assert seen == [1, 2]

    def test_generations_distinguish_interleaved_processes(self):
        env = Environment()
        seen = []

        def proc(tag):
            seen.append((tag, env.yield_generation))
            yield env.timeout(0)

        env.process(proc("a"))
        env.process(proc("b"))
        env.run()
        generations = [gen for _tag, gen in seen]
        assert len(set(generations)) == 2

    def test_named_process_exposes_name(self):
        env = Environment()

        def proc():
            yield env.timeout(0)

        process = env.process(proc(), name="upf-u")
        assert process.name == "upf-u"
        env.run()

    def test_nf_run_loop_is_named(self):
        from repro.core.nf import NetworkFunction

        env = Environment()
        nf = NetworkFunction(env, "upf-u", service_id=2)
        nf.start()
        assert nf._process.name == "upf-u"


class TestSeededNonOwnerWrite:
    def test_cp_clearing_report_pending_is_flagged(self):
        with races.traced() as det:
            session = _session()
            with det.role("upf-u"):
                session.report_pending = True
            with det.role("upf-c"):
                session.report_pending = False
        [violation] = det.violations
        assert violation.kind == "non-owner-write"
        assert violation.structure == "session(seid=1)"
        assert violation.part == "report_pending"
        assert violation.owner == "upf-u"
        # Both access sites are reported and point into this file.
        assert "test_analysis_races.py" in violation.first.site
        assert "test_analysis_races.py" in violation.second.site
        assert violation.first.role == "upf-u"
        assert violation.second.role == "upf-c"
        assert violation.diff == [("<value>", "True", "False")]
        text = violation.report()
        assert "prior write" in text
        assert "this  write" in text
        assert "report_pending" in text

    def test_upf_c_writing_report_pending_in_modify_is_flagged(
        self, monkeypatch
    ):
        """The write the note in ``UPFControlPlane._modify`` forbids:
        the PFCP handler runs as "upf-c", so a ``report_pending`` write
        from inside it is a non-owner write of UPF-U state."""
        is_buffering = UPFControlPlane._is_buffering

        def clearing(self, session, far_id):
            session.report_pending = False
            return is_buffering(self, session, far_id)

        monkeypatch.setattr(UPFControlPlane, "_is_buffering", clearing)
        env = Environment()
        with races.traced(env=env) as det:
            scenario.run(FiveGCore(env, SystemConfig.l25gc()), {SUPI: ATTACH})
        [violation] = det.violations
        assert violation.kind == "non-owner-write"
        assert violation.part == "report_pending"
        assert violation.owner == "upf-u"
        assert violation.second.role == "upf-c"

    def test_owner_write_is_clean(self):
        with races.traced() as det:
            session = _session()
            with det.role("upf-u"):
                session.report_pending = True
                session.report_pending = False
        assert det.violations == []

    def test_roleless_harness_write_is_exempt(self):
        """Setup/teardown code outside any role plays the operator CLI
        and is recorded but not checked."""
        with races.traced() as det:
            session = _session()
            session.report_pending = True
        assert det.violations == []
        assert det.accesses > 0

    def test_full_buffer_tail_drop_records_no_packets_write(self):
        """Regression: ``SmartBuffer.push`` used to fire the ``packets``
        write hook *before* the capacity check, so a tail-drop on a full
        buffer recorded a phantom write — and a full-buffer storm seen
        from a non-owner role was reported as a cross-role data race
        even though ``packets`` never changed."""
        packet = Packet(direction=Direction.DOWNLINK, size=100)
        with races.traced() as det:
            session = UPFSession(
                seid=1, ue_ip=UE_IP, ul_teid=0x100, buffer_capacity=2
            )
            with det.role("upf-u"):
                assert session.buffer.push(packet)
                assert session.buffer.push(packet)
            # Overflow observed from the non-owner role: the drop path
            # mutates only drop accounting, never ``packets``.
            with det.role("upf-c"):
                assert not session.buffer.push(packet)
        assert session.buffer.dropped == 1
        assert len(session.buffer) == 2
        assert det.violations == []

    def test_admitted_push_from_non_owner_still_flagged(self):
        """The fix narrows the hook to admitted pushes only — a push
        that *does* mutate ``packets`` from the wrong role must keep
        tripping the detector."""
        packet = Packet(direction=Direction.DOWNLINK, size=100)
        with races.traced() as det:
            session = UPFSession(
                seid=1, ue_ip=UE_IP, ul_teid=0x100, buffer_capacity=2
            )
            with det.role("upf-c"):
                assert session.buffer.push(packet)
        [violation] = det.violations
        assert violation.kind == "non-owner-write"
        assert violation.part == "packets"


class TestSeededWriteWriteConflict:
    def test_same_instant_cross_role_writes_conflict(self):
        env = Environment()
        with races.traced(env=env) as det:
            session = _session()

            def upf_u_writer():
                with det.role("upf-u"):
                    session.report_pending = True
                yield env.timeout(0)

            def rogue_writer():
                with det.role("upf-c"):
                    session.report_pending = False
                yield env.timeout(0)

            env.process(upf_u_writer())
            env.process(rogue_writer())
            env.run()
        conflicts = [
            v for v in det.violations if v.kind == "conflicting-access"
        ]
        [conflict] = conflicts
        assert conflict.part == "report_pending"
        assert {conflict.first.role, conflict.second.role} == {
            "upf-u", "upf-c",
        }
        # Same simulated instant, different atomic sections.
        assert conflict.first.time == pytest.approx(conflict.second.time)
        assert conflict.first.generation != conflict.second.generation
        assert "test_analysis_races.py" in conflict.first.site
        assert "test_analysis_races.py" in conflict.second.site

    def test_write_then_read_across_roles_conflicts(self):
        env = Environment()
        with races.traced(env=env) as det:
            session = _session()

            def writer():
                with det.role("upf-c"):
                    det.on_write(session, "fars", detail="seeded")
                yield env.timeout(0)

            def reader():
                with det.role("upf-u"):
                    det.on_read(session, "fars")
                yield env.timeout(0)

            env.process(writer())
            env.process(reader())
            env.run()
        kinds = [v.kind for v in det.violations]
        assert "conflicting-access" in kinds

    def test_reads_never_conflict(self):
        env = Environment()
        with races.traced(env=env) as det:
            session = _session()

            def reader(role_name):
                with det.role(role_name):
                    det.on_read(session, "fars")
                yield env.timeout(0)

            env.process(reader("upf-u"))
            env.process(reader("upf-c"))
            env.run()
        assert det.violations == []

    def test_same_atomic_section_never_conflicts(self):
        """A synchronous call chain (e.g. UPF-C triggering a flush that
        does UPF-U work) is program-ordered, not a race."""
        env = Environment()
        with races.traced(env=env) as det:
            session = _session()

            def chain():
                with det.role("upf-c"):
                    det.on_write(session, "fars", detail="modify")
                    with det.role("upf-u"):
                        det.on_read(session, "fars")
                yield env.timeout(0)

            env.process(chain())
            env.run()
        conflicts = [
            v for v in det.violations if v.kind == "conflicting-access"
        ]
        assert conflicts == []

    def test_same_instant_timer_firings_conflict(self):
        """Bus handlers, packet hops and the traffic source are timers:
        two firings at one instant are two atomic sections, so a
        cross-role write/read pair between them is a race."""
        env = Environment()
        with races.traced(env=env) as det:
            session = _session()

            def upf_u_write():
                with det.role("upf-u"):
                    session.report_pending = True

            def upf_c_read():
                with det.role("upf-c"):
                    det.on_read(session, "report_pending")

            env.call_later(1.0, upf_u_write)
            env.call_later(1.0, upf_c_read)
            env.run()
        [conflict] = det.violations
        assert conflict.kind == "conflicting-access"
        assert conflict.part == "report_pending"
        assert (conflict.first.role, conflict.second.role) == (
            "upf-u", "upf-c",
        )
        assert conflict.first.process == conflict.second.process == "<timer>"
        assert conflict.first.generation != conflict.second.generation
        assert "test_analysis_races.py" in conflict.second.site

    def test_main_thread_accesses_never_conflict(self):
        """Harness code runs between engine steps, so it is serialized
        against every process even at the same simulated time."""
        env = Environment()
        with races.traced(env=env) as det:
            session = _session()
            with det.role("upf-c"):
                det.on_write(session, "fars", detail="from main")

            def reader():
                with det.role("upf-u"):
                    det.on_read(session, "fars")
                yield env.timeout(0)

            env.process(reader())
            env.run()
        conflicts = [
            v for v in det.violations if v.kind == "conflicting-access"
        ]
        assert conflicts == []


class TestDetectorCore:
    def test_unregistered_objects_are_ignored(self):
        with races.traced() as det:
            det.on_write(object(), "anything")
            det.on_read(object(), "anything")
        assert det.accesses == 0
        assert det.violations == []

    def test_registered_predicate(self):
        with races.traced() as det:
            session = _session()
            assert det.registered(session)
            assert det.registered(session.buffer)
            assert not det.registered(object())

    def test_role_stack_nests_and_restores(self):
        det = races.RaceDetector()
        assert det._roles == []
        with det.role("upf-c"):
            assert det._roles == ["upf-c"]
            with det.role("upf-u"):
                assert det._roles == ["upf-c", "upf-u"]
            assert det._roles == ["upf-c"]
        assert det._roles == []

    def test_repeat_violations_deduplicate_with_count(self):
        with races.traced() as det:
            session = _session()
            with det.role("upf-u"):
                session.report_pending = True
            for _ in range(3):
                with det.role("upf-c"):
                    session.report_pending = False
        # First clear pairs with the upf-u write; the repeats pair with
        # the previous upf-c clear (same sites) and collapse into one
        # counted violation instead of flooding the report.
        assert len(det.violations) == 2
        assert det.violations[1].count == 2
        assert "2 occurrences" in det.violations[1].report()

    def test_strict_mode_raises(self):
        with pytest.raises(races.RaceError):
            with races.traced(strict=True) as det:
                session = _session()
                with det.role("upf-c"):
                    session.report_pending = False

    def test_disabled_hooks_cost_nothing(self, monkeypatch):
        """With no active detector the instrumented paths stay silent
        (also under ``pytest --race``, hence the explicit disable)."""
        monkeypatch.setattr(races, "_ACTIVE", None)
        assert races.active() is None
        session = _session()
        session.report_pending = True
        session.apply(RuleDelta(fars=(FAR(far_id=1),)))
        assert races.active() is None


class TestCleanScenarios:
    def test_attach_is_race_clean(self):
        env = Environment()
        with races.traced(env=env) as det:
            scenario.run(FiveGCore(env, SystemConfig.l25gc()), {SUPI: ATTACH})
        assert det.violations == [], det.report()
        assert det.accesses > 0

    def test_n2_handover_is_race_clean(self):
        env = Environment()
        with races.traced(env=env) as det:
            scenario.run(FiveGCore(env, SystemConfig.l25gc()),
                         {SUPI: [*ATTACH, ("handover", 2)]})
        assert det.violations == [], det.report()

    def test_paging_reactivation_is_race_clean(self):
        """Regression for the ownership fix in UPF-C's session modify:
        clearing ``report_pending`` (UPF-U state) is now left to the
        flush the UPF-U itself performs; the old direct clear from the
        PFCP handler fails this test as a non-owner-write."""
        env = Environment()
        with races.traced(env=env) as det:
            core = FiveGCore(env, SystemConfig.l25gc())
            # One downlink packet reaches the idle UE's session and its
            # data report pages the UE back.
            scenario.run(core, {SUPI: [
                *ATTACH, ("idle",), ("downlink", 1000, 0.001), ("report",),
                ("page",),
            ]})
            session = core.sessions.sessions()[0]
            # The paging cycle completed and the report flag is down
            # again — cleared by the UPF-U's flush, not by the UPF-C.
            assert len(core.ues[SUPI].received) == 1
            assert len(session.buffer) == 0
            assert session.report_pending is False
        assert det.violations == [], det.report()

    def test_upf_failover_rebuild_is_race_clean(self):
        """The §3.5 unit-failure path: checkpointed CP state restores
        into a survivor unit, the UPF session is rebuilt through the
        survivor's PFCP handler, and data flows — all race-free."""
        env = Environment()
        with races.traced(env=env) as det:
            primary = FiveGCore(env, SystemConfig.l25gc())
            survivor = FiveGCore(env, SystemConfig.l25gc())
            for core in (primary, survivor):
                for gnb in core.gnbs.values():
                    gnb.radio_latency = 0.0
            runner = ProcedureRunner(primary)
            ue = primary.add_ue(SUPI)
            framework = ResiliencyFramework(
                env,
                {"amf": primary.amf, "smf": primary.smf},
                sync_period=5 * MS,
            )
            framework.start()
            detail = {}

            def attach():
                yield from runner.register_ue(ue, gnb_id=1)
                framework.log_message(
                    "reg", Direction.UPLINK, PacketKind.CONTROL
                )
                yield from framework.commit_event()
                result = yield from runner.establish_session(ue)
                detail.update(result.detail)
                framework.log_message(
                    "est", Direction.UPLINK, PacketKind.CONTROL
                )
                yield from framework.commit_event()
                yield env.timeout(50 * MS)

            env.process(attach())
            env.run(until=env.now + 1.0)
            framework.stop()

            survivor.amf.restore(framework.remote.stores["amf"].state)
            survivor.smf.restore(framework.remote.stores["smf"].state)
            survivor.ues[ue.supi] = ue
            survivor.gnbs[1].connect(ue)
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

            before = len(ue.received)
            survivor.inject_downlink(
                Packet(
                    direction=Direction.DOWNLINK,
                    flow=FiveTuple(src_ip=1, dst_ip=detail["ue_ip"],
                                   src_port=80, dst_port=4000),
                    created_at=env.now,
                )
            )
            env.run(until=env.now + 1 * MS)
            assert len(ue.received) == before + 1
        assert det.violations == [], det.report()
