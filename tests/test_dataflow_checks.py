"""Seeded-fixture tests for the typestate checks W005–W008.

Each fixture triggers exactly its intended finding, with the call
chain / path evidence asserted; the "clean" twins prove the checks
understand the repo's legal idioms (rehome, guarded release, bounded
recovery).
"""

import textwrap

import pytest

from repro.analysis import lifecycle, sanitizer
from repro.analysis.analyzer import analyze


def run_checks(tmp_path, tree, checks=None):
    files = []
    for relpath, source in sorted(tree.items()):
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        files.append((str(path), path.read_text()))
    return analyze(
        files, select=checks or ["W005", "W006", "W007", "W008"]
    )


def codes(report):
    return [f.code for f in report.findings]


class TestW005Descriptor:
    def test_mutate_after_send_field_write(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/up.py": """
                def emit(chan, desc):
                    chan.send(desc)
                    desc.seq = 2
            """,
        }, checks=["W005"])
        assert codes(report) == ["W005"]
        finding = report.findings[0]
        assert lifecycle.MUTATE_AFTER_SEND in finding.message
        assert "'sent'" in finding.message
        assert any("send() hands over 'desc'" in s for s in finding.chain)
        assert any("writes .seq" in s for s in finding.chain)

    def test_double_enqueue(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/up.py": """
                def emit(ring, desc):
                    ring.enqueue(desc)
                    ring.enqueue(desc)
            """,
        }, checks=["W005"])
        assert codes(report) == ["W005"]
        assert lifecycle.DOUBLE_ENQUEUE in report.findings[0].message

    def test_mutating_container_method_after_send(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/up.py": """
                def emit(chan, desc):
                    chan.send(desc)
                    desc.payload.append(1)
            """,
        }, checks=["W005"])
        assert codes(report) == ["W005"]
        assert lifecycle.MUTATE_AFTER_SEND in report.findings[0].message

    def test_interprocedural_mutation_through_helper(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/up.py": """
                def stamp(desc):
                    desc.seq = 9

                def emit(chan, desc):
                    chan.send(desc)
                    stamp(desc)
            """,
        }, checks=["W005"])
        assert codes(report) == ["W005"]
        finding = report.findings[0]
        assert lifecycle.MUTATE_AFTER_SEND in finding.message
        assert any("passes 'desc' to pkg.up.stamp" in s
                   for s in finding.chain)
        assert any("writes .seq" in s for s in finding.chain)

    def test_branch_where_only_one_path_sends(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/up.py": """
                def emit(chan, desc, flag):
                    if flag:
                        chan.send(desc)
                    desc.seq = 2
            """,
        }, checks=["W005"])
        # The mutation is reachable after the send on the flag path.
        assert codes(report) == ["W005"]

    def test_rebinding_resets_the_descriptor(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/up.py": """
                def emit(chan, desc, pool):
                    chan.send(desc)
                    desc = pool.allocate()
                    desc.seq = 1
                    chan.send(desc)
            """,
        }, checks=["W005"])
        assert report.findings == []

    def test_bus_style_multiarg_send_is_not_a_handoff(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/up.py": """
                def exchange(bus, source, dest, msg):
                    bus.send(source, dest, msg)
                    bus.send(dest, source, msg)
            """,
        }, checks=["W005"])
        assert report.findings == []


class TestW006SessionLifecycle:
    def test_use_after_remove(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/cp.py": """
                class UPFSession:
                    pass

                class Handler:
                    def modify(self, table):
                        s = UPFSession()
                        table.add(s)
                        table.remove(s.seid)
                        s.install_far(3)
            """,
        }, checks=["W006"])
        assert codes(report) == ["W006"]
        finding = report.findings[0]
        assert lifecycle.USE_AFTER_REMOVE in finding.message
        assert "'removed'" in finding.message
        assert any("state 'removed'" in s for s in finding.chain)

    def test_double_establish(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/cp.py": """
                class UPFSession:
                    pass

                class Handler:
                    def establish(self, table, mirror):
                        s = UPFSession()
                        table.add(s)
                        mirror.add(s)
            """,
        }, checks=["W006"])
        assert codes(report) == ["W006"]
        assert lifecycle.DOUBLE_ESTABLISH in report.findings[0].message

    def test_remove_before_establish(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/cp.py": """
                class UPFSession:
                    pass

                class Handler:
                    def oops(self, table):
                        s = UPFSession()
                        table.remove(s.seid)
            """,
        }, checks=["W006"])
        assert codes(report) == ["W006"]
        assert lifecycle.REMOVE_BEFORE_ESTABLISH in report.findings[0].message

    def test_rehome_remove_then_add_is_legal(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/cp.py": """
                class Handler:
                    def rehome(self, source, target, seid):
                        s = source.remove(seid)
                        target.add(s)
            """,
        }, checks=["W006"])
        assert report.findings == []

    def test_dangling_far_reference_on_some_path(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/cp.py": """
                class UPFSession:
                    pass

                class FAR:
                    def __init__(self, far_id):
                        self.far_id = far_id

                class PDR:
                    def __init__(self, far_id):
                        self.far_id = far_id

                class Handler:
                    def establish(self, flag):
                        s = UPFSession()
                        s.install_far(FAR(far_id=1))
                        if flag:
                            s.install_far(FAR(far_id=2))
                        s.install_pdr(PDR(far_id=2))
            """,
        }, checks=["W006"])
        assert codes(report) == ["W006"]
        finding = report.findings[0]
        assert lifecycle.DANGLING_RULE_REF in finding.message
        assert "far_id=2" in finding.message
        assert any("no matching install_far on every path" in s
                   for s in finding.chain)

    def test_far_installed_on_every_path_is_clean(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/cp.py": """
                class UPFSession:
                    pass

                class FAR:
                    def __init__(self, far_id):
                        self.far_id = far_id

                class PDR:
                    def __init__(self, far_id):
                        self.far_id = far_id

                class Handler:
                    def establish(self):
                        s = UPFSession()
                        s.install_far(FAR(far_id=1))
                        s.install_pdr(PDR(far_id=1))
            """,
        }, checks=["W006"])
        assert report.findings == []

    def test_decoded_rule_ids_are_not_flagged(self, tmp_path):
        # Non-constant far_id (decoded from a message) marks the
        # session's rule set unknown — no dangling-ref claims.
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/cp.py": """
                class UPFSession:
                    pass

                class FAR:
                    def __init__(self, far_id):
                        self.far_id = far_id

                class PDR:
                    def __init__(self, far_id):
                        self.far_id = far_id

                class Handler:
                    def establish(self, ie):
                        s = UPFSession()
                        s.install_far(FAR(far_id=ie.far_id))
                        s.install_pdr(PDR(far_id=7))
            """,
        }, checks=["W006"])
        assert report.findings == []


class TestW007LeakOnRaise:
    def test_acquire_then_raise_leaks(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/up.py": """
                class Store:
                    def grab(self, slot, limit):
                        self.pool.acquire(slot)
                        if slot > limit:
                            raise ValueError(slot)
            """,
        }, checks=["W007"])
        assert codes(report) == ["W007"]
        finding = report.findings[0]
        assert lifecycle.LEAK_ON_RAISE in finding.message
        assert "pool entry" in finding.message
        assert any("acquire() acquires" in s for s in finding.chain)
        assert any("state 'held'" in s for s in finding.chain)

    def test_release_on_recovery_path_is_clean(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/up.py": """
                class Store:
                    def grab(self, slot):
                        self.pool.acquire(slot)
                        try:
                            self.table.add(slot)
                        except Exception:
                            self.pool.release(slot)
                            raise
            """,
        }, checks=["W007"])
        assert report.findings == []

    def test_removed_session_lost_when_target_add_raises(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/up.py": """
                class Mover:
                    def rehome(self, seid, target):
                        session = self.table.remove(seid)
                        self.other[target].add(session)
            """,
        }, checks=["W007"])
        assert codes(report) == ["W007"]
        finding = report.findings[0]
        assert lifecycle.LEAK_ON_RAISE in finding.message
        assert "removed session 'session'" in finding.message
        assert any("add() may raise" in s for s in finding.chain)

    def test_restore_to_source_on_failure_is_clean(self, tmp_path):
        # Bounded recovery: the second add() attempt on the except path
        # discharges the held session on both of its own edges.
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/up.py": """
                class Mover:
                    def rehome(self, seid, target):
                        session = self.table.remove(seid)
                        try:
                            self.other[target].add(session)
                        except Exception:
                            self.table.add(session)
                            raise
            """,
        }, checks=["W007"])
        assert report.findings == []

    def test_pin_guard_idiom_is_clean(self, tmp_path):
        # `if not lb.pin(...): raise` — the raise arm never held the
        # pin; `if self.lb is not None:` on the recovery path refines
        # away the arm where no pin can exist.
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/up.py": """
                class Table:
                    def add(self, session, shard):
                        if self.lb is not None and not self.lb.pin(
                            session, shard
                        ):
                            raise ValueError(shard)
                        try:
                            self.inner.add(session)
                        except Exception:
                            if self.lb is not None:
                                self.lb.release(session)
                            raise
            """,
        }, checks=["W007"])
        assert report.findings == []

    def test_returning_the_session_transfers_ownership(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/up.py": """
                class Table:
                    def pop(self, seid):
                        session = self.inner.remove(seid)
                        return session
            """,
        }, checks=["W007"])
        assert report.findings == []


class TestW008DeadConfig:
    def test_unread_config_flag(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/conf.py": """
                class KnobConfig:
                    used: bool = True
                    orphaned: bool = False

                def reader(cfg):
                    return cfg.used
            """,
        }, checks=["W008"])
        assert codes(report) == ["W008"]
        finding = report.findings[0]
        assert lifecycle.DEAD_CONFIG in finding.message
        assert "'orphaned'" in finding.message
        assert finding.severity == "warning"

    def test_discarded_metric_instrument(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/wiring.py": """
                def wire(registry):
                    registry.gauge("upf.depth")
                    kept = registry.counter("upf.drops")
                    return kept
            """,
        }, checks=["W008"])
        assert codes(report) == ["W008"]
        assert "gauge()" in report.findings[0].message

    def test_private_and_read_fields_are_clean(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/conf.py": """
                class KnobConfig:
                    used: bool = True
                    _cache: dict = None

                def reader(cfg):
                    return cfg.used
            """,
        }, checks=["W008"])
        assert report.findings == []


class TestSharedMachinery:
    def test_multi_code_noqa_suppresses_both(self, tmp_path):
        tree = {
            "pkg/__init__.py": "",
            "pkg/up.py": """
                def emit(chan, desc):
                    chan.send(desc)
                    desc.seq = 2  # repro: noqa[W005,W006]
            """,
        }
        report = run_checks(tmp_path, tree, checks=["W005"])
        assert report.findings == []  # W006 did not run: not judged
        assert report.suppressed == 1
        # With W006 running too, its half of the comment excuses
        # nothing, which is itself reported.
        report = run_checks(tmp_path, tree, checks=["W005", "W006"])
        assert codes(report) == ["U001"]
        assert "W006 does not fire here" in report.findings[0].message

    def test_noqa_for_other_code_does_not_suppress(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/up.py": """
                def emit(chan, desc):
                    chan.send(desc)
                    desc.seq = 2  # repro: noqa[W006]
            """,
        }, checks=["W005"])
        assert codes(report) == ["W005"]

    def test_instrumentation_packages_are_skipped(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/analysis/__init__.py": "",
            "pkg/analysis/probe.py": """
                def emit(chan, desc):
                    chan.send(desc)
                    desc.seq = 2
            """,
        })
        assert report.findings == []

    def test_messages_are_line_free_for_baseline_immunity(self, tmp_path):
        # Baseline keys are (path, code, message): the message must not
        # embed line numbers or shifting code would go stale.
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/up.py": """
                def emit(chan, desc):
                    chan.send(desc)
                    desc.seq = 2
            """,
        })
        shifted = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/up.py": """
                # a comment pushing everything down


                def emit(chan, desc):
                    chan.send(desc)
                    desc.seq = 2
            """,
        })
        assert [f.message for f in report.findings] == [
            f.message for f in shifted.findings
        ]
        assert report.findings[0].line != shifted.findings[0].line


class TestSharedVocabulary:
    """The sanitizer and the static checks must cite identical terms."""

    def test_sanitizer_states_come_from_lifecycle(self):
        assert sanitizer._State.IN_FLIGHT.value == (
            lifecycle.TRANSPORT_IN_FLIGHT
        )
        assert sanitizer._State.IN_RING.value == lifecycle.TRANSPORT_IN_RING
        assert sanitizer._State.CHECKED_OUT.value == (
            lifecycle.TRANSPORT_CHECKED_OUT
        )

    def test_transport_states_map_onto_descriptor_protocol(self):
        assert set(lifecycle.TRANSPORT_STATE_NAMES.values()) <= set(
            lifecycle.DESCRIPTOR_STATES
        )

    def test_violation_kind_strings(self):
        assert lifecycle.MUTATE_AFTER_SEND == "mutate-after-send"
        assert lifecycle.DOUBLE_ENQUEUE == "double-enqueue"
        assert lifecycle.USE_AFTER_DEQUEUE == "use-after-dequeue"

    def test_w005_findings_cite_sanitizer_kinds(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/up.py": """
                def emit(chan, desc):
                    chan.send(desc)
                    chan.send(desc)
            """,
        }, checks=["W005"])
        assert report.findings[0].message.startswith(
            lifecycle.DOUBLE_ENQUEUE
        )
