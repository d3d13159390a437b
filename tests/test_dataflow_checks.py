"""Seeded-fixture tests for the lifecycle checks W006 and W008.

Each fixture triggers exactly its intended finding, with the path
evidence asserted; the "clean" twins prove the checks understand the
repo's legal idioms (rehome, decoded rule ids).
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
        files, select=checks or ["W006", "W008"]
    )


def codes(report):
    return [f.code for f in report.findings]


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
                def drop(table, seid):
                    s = table.remove(seid)
                    s.install_far(3)  # repro: noqa[W006,W008]
            """,
        }
        report = run_checks(tmp_path, tree, checks=["W006"])
        assert report.findings == []  # W008 did not run: not judged
        assert report.suppressed == 1
        # With W008 running too, its half of the comment excuses
        # nothing, which is itself reported.
        report = run_checks(tmp_path, tree, checks=["W006", "W008"])
        assert codes(report) == ["U001"]
        assert "W008 does not fire here" in report.findings[0].message

    def test_noqa_for_other_code_does_not_suppress(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/up.py": """
                def drop(table, seid):
                    s = table.remove(seid)
                    s.install_far(3)  # repro: noqa[W008]
            """,
        }, checks=["W006"])
        assert codes(report) == ["W006"]

    def test_instrumentation_packages_are_skipped(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/analysis/__init__.py": "",
            "pkg/analysis/probe.py": """
                def drop(table, seid):
                    s = table.remove(seid)
                    s.install_far(3)
            """,
        })
        assert report.findings == []

    def test_messages_are_line_free_for_baseline_immunity(self, tmp_path):
        # Baseline keys are (path, code, message): the message must not
        # embed line numbers or shifting code would go stale.
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/up.py": """
                def drop(table, seid):
                    s = table.remove(seid)
                    s.install_far(3)
            """,
        })
        shifted = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/up.py": """
                # a comment pushing everything down


                def drop(table, seid):
                    s = table.remove(seid)
                    s.install_far(3)
            """,
        })
        assert [f.message for f in report.findings] == [
            f.message for f in shifted.findings
        ]
        assert report.findings[0].line != shifted.findings[0].line


class TestSharedVocabulary:
    """The sanitizer's states and kinds come from the shared vocabulary."""

    def test_sanitizer_states_come_from_lifecycle(self):
        assert sanitizer._State.IN_FLIGHT.value == (
            lifecycle.TRANSPORT_IN_FLIGHT
        )
        assert sanitizer._State.IN_RING.value == lifecycle.TRANSPORT_IN_RING
        assert sanitizer._State.CHECKED_OUT.value == (
            lifecycle.TRANSPORT_CHECKED_OUT
        )

    def test_violation_kind_strings(self):
        assert lifecycle.MUTATE_AFTER_SEND == "mutate-after-send"
        assert lifecycle.DOUBLE_ENQUEUE == "double-enqueue"
        assert lifecycle.USE_AFTER_DEQUEUE == "use-after-dequeue"
