"""Seeded-fixture tests for the dead-config check W008, the machinery
it shares with every check, and the shared lifecycle vocabulary.

Each fixture triggers exactly its intended finding, with the evidence
asserted; the "clean" twins prove the check understands the repo's
legal idioms (private fields, instruments that are kept).
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
        files, select=checks or ["W008"]
    )


def codes(report):
    return [f.code for f in report.findings]


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


DEAD_FLAG = """
    class KnobConfig:
        used: bool = True
        orphaned: bool = False{comment}

    def reader(cfg):
        return cfg.used
"""


class TestSharedMachinery:
    def test_multi_code_noqa_suppresses_both(self, tmp_path):
        tree = {
            "pkg/__init__.py": "",
            "pkg/conf.py": DEAD_FLAG.format(
                comment="  # repro: noqa[W004,W008]"
            ),
        }
        report = run_checks(tmp_path, tree, checks=["W008"])
        assert report.findings == []  # W004 did not run: not judged
        assert report.suppressed == 1
        # With W004 running too, its half of the comment excuses
        # nothing, which is itself reported.
        report = run_checks(tmp_path, tree, checks=["W004", "W008"])
        assert codes(report) == ["U001"]
        assert "W004 does not fire here" in report.findings[0].message

    def test_noqa_for_other_code_does_not_suppress(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/conf.py": DEAD_FLAG.format(
                comment="  # repro: noqa[W004]"
            ),
        }, checks=["W008"])
        assert codes(report) == ["W008"]

    def test_instrumentation_packages_are_skipped(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/analysis/__init__.py": "",
            "pkg/analysis/probe.py": DEAD_FLAG.format(comment=""),
        })
        assert report.findings == []

    def test_messages_are_line_free_for_baseline_immunity(self, tmp_path):
        # Baseline keys are (path, code, message): the message must not
        # embed line numbers or shifting code would go stale.
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/conf.py": DEAD_FLAG.format(comment=""),
        })
        shifted = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/conf.py": "# a comment pushing everything down\n\n\n"
            + textwrap.dedent(DEAD_FLAG.format(comment="")),
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
