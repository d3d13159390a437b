"""Tests for the file-local rules R001–R008 (repro.analysis.rules).

Every rule gets at least one seeded-violation fixture that must fire
and one clean fixture that must not, plus coverage for the noqa
suppression convention.  The CLI itself (exit codes, ``--json``,
``--format github``, the unused-suppression finding) is exercised in
``tests/test_analysis_cli.py``; the CLI cases that remain here predate
it and keep their names because the tier-1 floor lists them.
"""

import glob
import json
import os
import textwrap

import pytest

from repro.analysis import rules as rules_mod
from repro.analysis.__main__ import github_annotation, main
from repro.analysis.analyzer import analyze, iter_python_files, load_files
from repro.analysis.rules import RULE_REGISTRY, Finding

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_lint(source, path="src/repro/example.py", select=None):
    """Run the R-rules over an in-memory snippet as if it lived at
    ``path``."""
    return analyze(
        [(path, textwrap.dedent(source))],
        select=sorted(RULE_REGISTRY) if select is None else select,
    ).findings


def codes(findings):
    return [f.code for f in findings]


@pytest.fixture(scope="module")
def repo_report():
    """One full run over the repo's ``src tests`` (several cases read it)."""
    cwd = os.getcwd()
    os.chdir(REPO_ROOT)
    try:
        return analyze(load_files(["src", "tests"]))
    finally:
        os.chdir(cwd)


class TestRegistry:
    def test_all_rules_registered(self):
        assert set(RULE_REGISTRY) == {
            "R001", "R002", "R003", "R004", "R005", "R006", "R007",
            "R008",
        }

    def test_duplicate_code_rejected(self):
        with pytest.raises(ValueError):
            @rules_mod.register_rule
            class Duplicate(rules_mod.Rule):
                code = "R001"

    def test_rules_are_pluggable(self, monkeypatch):
        class Custom(rules_mod.Rule):
            code = "R999"
            name = "custom"

            def check(self, ctx):
                yield self.finding(ctx, ctx.tree, "always fires")

        monkeypatch.setitem(RULE_REGISTRY, "R999", Custom)
        findings = run_lint("x = 1\n", path="src/repro/x.py",
                            select=["R999"])
        assert codes(findings) == ["R999"]


class TestWallClockR001:
    def test_fires_on_time_time(self):
        findings = run_lint(
            """
            import time
            def stamp():
                return time.time()
            """
        )
        assert "R001" in codes(findings)

    def test_fires_on_datetime_now(self):
        findings = run_lint(
            """
            import datetime
            def stamp():
                return datetime.datetime.now()
            """
        )
        assert "R001" in codes(findings)

    def test_fires_on_perf_counter_outside_benchmarks(self):
        findings = run_lint(
            """
            import time
            begin = time.perf_counter()
            """,
            path="src/repro/sim/engine_extra.py",
        )
        assert "R001" in codes(findings)

    def test_perf_counter_allowed_in_experiments(self):
        findings = run_lint(
            """
            import time
            begin = time.perf_counter()
            """,
            path="src/repro/experiments/figXX.py",
        )
        assert "R001" not in codes(findings)

    def test_clean_env_now_does_not_fire(self):
        findings = run_lint(
            """
            def stamp(env):
                return env.now
            """
        )
        assert "R001" not in codes(findings)


class TestUnseededRandomR002:
    def test_fires_on_module_level_random(self):
        findings = run_lint(
            """
            import random
            def jitter():
                return random.random()
            """
        )
        assert "R002" in codes(findings)

    def test_fires_on_seedless_random_instance(self):
        findings = run_lint(
            """
            import random
            rng = random.Random()
            """
        )
        assert "R002" in codes(findings)

    def test_seeded_random_instance_allowed(self):
        findings = run_lint(
            """
            import random
            rng = random.Random(42)
            """
        )
        assert "R002" not in codes(findings)

    def test_stream_rng_usage_allowed(self):
        findings = run_lint(
            """
            from repro.sim.rng import StreamRNG
            rng = StreamRNG(7).stream("arrivals")
            value = rng.random()
            """
        )
        assert "R002" not in codes(findings)


class TestBlockingSleepR003:
    def test_fires_on_time_sleep(self):
        findings = run_lint(
            """
            import time
            def handler(message, bus):
                time.sleep(0.1)
            """
        )
        assert "R003" in codes(findings)

    def test_fires_on_imported_sleep_alias(self):
        findings = run_lint(
            """
            from time import sleep as snooze
            def proc(env):
                snooze(1)
            """
        )
        assert "R003" in codes(findings)

    def test_env_timeout_allowed(self):
        findings = run_lint(
            """
            def proc(env):
                yield env.timeout(0.1)
            """
        )
        assert "R003" not in codes(findings)


class TestFrozenMessageR004:
    def test_fires_on_unfrozen_dataclass_in_message_module(self):
        findings = run_lint(
            """
            from dataclasses import dataclass

            @dataclass
            class SomeRequest:
                supi: str = "imsi-1"
            """,
            path="src/repro/sbi/messages.py",
        )
        assert "R004" in codes(findings)

    def test_fires_on_dataclass_call_without_frozen(self):
        findings = run_lint(
            """
            from dataclasses import dataclass

            @dataclass(eq=True)
            class SomeIE:
                value: int = 0
            """,
            path="src/repro/pfcp/ies.py",
        )
        assert "R004" in codes(findings)

    def test_frozen_dataclass_passes(self):
        findings = run_lint(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class SomeRequest:
                supi: str = "imsi-1"
            """,
            path="src/repro/sbi/messages.py",
        )
        assert "R004" not in codes(findings)

    def test_non_message_module_not_checked(self):
        findings = run_lint(
            """
            from dataclasses import dataclass

            @dataclass
            class RuntimeState:
                counter: int = 0
            """,
            path="src/repro/up/session.py",
        )
        assert "R004" not in codes(findings)


class TestNowEqualityR005:
    def test_fires_on_exact_equality(self):
        findings = run_lint("ok = env.now == 1.5\n")
        assert "R005" in codes(findings)

    def test_fires_on_not_equal(self):
        findings = run_lint("ok = 2.0 != env.now\n")
        assert "R005" in codes(findings)

    def test_approx_comparison_allowed(self):
        findings = run_lint(
            """
            import pytest
            ok = env.now == pytest.approx(1.5)
            """
        )
        assert "R005" not in codes(findings)

    def test_inequality_allowed(self):
        findings = run_lint("ok = env.now >= 1.5\n")
        assert "R005" not in codes(findings)


class TestMutableDefaultR006:
    def test_fires_on_list_default(self):
        findings = run_lint(
            """
            def collect(items=[]):
                return items
            """
        )
        assert "R006" in codes(findings)

    def test_fires_on_dict_kwonly_default(self):
        findings = run_lint(
            """
            def configure(*, options={}):
                return options
            """
        )
        assert "R006" in codes(findings)

    def test_none_default_allowed(self):
        findings = run_lint(
            """
            def collect(items=None):
                return items or []
            """
        )
        assert "R006" not in codes(findings)

    def test_dataclass_field_factory_allowed(self):
        findings = run_lint(
            """
            from dataclasses import dataclass, field

            @dataclass
            class Holder:
                items: list = field(default_factory=list)
            """
        )
        assert "R006" not in codes(findings)


class TestPrintInLibraryR007:
    SNIPPET = """
        def report(value):
            print("value:", value)
        """

    def test_fires_in_library_code(self):
        findings = run_lint(self.SNIPPET, path="src/repro/core/rings.py")
        assert "R007" in codes(findings)

    def test_exempt_in_main_modules(self):
        findings = run_lint(self.SNIPPET, path="src/repro/obs/__main__.py")
        assert "R007" not in codes(findings)

    def test_exempt_in_experiments(self):
        findings = run_lint(
            self.SNIPPET, path="src/repro/experiments/fig08.py"
        )
        assert "R007" not in codes(findings)

    def test_exempt_lint_runner(self):
        # The runner is the package's __main__ now.
        findings = run_lint(
            self.SNIPPET, path="src/repro/analysis/__main__.py"
        )
        assert "R007" not in codes(findings)

    def test_not_applied_outside_src(self):
        findings = run_lint(self.SNIPPET, path="tests/test_example.py")
        assert "R007" not in codes(findings)

    def test_shadowed_print_method_allowed(self):
        findings = run_lint(
            """
            def emit(writer):
                writer.print("ok")
            """,
            path="src/repro/core/nf.py",
        )
        assert "R007" not in codes(findings)

    def test_noqa_suppresses(self):
        findings = run_lint(
            """
            def debug(value):
                print(value)  # repro: noqa[R007]
            """,
            path="src/repro/core/nf.py",
        )
        assert "R007" not in codes(findings)


class TestNonOwnerMutationR008:
    def test_fires_on_rule_map_write_outside_up(self):
        findings = run_lint(
            """
            def hack(session):
                session.pdrs[1] = "pdr"
            """,
            path="src/repro/cp/smf_extra.py",
        )
        assert "R008" in codes(findings)

    def test_fires_on_report_pending_write_outside_up(self):
        findings = run_lint(
            """
            def clear(session):
                session.report_pending = False
            """,
            path="src/repro/cp/smf_extra.py",
        )
        assert "R008" in codes(findings)

    def test_fires_on_mutating_method_call(self):
        findings = run_lint(
            """
            def purge(table):
                table._by_seid.clear()
            """,
            path="src/repro/deploy/purge_example.py",
        )
        assert "R008" in codes(findings)

    def test_fires_on_data_path_index_write(self):
        # The two hash tables the UPF-U probes are SessionTable's to
        # write: a steering helper must go through add()/remove().
        findings = run_lint(
            """
            def steer(table, teid, session):
                table._teid_index[teid] = session
            """,
            path="src/repro/deploy/steer_example.py",
        )
        assert "R008" in codes(findings)

    def test_test_code_is_out_of_scope(self):
        # The race-detector tests seed such writes on purpose.
        findings = run_lint(
            """
            def purge(table):
                table._by_seid.clear()
            """,
            path="tests/test_fixture_example.py",
        )
        assert "R008" not in codes(findings)

    def test_fires_on_del_subscript(self):
        findings = run_lint(
            """
            def drop(session, far_id):
                del session.fars[far_id]
            """,
            path="src/repro/resiliency/helper.py",
        )
        assert "R008" in codes(findings)

    def test_exempt_inside_up_package(self):
        # The UPF-U's flag and the session table's own index writes
        # stay the up package's business; only the rule maps are
        # narrowed to their session's mutators.
        findings = run_lint(
            """
            def flush(session):
                session.report_pending = False

            def index(table, session):
                table._by_seid[session.seid] = session
                table._teid_index.pop(session.ul_teid)
            """,
            path="src/repro/up/session_extra.py",
        )
        assert "R008" not in codes(findings)

    def test_session_writing_its_own_rule_maps_is_exempt(self):
        findings = run_lint(
            """
            class Session:
                def install_far(self, far):
                    self.fars[far.far_id] = far
                    self._publish("fars", self.fars, "install_far")
            """,
            path="src/repro/up/session_extra.py",
        )
        assert "R008" not in codes(findings)

    @pytest.mark.parametrize("shape", [
        # Update FAR written over the old rule instead of update_far.
        "session.fars[far.far_id] = far",
        # Create FAR without install_far.
        "session.fars[create.far_id] = far_from_ie(create)",
        # Create PDR without install_pdr.
        "session.pdrs[pdr.pdr_id] = pdr",
    ], ids=["update-far", "create-far", "create-pdr"])
    def test_fires_on_handler_bypassing_the_mutator_inside_up(self, shape):
        findings = run_lint(
            f"""
            class UPFControlPlane:
                def _modify(self, session, far, create, pdr):
                    {shape}
            """,
            path="src/repro/up/upf_c.py",
        )
        assert codes(findings) == ["R008"]
        assert "call the session's mutator" in findings[0].message

    def test_reads_do_not_fire(self):
        findings = run_lint(
            """
            def inspect(session):
                return list(session.pdrs.values())
            """,
            path="src/repro/cp/smf_extra.py",
        )
        assert "R008" not in codes(findings)

    def test_self_attribute_of_other_class_exempt(self):
        findings = run_lint(
            """
            class Unrelated:
                def reset(self):
                    self.pdrs = {}
            """,
            path="src/repro/obs/metrics_extra.py",
        )
        assert "R008" not in codes(findings)

    def test_noqa_suppresses(self):
        findings = run_lint(
            """
            def hack(session):
                session.pdrs[1] = "pdr"  # repro: noqa[R008]
            """,
            path="src/repro/cp/smf_extra.py",
        )
        assert "R008" not in codes(findings)


class TestSuppression:
    def test_bare_noqa_suppresses_all_codes(self):
        findings = run_lint(
            """
            import time
            t = time.time()  # repro: noqa
            """
        )
        assert findings == []

    def test_coded_noqa_suppresses_only_listed(self):
        findings = run_lint(
            """
            import time
            t = time.time()  # repro: noqa[R002]
            """
        )
        assert "R001" in codes(findings)

    def test_coded_noqa_matching_code(self):
        findings = run_lint(
            """
            import time
            t = time.time()  # repro: noqa[R001]
            """
        )
        assert findings == []


class TestRunnerAndCli:
    def test_repo_is_clean(self, repo_report):
        """The acceptance gate: no findings, with no baseline or budget
        file to hide any (every exemption is an inline noqa)."""
        assert repo_report.findings == []
        assert glob.glob(os.path.join(REPO_ROOT, "analysis-*.json")) == []

    def test_cli_exit_zero_on_repo(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert main([]) == 0
        assert capsys.readouterr().out == ""

    def test_cli_exit_nonzero_on_violation(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nt = time.time()\n")
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "R001" in out
        assert "bad.py:2:" in out

    def test_cli_json_output(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(x=[]):\n    return x\n")
        assert main(["--json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)["findings"]
        assert payload[0]["code"] == "R006"
        assert payload[0]["line"] == 1
        assert payload[0]["severity"] == "error"

    def test_cli_select_filters_rules(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nt = time.time()\ndef f(x=[]):\n    pass\n")
        assert main(["--select", "R006", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "R006" in out and "R001" not in out

    def test_cli_ignore_filters_rules(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nt = time.time()\n")
        assert main(["--ignore", "R001", str(bad)]) == 0

    def test_cli_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()]
        # The epoch-publish, atomic-section, descriptor, leak and
        # session-lifecycle checks are gone: each hazard has one
        # detector (DESIGN §6.1), and a rule write on a removed session
        # is refused at runtime.
        assert listed == sorted(RULE_REGISTRY) + [
            "W001", "W004", "W008", "W009",
        ]

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        findings = analyze(load_files([str(bad)])).findings
        assert codes(findings) == ["R000"]

    def test_iter_python_files_skips_hidden_and_pycache(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "x.py").write_text("")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "y.py").write_text("")
        (tmp_path / "ok.py").write_text("")
        files = list(iter_python_files([str(tmp_path)]))
        assert [f for f in files if f.endswith("ok.py")] == files

    def test_finding_format(self):
        finding = Finding(
            path="src/x.py", line=3, col=7, code="R001",
            severity="error", message="boom",
        )
        assert finding.format() == "src/x.py:3:7: R001 [error] boom"


class TestBaseline:
    """The baseline file is gone; what it guarded is held by the inline
    ``noqa`` and the unused-suppression finding.  Each case is the old
    one with the baseline entry replaced by a comment on the line (the
    class and test names are the tier-1 floor's)."""

    BAD = "import time\nt = time.time()\n"
    EXCUSED = "import time\nt = time.time()  # repro: noqa[R001] -- fixture\n"

    def _file(self, tmp_path, text):
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_text(text)
        return bad

    def test_new_finding_fails_despite_baseline(self, tmp_path, capsys):
        bad = self._file(
            tmp_path, self.EXCUSED + "def f(x=[]):\n    return x\n"
        )
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "R006" in out and "R001" not in out

    def test_second_instance_of_baselined_violation_fails(
        self, tmp_path, capsys
    ):
        # An inline exemption covers its own line, not the next copy.
        bad = self._file(tmp_path, self.EXCUSED + "u = time.time()\n")
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "bad.py:3:" in out and "bad.py:2:" not in out

    def test_baseline_survives_line_shift(self, tmp_path, capsys):
        # The exemption is on the line: it moves with the code.
        bad = self._file(tmp_path, self.EXCUSED)
        assert main([str(bad)]) == 0
        bad.write_text("# padding\n# more padding\n" + self.EXCUSED)
        assert main([str(bad)]) == 0

    def test_fixed_finding_makes_baseline_stale(self, tmp_path, capsys):
        # Paying off the debt without deleting its exemption fails the
        # run: a leftover noqa would silently absorb the next
        # regression on that line.
        bad = self._file(tmp_path, "t = 0  # repro: noqa[R001] -- fixture\n")
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "U001" in out and "unused suppression" in out
        assert "R001 does not fire here" in out
        # Deleting the comment clears the failure.
        bad.write_text("t = 0\n")
        assert main([str(bad)]) == 0

    def test_missing_baseline_file_is_error(self, tmp_path, capsys):
        # ``--baseline`` (like ``--write-baseline``/``--budget``) is no
        # longer an option: argparse refuses it with exit 2.
        bad = self._file(tmp_path, self.BAD)
        for retired in ("--baseline", "--write-baseline", "--budget"):
            with pytest.raises(SystemExit) as exc:
                main([retired, str(tmp_path / "nope.json"), str(bad)])
            assert exc.value.code == 2

    def test_committed_repo_baseline_gates_clean(self, repo_report):
        """No committed baseline or budget file, and the repo gate is
        green on inline exemptions alone."""
        assert glob.glob(os.path.join(REPO_ROOT, "analysis-*.json")) == []
        assert repo_report.findings == []
        assert repo_report.suppressed == 17  # 8 W001 + 8 W004 + 1 R001


class TestGithubFormat:
    BAD = "import time\nt = time.time()\n"

    def _bad_file(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(self.BAD)
        return bad

    def test_findings_render_as_workflow_annotations(self, tmp_path, capsys):
        bad = self._bad_file(tmp_path)
        assert main(["--format", "github", str(bad)]) == 1
        out = capsys.readouterr().out
        line = out.strip().splitlines()[0]
        assert line.startswith("::error file=")
        assert f"file={bad}" in line
        assert "line=2" in line
        assert "title=R001::" in line

    def test_annotation_escapes_newlines_and_percent(self):
        finding = Finding(
            path="src/x.py", line=3, col=7, code="R001",
            severity="warning", message="50% broken\nsecond line",
        )
        rendered = github_annotation(finding)
        assert rendered.startswith("::warning file=src/x.py,line=3,col=7")
        assert "\n" not in rendered
        assert "50%25 broken%0Asecond line" in rendered
