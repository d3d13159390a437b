"""The whole-program checks (W001–W004) through ``python -m repro.analysis``.

These cases predate the single CLI (they drove the retired
``repro.analysis.program`` entry point) and keep their names because
the tier-1 floor lists them; new CLI behaviour is tested in
``tests/test_analysis_cli.py``.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.__main__ import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FIXTURE = {
    "pkg/__init__.py": "",
    "pkg/up/__init__.py": "",
    "pkg/up/mod.py": """
        class UPF:
            def process(self, pkt):
                return self._helper(pkt)

            def _helper(self, pkt):
                return [pkt]
    """,
    "pkg/sim/__init__.py": "",
    "pkg/sim/engine.py": "from ..up import mod\n",
}

ENTRY = "pkg.up.mod.UPF.process"


@pytest.fixture
def fixture_dir(tmp_path, monkeypatch):
    for relpath, source in sorted(FIXTURE.items()):
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_cli(args):
    return main(args)


class TestFindingsAndFilters:
    def test_findings_fail_the_run(self, fixture_dir, capsys):
        code = run_cli(["pkg", "--entry", ENTRY])
        out = capsys.readouterr().out
        assert code == 1
        assert "W001" in out and "W004" in out
        assert "call chain:" in out

    def test_select_restricts_codes(self, fixture_dir, capsys):
        code = run_cli(["pkg", "--entry", ENTRY, "--select", "W004"])
        out = capsys.readouterr().out
        assert code == 1
        assert "W004" in out and "W001" not in out

    def test_ignore_drops_codes(self, fixture_dir, capsys):
        code = run_cli(
            ["pkg", "--entry", ENTRY, "--ignore", "W001,W004"]
        )
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_unknown_code_rejected(self, fixture_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["pkg", "--select", "W099"])
        assert exc.value.code == 2
        assert "unknown code(s): W099" in capsys.readouterr().err


class TestOutputs:
    def test_json_report_carries_chains_and_stats(self, fixture_dir, capsys):
        run_cli(["pkg", "--entry", ENTRY, "--json"])
        data = json.loads(capsys.readouterr().out)
        by_code = {f["code"]: f for f in data["findings"]}
        assert set(by_code) == {"W001", "W004"}
        assert by_code["W001"]["chain"] == [
            "-> pkg.up.mod.UPF.process",
            "-> pkg.up.mod.UPF._helper",
        ]
        assert data["stats"]["functions"] > 0
        assert ENTRY in data["hot_path"]

    def test_github_format_annotates_lines(self, fixture_dir, capsys):
        run_cli(["pkg", "--entry", ENTRY, "--format", "github"])
        out = capsys.readouterr().out
        assert "::error file=" in out
        assert "title=W001::" in out
        # Annotations are one line per finding, no chain spill.
        assert all(
            line.startswith("::error") for line in out.strip().splitlines()
        )

    def test_graph_json_dump(self, fixture_dir, capsys):
        code = run_cli(["pkg", "--graph", "json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        pairs = {(e["caller"], e["callee"]) for e in data["edges"]}
        assert ("pkg.up.mod.UPF.process", "pkg.up.mod.UPF._helper") in pairs

    def test_graph_dot_focused_on_entries(self, fixture_dir, capsys):
        code = run_cli(["pkg", "--graph", "dot", "--graph-focus", ENTRY])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("digraph callgraph {")
        assert '"UPF.process" -> "UPF._helper"' in out


EXCUSED_HELPER = """
    class UPF:
        def process(self, pkt):
            return self._helper(pkt)

        def _helper(self, pkt):
            return %s  # repro: noqa[W001] -- fixture
"""


class TestBaselineAndBudget:
    """No budget or baseline file is read any more; what they granted
    and guarded is an inline comment (names are the tier-1 floor's)."""

    def test_budget_grants_intentional_allocations(self, fixture_dir, capsys):
        (fixture_dir / "pkg/up/mod.py").write_text(
            textwrap.dedent(EXCUSED_HELPER % "[pkt]")
        )
        code = run_cli(["pkg", "--entry", ENTRY, "--select", "W001"])
        assert code == 0

    def test_stale_budget_entry_fails_hard(self, fixture_dir, capsys):
        # The allocation is gone, its exemption is not: exit 1.
        (fixture_dir / "pkg/up/mod.py").write_text(
            textwrap.dedent(EXCUSED_HELPER % "pkt")
        )
        code = run_cli(["pkg", "--entry", ENTRY, "--select", "W001"])
        out = capsys.readouterr().out
        assert code == 1
        assert "U001" in out and "W001 does not fire here" in out

    def test_default_config_picked_up_from_cwd(self, fixture_dir, capsys):
        # With no path argument the CLI analyses ``src tests`` of the
        # working directory (and ``examples benchmarks`` where they
        # exist) — and reads nothing else from it: a stray
        # budget/baseline file excuses nothing.
        (fixture_dir / "pkg").rename(fixture_dir / "src")
        (fixture_dir / "tests").mkdir()
        for stray in ("analysis-budget.json", "analysis-baseline.json"):
            (fixture_dir / stray).write_text('{"version": 1}')
        code = run_cli(["--select", "W004", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [f["path"] for f in data["findings"]] == [
            os.path.join("src", "sim", "engine.py")
        ]


class TestRepoIntegration:
    def test_repo_tree_runs_clean_with_committed_config(
        self, monkeypatch, capsys
    ):
        monkeypatch.chdir(REPO_ROOT)
        code = run_cli([os.path.join("src", "repro"), "--json",
                        "--select", "W001,W004"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["findings"] == []
        assert data["suppressed"] == 16  # 8 W001 sites + 8 W004 imports

    def test_analyzer_is_not_imported_by_runtime_code(self):
        # Acceptance: disabled, the analyzer adds zero import-time cost.
        # The runtime set is exactly the vocabulary and the two opt-in
        # detectors.
        script = (
            "import sys; "
            "import repro.up, repro.cp, repro.sim, repro.deploy; "
            "loaded = sorted(m for m in sys.modules "
            "if m.startswith('repro.analysis.')); "
            "assert loaded == ['repro.analysis.lifecycle', "
            "'repro.analysis.races', 'repro.analysis.sanitizer'], loaded"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        subprocess.run(
            [sys.executable, "-c", script],
            check=True,
            env=env,
            cwd=REPO_ROOT,
        )
