"""The typestate checks (W005–W008) through ``python -m repro.analysis``.

These cases predate the single CLI (they drove the retired
``repro.analysis.dataflow`` entry point and the ``all`` umbrella) and
keep their names because the tier-1 floor lists them; new CLI behaviour
is tested in ``tests/test_analysis_cli.py``.
"""

import json
import os
import textwrap

import pytest

from repro.analysis.__main__ import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DIRTY = {
    "pkg/__init__.py": "",
    "pkg/up.py": """
        def emit(chan, desc):
            chan.send(desc)
            desc.seq = 2
    """,
}

CLEAN = {
    "pkg/__init__.py": "",
    "pkg/up.py": """
        def emit(chan, desc):
            chan.send(desc)
    """,
}


@pytest.fixture
def write_tree(tmp_path, monkeypatch):
    def _write(tree):
        for relpath, source in sorted(tree.items()):
            path = tmp_path / relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source))
        monkeypatch.chdir(tmp_path)
        return tmp_path
    return _write


class TestExitCodes:
    def test_clean_tree_exits_zero(self, write_tree, capsys):
        write_tree(CLEAN)
        assert main(["pkg"]) == 0
        assert capsys.readouterr().out == ""

    def test_findings_exit_one(self, write_tree, capsys):
        write_tree(DIRTY)
        assert main(["pkg"]) == 1
        out = capsys.readouterr().out
        assert "W005" in out
        assert "call chain:" in out

    def test_missing_path_exits_two(self, write_tree, capsys):
        write_tree(CLEAN)
        assert main(["nonexistent"]) == 2

    def test_missing_baseline_exits_two(self, write_tree, capsys):
        # ``--baseline`` is not an option any more: bad usage, exit 2.
        write_tree(DIRTY)
        with pytest.raises(SystemExit) as exc:
            main(["pkg", "--baseline", "missing.json"])
        assert exc.value.code == 2


class TestSelection:
    def test_select_other_code_skips_finding(self, write_tree):
        write_tree(DIRTY)
        assert main(["pkg", "--select", "W006"]) == 0

    def test_ignore_silences_finding(self, write_tree):
        write_tree(DIRTY)
        assert main(["pkg", "--ignore", "W005"]) == 0


class TestFormats:
    def test_github_annotations(self, write_tree, capsys):
        write_tree(DIRTY)
        assert main(["pkg", "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert "::error file=" in out
        assert "W005" in out

    def test_json_payload(self, write_tree, capsys):
        write_tree(DIRTY)
        assert main(["pkg", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["findings"][0]["code"] == "W005"
        assert data["findings"][0]["chain"]
        assert data["stats"]["functions"] >= 1


EXCUSED = """
    def emit(chan, desc):
        chan.send(desc)
        desc.seq = 2  # repro: noqa[W005] -- fixture
"""

PAID_OFF = """
    def emit(chan, desc):
        chan.send(desc)  # repro: noqa[W005] -- fixture
"""


class TestBaseline:
    """The baseline file is gone; the same guarantees on an inline
    ``noqa`` (class and test names are the tier-1 floor's)."""

    def test_baseline_suppresses_and_exits_zero(self, write_tree, capsys):
        write_tree({**DIRTY, "pkg/up.py": EXCUSED})
        assert main(["pkg", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["suppressed"] == 1

    def test_line_shift_keeps_baseline_valid(
        self, tmp_path, write_tree, capsys
    ):
        write_tree({**DIRTY, "pkg/up.py": EXCUSED})
        shifted = "# leading comment\n\n" + textwrap.dedent(EXCUSED)
        (tmp_path / "pkg" / "up.py").write_text(shifted)
        assert main(["pkg"]) == 0

    def test_fixed_finding_makes_baseline_stale(
        self, tmp_path, write_tree, capsys
    ):
        write_tree({**CLEAN, "pkg/up.py": PAID_OFF})
        assert main(["pkg"]) == 1
        out = capsys.readouterr().out
        assert "U001" in out
        assert "unused suppression: W005 does not fire here" in out

    def test_stale_gate_scoped_to_selected_codes(
        self, tmp_path, write_tree, capsys
    ):
        # A W005 exemption must not count as unused when only W006 runs.
        write_tree({**CLEAN, "pkg/up.py": PAID_OFF})
        assert main(["pkg", "--select", "W006"]) == 0
        assert main(["pkg", "--ignore", "W005"]) == 0
        assert main(["pkg", "--select", "W005"]) == 1


class TestRepoIntegration:
    def test_repo_tree_runs_clean_with_committed_baseline(
        self, monkeypatch, capsys
    ):
        monkeypatch.chdir(REPO_ROOT)
        code = main([os.path.join("src", "repro"), "--json",
                     "--select", "W005,W006,W007,W008"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["findings"] == []
        assert data["suppressed"] == 0


class TestUmbrella:
    def test_all_runs_three_stages_clean_on_repo(
        self, monkeypatch, capsys
    ):
        # What ``all`` chained as three stages is one run: every R-rule
        # and W-check in a single report, each with its own timing.
        monkeypatch.chdir(REPO_ROOT)
        code = main(["--json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["findings"] == []
        expected = [f"R00{n}" for n in range(1, 9)] + ["W001"] + [
            f"W00{n}" for n in range(4, 10)
        ]
        assert data["codes"] == expected
        assert list(data["timings"]) == (
            ["parse"] + expected[:8] + ["symbols", "callgraph"]
            + expected[8:] + ["suppressions"]
        )
        assert data["wall_s"] == pytest.approx(
            sum(data["timings"].values()), abs=1e-2
        )
        # ... and ``all`` is not a sub-command, just a missing path.
        assert main(["all"]) == 2
