"""``python -m repro.analysis`` — the one static-analysis entry point.

What only the single engine can do is tested here: one parse per file,
R000 without losing the other files, the unused-suppression finding,
the one JSON report, and the repo's own inline exemptions being exactly
as many as the findings they excuse.
"""

import ast
import importlib.util
import json
import os
import textwrap

import pytest

from repro.analysis import analyzer
from repro.analysis.__main__ import main
from repro.analysis.analyzer import analyze, load_files
from repro.analysis.rules import FileContext

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TREE = {
    "pkg/__init__.py": "",
    "pkg/up/__init__.py": "",
    "pkg/up/session.py": """
        class Session:
            def install(self, k, v):
                self.pdrs[k] = v
                self.epoch.bump()

            def emit(self, chan, desc):
                chan.send(desc)
    """,
    "pkg/sim/__init__.py": "",
    "pkg/sim/engine.py": """
        import time

        def stamp():
            return time.time()
    """,
    "tests/test_pkg.py": """
        def test_nothing():
            assert True
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


def codes(report):
    return [f.code for f in report.findings]


class TestOneEngine:
    def test_each_file_is_parsed_once_and_the_program_built_once(
        self, write_tree, count_calls
    ):
        write_tree(TREE)
        files = load_files(["pkg", "tests"])
        parses = count_calls(ast, "parse")
        tables = count_calls(analyzer, "build_symbol_table")
        graphs = count_calls(analyzer, "build_call_graph")
        report = analyze(files)
        assert codes(report) == ["R001"]
        assert parses.calls == len(files) == 6
        assert tables.calls == 1
        assert graphs.calls == 1
        # The program holds the production functions (the test file is
        # not part of it), and no check builds a control-flow graph.
        assert sorted(report.table.functions) == [
            "pkg.sim.engine.stamp",
            "pkg.up.session.Session.emit",
            "pkg.up.session.Session.install",
        ]
        for gone in ("cfg", "solver", "typestate"):
            name = f"repro.analysis.program.{gone}"
            assert importlib.util.find_spec(name) is None, name
        assert "cfgs" not in report.stats

    def test_file_local_rules_alone_build_no_program(
        self, write_tree, count_calls
    ):
        write_tree(TREE)
        tables = count_calls(analyzer, "build_symbol_table")
        report = analyze(load_files(["pkg"]), select=["R001", "R006"])
        assert codes(report) == ["R001"]
        assert tables.calls == 0
        assert report.table is None

    def test_one_entry_point_and_no_side_files(self):
        for retired in ("lint", "report", "dataflow", "program.cli"):
            name = f"repro.analysis.{retired}"
            try:
                spec = importlib.util.find_spec(name)
            except ModuleNotFoundError:
                spec = None
            assert spec is None, name
        with open(os.path.join(
            REPO_ROOT, "src", "repro", "analysis", "__main__.py"
        )) as handle:
            source = handle.read()
        assert source.count("ArgumentParser(") == 1
        flags = [
            line for line in source.splitlines()
            if line.strip().startswith('"--') or 'add_argument("--' in line
        ]
        assert len(flags) == 8, flags


class TestSyntaxError:
    def test_r000_once_and_the_other_files_still_checked(
        self, write_tree, capsys
    ):
        write_tree({
            "pkg/__init__.py": "",
            "pkg/broken.py": "def broken(:\n",
            "pkg/conf.py": """
                class KnobConfig:
                    orphaned: bool = False
            """,
        })
        report = analyze(load_files(["pkg"]))
        assert sorted(codes(report)) == ["R000", "W008"]
        broken = next(f for f in report.findings if f.code == "R000")
        assert broken.path.endswith("broken.py") and broken.line == 1
        assert "syntax error" in broken.message
        assert sorted(report.table.modules) == ["pkg", "pkg.conf"]
        assert main(["pkg"]) == 1
        out = capsys.readouterr().out
        assert out.count("R000") == 1 and "W008" in out

    def test_r000_survives_select_and_noqa(self, write_tree):
        write_tree({"pkg/broken.py": "def broken(:  # repro: noqa\n"})
        report = analyze(load_files(["pkg"]), select=["W004"])
        assert codes(report) == ["R000"]


class TestUnusedSuppression:
    def run(self, write_tree, source, **kwargs):
        write_tree({"src/repro/mod.py": source})
        return analyze(load_files(["src"]), **kwargs)

    def test_used_suppression_is_silent(self, write_tree):
        report = self.run(write_tree, """
            import time
            t = time.time()  # repro: noqa[R001] -- fixture
        """)
        assert report.findings == []
        assert report.suppressed == 1

    def test_unused_suppression_is_a_finding(self, write_tree, capsys):
        report = self.run(write_tree, """
            t = 0  # repro: noqa[R001] -- the clock read is long gone
        """)
        assert codes(report) == ["U001"]
        finding = report.findings[0]
        assert (finding.line, finding.severity) == (2, "error")
        assert "R001 does not fire here" in finding.message
        assert main(["src"]) == 1

    def test_each_listed_code_is_judged_on_its_own(self, write_tree):
        report = self.run(write_tree, """
            import time
            t = time.time()  # repro: noqa[R001,R002]
        """)
        assert codes(report) == ["U001"]
        assert "R002 does not fire here" in report.findings[0].message

    def test_unselected_code_is_not_judged(self, write_tree):
        source = """
            t = 0  # repro: noqa[R001]
        """
        assert codes(self.run(write_tree, source, select=["R002"])) == []
        assert main(["src", "--ignore", "R001"]) == 0
        assert main(["src", "--select", "R001"]) == 1

    def test_inside_a_string_is_neither_suppression_nor_unused(
        self, write_tree
    ):
        report = self.run(write_tree, '''
            import time
            DOC = """
            t = time.time()  # repro: noqa[R001]
            """
            t = time.time(); s = "# repro: noqa[R001]"
        ''')
        assert [(f.code, f.line) for f in report.findings] == [("R001", 6)]

    def test_bare_noqa_is_unused_only_on_a_line_with_no_finding(
        self, write_tree
    ):
        report = self.run(write_tree, """
            import time
            t = time.time()  # repro: noqa
            u = 0  # repro: noqa
        """)
        assert [(f.code, f.line) for f in report.findings] == [("U001", 4)]
        assert "bare noqa" in report.findings[0].message
        # Under --select the finding it excuses may not have been
        # looked for: a bare noqa is then left alone.
        report = analyze(load_files(["src"]), select=["R002"])
        assert report.findings == []

    def test_nothing_suppresses_it_and_unknown_codes_are_unused(
        self, write_tree
    ):
        report = self.run(write_tree, """
            t = 0  # repro: noqa[R001,U001,R009]
        """)
        assert sorted(f.message.split(";")[0] for f in report.findings) == [
            "unused suppression: R001 does not fire here",
            "unused suppression: R009 names no check",
            "unused suppression: U001 names no check",
        ]

    def test_a_deleted_check_code_is_unknown(self, write_tree):
        # W002 (epoch publish) and W003 (atomic sections) are gone: a
        # comment still naming them excuses nothing.
        report = self.run(write_tree, """
            a = 0  # repro: noqa[W002] -- publish checked elsewhere
            b = 0  # repro: noqa[W003]
        """)
        assert [(f.code, f.line) for f in report.findings] == [
            ("U001", 2), ("U001", 3),
        ]
        assert [f.message.split(";")[0] for f in report.findings] == [
            "unused suppression: W002 names no check",
            "unused suppression: W003 names no check",
        ]

    def test_comment_tokens_only(self):
        ctx = FileContext.parse("x.py", textwrap.dedent('''
            a = "# repro: noqa"
            b = 1  # REPRO: NOQA[r001, w004] -- case-insensitive
            """# repro: noqa[R002]"""
        '''))
        assert ctx.noqa == {3: frozenset({"R001", "W004"})}


class TestReport:
    def test_json_carries_findings_stats_and_wall_time_per_phase(
        self, write_tree, capsys
    ):
        write_tree(TREE)
        assert main(["pkg", "tests", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert [f["code"] for f in data["findings"]] == ["R001"]
        assert data["findings"][0]["chain"] == []
        assert data["suppressed"] == 0
        assert data["stats"] == {
            "files": 6, "modules": 5, "functions": 3, "classes": 1,
            "call_edges": 0, "unknown_edges": 3,
        }
        phases = list(data["timings"])
        assert phases[0] == "parse" and phases[-1] == "suppressions"
        assert phases.index("symbols") < phases.index("callgraph")
        assert {"R001", "W004", "W008"} <= set(phases)
        assert "W001" not in phases  # no packet entry point in this tree
        assert all(seconds >= 0 for seconds in data["timings"].values())

    def test_missing_path_exits_two(self, write_tree, capsys):
        write_tree(TREE)
        assert main(["nonexistent"]) == 2
        assert "no such file or directory" in capsys.readouterr().err

    def test_unresolvable_entry_exits_two(self, write_tree, capsys):
        # Rooted at nothing, W001 would pass having checked nothing.
        write_tree(TREE)
        argv = ["pkg", "--select", "W001", "--entry", "no.such.function"]
        assert main(argv) == 2
        assert "no.such.function" in capsys.readouterr().err
        argv[-1] = "pkg.up.session.Session.emit"
        assert main(argv) == 0

    def test_unresolvable_graph_focus_exits_two(self, write_tree, capsys):
        write_tree(TREE)
        assert main(["pkg", "--graph", "dot", "--graph-focus", "no.such"]) == 2
        captured = capsys.readouterr()
        assert "no.such" in captured.err and captured.out == ""


def _inline_exemptions():
    """(path, line, codes) of every ``repro: noqa`` comment under src/."""
    cwd = os.getcwd()
    os.chdir(REPO_ROOT)
    try:
        found = []
        for path, source in load_files(["src"]):
            if "noqa" in source:
                noqa = FileContext.parse(path, source).noqa
                found.extend(
                    (path, line, tuple(sorted(codes)))
                    for line, codes in sorted(noqa.items())
                )
        return found
    finally:
        os.chdir(cwd)


class TestRepoExemptions:
    """Every exemption in the tree is load-bearing: delete one comment
    and the run fails."""

    EXEMPTIONS = _inline_exemptions()

    def test_nine_allocation_sites_nine_layering_imports_one_clock(self):
        # Eight allocation sites since the UPF-U burst path lost its
        # tracer fallback, eight layering imports since up/hot_store.py
        # (and its races import) went, and twelve definitions kept off
        # every user path for an open ROADMAP item or as a test's
        # reference; the name is kept as the suite's id.
        by_code = {}
        for _path, _line, codes_ in self.EXEMPTIONS:
            assert len(codes_) == 1  # one reason excuses one code
            by_code[codes_[0]] = by_code.get(codes_[0], 0) + 1
        assert by_code == {"W001": 8, "W004": 8, "R001": 1, "W009": 12}

    @pytest.fixture(scope="class")
    def sources(self):
        # The R001/W001/W004 exemptions all sit in up/, sim/ and the
        # analyser itself; W001's entry points and W004's edges resolve
        # within them.  W009 needs its roots: the whole tree.
        cwd = os.getcwd()
        os.chdir(REPO_ROOT)
        try:
            return {
                "subset": load_files([
                    "src/repro/__init__.py", "src/repro/up",
                    "src/repro/sim", "src/repro/analysis/analyzer.py",
                ]),
                "W009": load_files(["src", "tests", "examples", "benchmarks"]),
            }
        finally:
            os.chdir(cwd)

    @staticmethod
    def _run(files, code):
        select = ["W009"] if code == "W009" else ["R001", "W001", "W004"]
        return analyze(files, select=select)

    def test_with_every_comment_in_place_the_subset_is_clean(self, sources):
        reach = [e for e in self.EXEMPTIONS if e[2] == ("W009",)]
        report = self._run(sources["subset"], "R001")
        assert report.findings == []
        assert report.suppressed == len(self.EXEMPTIONS) - len(reach)
        report = self._run(sources["W009"], "W009")
        assert report.findings == []
        assert report.suppressed == len(reach)

    @pytest.mark.parametrize(
        "path,line,codes_", EXEMPTIONS,
        ids=[f"{os.path.basename(p)}:{n}" for p, n, _ in EXEMPTIONS],
    )
    def test_removing_the_comment_fails_the_run(
        self, sources, path, line, codes_
    ):
        stripped = []
        for file_path, source in sources[
            "W009" if codes_ == ("W009",) else "subset"
        ]:
            if file_path == path:
                lines = source.splitlines(keepends=True)
                assert "# repro: noqa" in lines[line - 1]
                lines[line - 1] = (
                    lines[line - 1].split("# repro: noqa")[0].rstrip() + "\n"
                )
                source = "".join(lines)
            stripped.append((file_path, source))
        report = self._run(stripped, codes_[0])
        assert [(f.code, f.path, f.line) for f in report.findings] == [
            (codes_[0], path, line)
        ]
