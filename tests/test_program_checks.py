"""W001, W004 and W009 semantic checks on seeded fixtures plus regression
tests for the true positives they surfaced in the real tree."""

import os
import textwrap

import pytest

from repro.analysis.analyzer import analyze, load_files

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CODES = ["W001", "W004"]


def write_pkg(tmp_path, files):
    out = []
    for relpath, source in sorted(files.items()):
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        out.append((str(path), path.read_text()))
    return out


def run_checks(tmp_path, files, entry_points=None, select=CODES):
    return analyze(
        write_pkg(tmp_path, files), select=select, entry_points=entry_points
    )


def codes(report):
    return [f.code for f in report.findings]


class TestW001HotPathBudget:
    """W001 reports each allocation *site* on the per-packet path; an
    intentional one is excused by a comment on its line."""

    FILES = {
        "pkg/__init__.py": "",
        "pkg/up/__init__.py": "",
        "pkg/up/mod.py": """
            class UPF:
                def process(self, pkt):
                    return self._helper(pkt)

                def _helper(self, pkt):
                    return [pkt]
        """,
    }
    ENTRY = "pkg.up.mod.UPF.process"

    def test_allocation_below_entry_point_flagged_with_chain(self, tmp_path):
        report = run_checks(
            tmp_path, self.FILES, entry_points=[self.ENTRY]
        )
        assert codes(report) == ["W001"]
        finding = report.findings[0]
        assert "allocation site" in finding.message
        assert "list-display" in finding.message
        assert finding.line == 7  # the allocating expression, not the def
        # Call-chain evidence: entry point down to the allocating helper.
        assert finding.chain == (
            "-> pkg.up.mod.UPF.process",
            "-> pkg.up.mod.UPF._helper",
        )

    def test_each_site_is_its_own_finding(self, tmp_path):
        # A count of 2 would let one allocation be swapped for another;
        # sites cannot be traded.
        files = dict(self.FILES)
        files["pkg/up/mod.py"] = """
            class UPF:
                def process(self, pkt):
                    seen = {pkt}
                    return [pkt], seen
        """
        report = run_checks(tmp_path, files, entry_points=[self.ENTRY])
        assert [(f.code, f.line) for f in report.findings] == [
            ("W001", 4), ("W001", 5), ("W001", 5),
        ]
        kinds = sorted(f.message.split(": ")[1].split(" in ")[0]
                       for f in report.findings)
        assert kinds == ["list-display", "set-display", "tuple-display"]

    def test_budget_entry_absorbs_intentional_allocation(self, tmp_path):
        files = dict(self.FILES)
        files["pkg/up/mod.py"] = """
            class UPF:
                def process(self, pkt):
                    return self._helper(pkt)

                def _helper(self, pkt):
                    return [pkt]  # repro: noqa[W001] -- one list per burst
        """
        report = run_checks(tmp_path, files, entry_points=[self.ENTRY])
        assert codes(report) == []
        assert report.suppressed == 1

    def test_function_off_the_hot_path_is_free(self, tmp_path):
        files = dict(self.FILES)
        files["pkg/up/mod.py"] = """
            class UPF:
                def process(self, pkt):
                    return self._helper(pkt)

                def _helper(self, pkt):
                    return [pkt]

            def cold():
                return [1, 2, 3]
        """
        report = run_checks(tmp_path, files, entry_points=[self.ENTRY])
        assert codes(report) == ["W001"]  # still only _helper

    def test_stale_budget_entry_reported(self, tmp_path):
        # The exemption outlived its allocation: the line no longer
        # builds anything, so the leftover comment is the finding.
        files = dict(self.FILES)
        files["pkg/up/mod.py"] = """
            class UPF:
                def process(self, pkt):
                    return self._helper(pkt)

                def _helper(self, pkt):
                    return pkt  # repro: noqa[W001] -- one list per burst
        """
        report = run_checks(tmp_path, files, entry_points=[self.ENTRY])
        assert codes(report) == ["U001"]
        assert report.findings[0].line == 7
        assert "W001 does not fire here" in report.findings[0].message

    def test_no_entry_point_means_the_check_did_not_run(self, tmp_path):
        # Without a resolvable entry there is no hot path to judge, so a
        # W001 exemption is not called unused either.
        files = dict(self.FILES)
        files["pkg/up/mod.py"] = """
            def helper(pkt):
                return [pkt]  # repro: noqa[W001] -- one list per burst
        """
        report = run_checks(tmp_path, files, entry_points=[])
        assert codes(report) == []
        assert "W001" not in report.codes


class TestW004Layering:
    def test_sim_importing_up_is_flagged(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/sim/__init__.py": "",
            "pkg/sim/engine.py": "from ..up import session\n",
            "pkg/up/__init__.py": "",
            "pkg/up/session.py": "",
        }, entry_points=[])
        assert codes(report) == ["W004"]
        assert "sim" in report.findings[0].message

    def test_cross_plane_submodule_import_flagged(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/up/__init__.py": "",
            "pkg/up/mod.py": "from ..cp.core import thing\n",
            "pkg/cp/__init__.py": "",
            "pkg/cp/core.py": "thing = 1\n",
        }, entry_points=[])
        assert codes(report) == ["W004"]
        assert "internals" in report.findings[0].message

    def test_cross_plane_facade_import_allowed(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/cp/__init__.py": "",
            "pkg/cp/core.py": "from ..up import Session\n",
            "pkg/up/__init__.py": "from .session import Session\n",
            "pkg/up/session.py": "class Session:\n    pass\n",
        }, entry_points=[])
        assert codes(report) == []

    def test_hot_path_importing_instrumentation_flagged(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/up/__init__.py": "",
            "pkg/up/mod.py": "from ..analysis import races\n",
            "pkg/analysis/__init__.py": "",
            "pkg/analysis/races.py": "",
        }, entry_points=[])
        assert codes(report) == ["W004"]
        assert "instrumentation" in report.findings[0].message

    def test_noqa_suppresses_a_layering_finding(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/up/__init__.py": "",
            "pkg/up/mod.py": (
                "from ..analysis import races  "
                "# repro: noqa[W004] -- gated instrumentation\n"
            ),
            "pkg/analysis/__init__.py": "",
            "pkg/analysis/races.py": "",
        }, entry_points=[])
        assert codes(report) == []


def _load_repo_files(*relpaths):
    return load_files([os.path.join(REPO_ROOT, rel) for rel in relpaths])


class TestRealTreeRegressions:
    """The true positives this analysis surfaced stay fixed."""

    def test_core5g_uses_the_up_facade(self):
        # cp/core5g.py used to import up submodules directly.
        files = _load_repo_files("src/repro/cp/core5g.py")
        report = analyze(files, select=CODES, entry_points=[])
        w004 = [f for f in report.findings if f.code == "W004"]
        assert w004 == []
        edges = report.table.modules["repro.cp.core5g"].import_edges
        targets = {target for target, _ in edges}
        assert "repro.up" in targets
        assert not any(t.startswith("repro.up.") for t in targets)

    def test_full_tree_is_clean_against_committed_config(self):
        # No config is committed any more: the tree is clean on its
        # inline exemptions (eight W001 sites, eight W004 imports).
        report = analyze(_load_repo_files("src"), select=CODES)
        assert report.findings == []
        assert report.suppressed == 16

    def test_hot_path_covers_the_packet_pipeline(self):
        report = analyze(
            _load_repo_files("src/repro/up"), select=["W001"]
        )
        assert "repro.up.upf_u.UPFUserPlane._pipeline" in report.hot_path
        assert "repro.up.keys.packet_key" in report.hot_path
        assert "repro.up.flow_cache.FlowCache.lookup" in report.hot_path


class TestW009UnreachedDefinition:
    """W009 roots reach at what a user runs (``__main__``, the
    conftest plugin, ``examples/``, ``benchmarks/``) and follows
    references, not only calls."""

    ROOTS = {
        "pkg/__init__.py": "",
        "tests/conftest.py": "",
        "examples/demo.py": "import pkg.mod\n",
        "benchmarks/bench.py": "",
    }

    def run(self, tmp_path, mod, **extra):
        files = {**self.ROOTS, "pkg/mod.py": mod, **extra}
        return run_checks(tmp_path, files, select=["W009"])

    def test_a_def_only_a_test_calls_is_one_finding(self, tmp_path):
        report = self.run(tmp_path, """
            def used():
                return helper_in_use()

            def helper_in_use():
                return 1

            def helper():
                return 2
        """, **{
            "examples/demo.py": "from pkg.mod import used\nused()\n",
            "tests/test_mod.py": "from pkg.mod import helper\nhelper()\n",
        })
        assert codes(report) == ["W009"]
        assert "`helper`" in report.findings[0].message

    @pytest.mark.parametrize("mod,example", [
        pytest.param("""
            class Run:
                def ship(self):
                    pass

            ROWS = [dict(apply=Run.ship)]
        """, "", id="step-table-attribute"),
        pytest.param("""
            class Gen:
                def start(self, env):
                    env.call_later(1.0, self._emit)

                def _emit(self):
                    pass
        """, "from pkg.mod import Gen\nGen().start(env)\n", id="call-later"),
        pytest.param("""
            class Runner:
                def register_ue(self):
                    pass

            OPS = {"register": "register_ue"}
        """, "from pkg.mod import OPS, Runner\n"
             "getattr(Runner(), OPS['register'])()\n", id="getattr-string"),
        pytest.param("""
            HANDLERS = []

            def register(fn):
                HANDLERS.append(fn)
                return fn

            @register
            def on_message():
                pass
        """, "", id="registering-decorator"),
        pytest.param("""
            def main():
                pass

            if __name__ == "__main__":
                main()
        """, "", id="main-block"),
    ])
    def test_a_reference_reaches(self, tmp_path, mod, example):
        report = self.run(
            tmp_path, mod, **{"examples/demo.py": example or "import pkg\n"}
        )
        assert "W009" in report.codes
        assert report.findings == []

    def test_an_unreached_class_is_reported_once(self, tmp_path):
        report = self.run(tmp_path, """
            class Dead:
                def first(self):
                    pass

                def second(self):
                    pass
        """)
        assert codes(report) == ["W009"]
        assert "`Dead`" in report.findings[0].message

    def test_noqa_suppresses_and_a_stale_one_is_u001(self, tmp_path):
        report = self.run(tmp_path, """
            def kept():  # repro: noqa[W009] -- a reason
                pass
        """)
        assert report.findings == [] and report.suppressed == 1
        report = self.run(tmp_path, """
            def main():  # repro: noqa[W009] -- a reason
                pass

            main()
        """)
        assert codes(report) == ["U001"]

    def test_does_not_run_without_its_roots(self, tmp_path):
        files = {"pkg/__init__.py": "", "pkg/mod.py": "def dead():\n    pass\n"}
        report = run_checks(tmp_path, files, select=["W009"])
        assert "W009" not in report.codes and report.findings == []
