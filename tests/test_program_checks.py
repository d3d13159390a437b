"""W001–W004 semantic checks on seeded fixtures plus regression tests
for the true positives they surfaced in the real tree."""

import os
import textwrap

from repro.analysis.program import Budget, analyze_program

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_pkg(tmp_path, files):
    out = []
    for relpath, source in sorted(files.items()):
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        out.append((str(path), path.read_text()))
    return out


def run_checks(tmp_path, files, budget=None, entry_points=None):
    report = analyze_program(
        write_pkg(tmp_path, files), budget=budget, entry_points=entry_points
    )
    return report


def codes(report):
    return [f.code for f in report.findings]


class TestW001HotPathBudget:
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
        # Call-chain evidence: entry point down to the allocating helper.
        assert finding.chain == (
            "-> pkg.up.mod.UPF.process",
            "-> pkg.up.mod.UPF._helper",
        )

    def test_budget_entry_absorbs_intentional_allocation(self, tmp_path):
        budget = Budget(budgets={"pkg.up.mod.UPF._helper": 1})
        report = run_checks(
            tmp_path, self.FILES, budget=budget, entry_points=[self.ENTRY]
        )
        assert codes(report) == []

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
        budget = Budget(budgets={"pkg.up.mod.UPF.gone": 1})
        report = run_checks(
            tmp_path, self.FILES, budget=budget, entry_points=[self.ENTRY]
        )
        assert report.stale_budget_entries == ["pkg.up.mod.UPF.gone"]


class TestW002InterproceduralEpochBump:
    def test_callee_side_mutation_without_bump(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                class Session:
                    def _install(self, k, v):
                        self.pdrs[k] = v

                    def public(self, k, v):
                        self._install(k, v)
            """,
        }, entry_points=[])
        assert codes(report) == ["W002"]
        finding = report.findings[0]
        assert ".pdrs" in finding.message
        assert "bump" in finding.message
        # Chain: the event-loop entry, the call into the helper, the site.
        assert finding.chain[0] == "-> pkg.mod.Session.public"
        assert any("_install" in step for step in finding.chain)
        assert finding.line == 4  # the mutation, not the call

    def test_caller_side_bump_discharges_helper_mutation(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                class Session:
                    def _install(self, k, v):
                        self.pdrs[k] = v

                    def public(self, k, v):
                        self._install(k, v)
                        self.epoch.bump()
            """,
        }, entry_points=[])
        assert codes(report) == []

    def test_bump_on_only_one_branch_is_flagged(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                class Session:
                    def public(self, k, v, fast):
                        self.pdrs[k] = v
                        if fast:
                            return
                        self.epoch.bump()
            """,
        }, entry_points=[])
        assert codes(report) == ["W002"]

    def test_bump_via_callee_that_always_bumps(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                class Session:
                    def _publish(self):
                        self.epoch.bump()

                    def public(self, k, v):
                        self.pdrs[k] = v
                        self._publish()
            """,
        }, entry_points=[])
        assert codes(report) == []

    def test_yield_with_pending_mutation(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                class Session:
                    def stepper(self, k, v):
                        self.pdrs[k] = v
                        yield
                        self.epoch.bump()
            """,
        }, entry_points=[])
        assert codes(report) == ["W002"]
        assert "yield" in report.findings[0].message

    def test_init_population_is_exempt(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                class Session:
                    def __init__(self):
                        self.pdrs = {}
                        self.pdrs[0] = None
            """,
        }, entry_points=[])
        assert codes(report) == []


class TestW003YieldInAtomic:
    def test_helper_hidden_yield_in_atomic_section(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                class NF:
                    def run(self, detector):
                        with detector.role("upf-u"):
                            return list(self._work())

                    def _work(self):
                        yield 1
            """,
        }, entry_points=[])
        assert codes(report) == ["W003"]
        finding = report.findings[0]
        assert "_work" in finding.message
        assert any("_work" in step for step in finding.chain)

    def test_direct_yield_in_atomic_section(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                class NF:
                    def run(self, detector):
                        with detector.role("upf-u"):
                            yield 1
            """,
        }, entry_points=[])
        assert codes(report) == ["W003"]
        assert "must not suspend" in report.findings[0].message

    def test_non_yielding_section_is_clean(self, tmp_path):
        report = run_checks(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                class NF:
                    def run(self, detector):
                        with detector.role("upf-u"):
                            return self._work()

                    def _work(self):
                        return 1
            """,
        }, entry_points=[])
        assert codes(report) == []


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
    files = []
    for relpath in relpaths:
        path = os.path.join(REPO_ROOT, relpath)
        with open(path, "r", encoding="utf-8") as handle:
            files.append((path, handle.read()))
    return files


class TestRealTreeRegressions:
    """The true positives this analysis surfaced stay fixed."""

    def test_remove_pdr_bumps_on_every_path(self):
        # remove_pdr used to pop before the membership check, leaving
        # the no-bump early return with the container already touched.
        files = _load_repo_files(
            "src/repro/up/__init__.py",
            "src/repro/up/session.py",
            "src/repro/up/flow_cache.py",
        )
        report = analyze_program(files, entry_points=[])
        w002 = [f for f in report.findings if f.code == "W002"]
        assert w002 == []

    def test_core5g_uses_the_up_facade(self):
        # cp/core5g.py used to import up submodules directly.
        files = _load_repo_files("src/repro/cp/core5g.py")
        report = analyze_program(files, entry_points=[])
        w004 = [f for f in report.findings if f.code == "W004"]
        assert w004 == []
        edges = report.table.modules["repro.cp.core5g"].import_edges
        targets = {target for target, _ in edges}
        assert "repro.up" in targets
        assert not any(t.startswith("repro.up.") for t in targets)

    def test_full_tree_is_clean_against_committed_config(self):
        src = os.path.join(REPO_ROOT, "src", "repro")
        files = []
        for root, dirs, names in os.walk(src):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(names):
                if name.endswith(".py"):
                    path = os.path.join(root, name)
                    with open(path, "r", encoding="utf-8") as handle:
                        files.append((path, handle.read()))
        budget = Budget.load(os.path.join(REPO_ROOT, "analysis-budget.json"))
        report = analyze_program(files, budget=budget)
        assert report.stale_budget_entries == []
        # The one baselined intentional finding: sim's race-hook import.
        paths = {os.path.relpath(f.path, REPO_ROOT) for f in report.findings}
        assert paths <= {"src/repro/sim/engine.py"}
        assert [f.code for f in report.findings] in ([], ["W004"])

    def test_hot_path_covers_the_packet_pipeline(self):
        src = os.path.join(REPO_ROOT, "src", "repro", "up")
        files = []
        for root, _, names in os.walk(src):
            for name in sorted(names):
                if name.endswith(".py"):
                    path = os.path.join(root, name)
                    with open(path, "r", encoding="utf-8") as handle:
                        files.append((path, handle.read()))
        report = analyze_program(files)
        assert "repro.up.upf_u.UPFUserPlane._pipeline" in report.hot_path
        assert "repro.up.keys.packet_key" in report.hot_path
        assert "repro.up.flow_cache.FlowCache.lookup" in report.hot_path
