"""W001–W004 and W009 semantic checks on seeded fixtures plus regression
tests for the true positives they surfaced in the real tree."""

import os
import textwrap

import pytest

from repro.analysis.analyzer import analyze, load_files

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CODES = ["W001", "W002", "W003", "W004"]


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
    return load_files([os.path.join(REPO_ROOT, rel) for rel in relpaths])


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
        report = analyze(files, select=CODES, entry_points=[])
        w002 = [f for f in report.findings if f.code == "W002"]
        assert w002 == []

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
        # inline exemptions (nine W001 sites, eight W004 imports).
        report = analyze(_load_repo_files("src"), select=CODES)
        assert report.findings == []
        assert report.suppressed == 17

    def test_hot_path_covers_the_packet_pipeline(self):
        report = analyze(
            _load_repo_files("src/repro/up"), select=["W001"]
        )
        assert "repro.up.upf_u.UPFUserPlane._pipeline" in report.hot_path
        assert "repro.up.keys.packet_key" in report.hot_path
        assert "repro.up.flow_cache.FlowCache.lookup" in report.hot_path


def _session_source():
    path = os.path.join(REPO_ROOT, "src", "repro", "up", "session.py")
    with open(path, "r", encoding="utf-8") as handle:
        return path, handle.read()


def _without_bump(source, method, occurrence=0):
    """``source`` with the ``occurrence``-th ``self.epoch.bump()`` of
    ``UPFSession.<method>`` replaced by ``pass``."""
    lines = source.splitlines(keepends=True)
    start = next(
        i for i, line in enumerate(lines)
        if line.startswith(f"    def {method}(")
    )
    end = next(
        (i for i in range(start + 1, len(lines))
         if lines[i].startswith("    def ")),
        len(lines),
    )
    sites = [
        i for i in range(start, end) if "self.epoch.bump()" in lines[i]
    ]
    index = sites[occurrence]
    lines[index] = lines[index].replace("self.epoch.bump()", "pass")
    return "".join(lines)


class TestW002MutationTable:
    """The mutation table as a regression: take away one rule-container
    writer's ``self.epoch.bump()`` in ``up/session.py`` and W002 must
    name exactly that method."""

    @pytest.fixture(scope="class")
    def up_files(self):
        return _load_repo_files("src/repro/up")

    def _w002(self, up_files, mutated):
        path, _ = _session_source()
        files = [
            (p, mutated if p == path else source) for p, source in up_files
        ]
        return analyze(files, select=["W002"]).findings

    def test_unmutated_tree_is_clean(self, up_files):
        assert self._w002(up_files, _session_source()[1]) == []

    @pytest.mark.parametrize("method,occurrence", [
        ("install_pdr", 0),
        ("remove_pdr", 0),
        ("install_far", 0),
        ("update_far", 0),  # the insert branch
        ("install_qer_enforcer", 0),
        ("install_usage_counter", 0),
    ])
    def test_dropped_bump_is_one_w002_naming_the_method(
        self, up_files, method, occurrence
    ):
        mutated = _without_bump(_session_source()[1], method, occurrence)
        findings = self._w002(up_files, mutated)
        assert [f.code for f in findings] == ["W002"]
        assert f"mutated in {method}()" in findings[0].message
        assert findings[0].chain[-1].startswith("-> mutation of .")
        assert f"UPFSession.{method}:" in findings[0].chain[-1]

    def test_in_place_update_far_branch_is_a_known_blind_spot(
        self, up_files
    ):
        # update_far's second bump publishes an *in-place* change of an
        # existing FAR: the object inside .fars is mutated, the
        # container is not, so W002 (which watches the containers of
        # lifecycle.RULE_CONTAINERS) cannot see it.  That branch is
        # covered behaviourally instead, by
        #   tests/test_up_flow_cache.py::TestEpochWiring::
        #       test_every_mutator_bumps[update_far]
        #   tests/test_up_flow_cache.py::TestPipelineFastPath::
        #       test_update_far_invalidates
        # which both update the existing FAR 2, i.e. take that branch.
        mutated = _without_bump(_session_source()[1], "update_far", 1)
        assert self._w002(up_files, mutated) == []


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
