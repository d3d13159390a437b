"""Call-graph builder tests on seeded fixture packages."""

import textwrap

from repro.analysis.program import (
    build_call_graph,
    build_symbol_table,
    module_name_for,
)
from repro.analysis.rules import FileContext


def write_pkg(tmp_path, files):
    """Materialize ``{relpath: source}`` under tmp_path; returns the
    (path, source) pairs the engine consumes."""
    out = []
    for relpath, source in sorted(files.items()):
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        source = textwrap.dedent(source)
        path.write_text(source)
    for relpath in sorted(files):
        path = tmp_path / relpath
        out.append((str(path), path.read_text()))
    return out


def graph_for(tmp_path, files):
    table = build_symbol_table([
        FileContext.parse(path, source)
        for path, source in write_pkg(tmp_path, files)
    ])
    return table, build_call_graph(table)


def edge_pairs(graph):
    return {(e.caller, e.callee) for e in graph.edges}


class TestModuleNaming:
    def test_package_chain(self, tmp_path):
        write_pkg(tmp_path, {"pkg/__init__.py": "", "pkg/sub/__init__.py": "",
                             "pkg/sub/mod.py": "x = 1\n"})
        assert module_name_for(str(tmp_path / "pkg/sub/mod.py")) == "pkg.sub.mod"
        assert module_name_for(str(tmp_path / "pkg/sub/__init__.py")) == "pkg.sub"

    def test_stops_outside_packages(self, tmp_path):
        write_pkg(tmp_path, {"pkg/__init__.py": "", "pkg/mod.py": ""})
        assert module_name_for(str(tmp_path / "pkg/mod.py")) == "pkg.mod"


class TestDiamondCalls:
    FILES = {
        "pkg/__init__.py": "",
        "pkg/mod.py": """
            def d():
                return 1

            def b():
                return d()

            def c():
                return d()

            def a():
                return b() + c()
        """,
    }

    def test_all_edges_resolved(self, tmp_path):
        _, graph = graph_for(tmp_path, self.FILES)
        assert edge_pairs(graph) == {
            ("pkg.mod.a", "pkg.mod.b"),
            ("pkg.mod.a", "pkg.mod.c"),
            ("pkg.mod.b", "pkg.mod.d"),
            ("pkg.mod.c", "pkg.mod.d"),
        }
        assert not graph.unknown

    def test_reachability_witness_chain(self, tmp_path):
        _, graph = graph_for(tmp_path, self.FILES)
        chains = graph.reachable(["pkg.mod.a"])
        assert set(chains) == {
            "pkg.mod.a", "pkg.mod.b", "pkg.mod.c", "pkg.mod.d",
        }
        # BFS: d's witness chain goes through exactly one intermediate.
        assert chains["pkg.mod.d"][0] == "pkg.mod.a"
        assert chains["pkg.mod.d"][-1] == "pkg.mod.d"
        assert len(chains["pkg.mod.d"]) == 3

    def test_roots_are_uncalled_functions(self, tmp_path):
        _, graph = graph_for(tmp_path, self.FILES)
        assert graph.roots() == ["pkg.mod.a"]


class TestMethodResolution:
    FILES = {
        "pkg/__init__.py": "",
        "pkg/mod.py": """
            class Base:
                def handle(self):
                    return self.step()

                def step(self):
                    return 0

            class Derived(Base):
                def step(self):
                    return 1

            class Grandchild(Derived):
                pass

            def drive(nf: Base):
                return nf.handle()
        """,
    }

    def test_inherited_method_resolves_through_mro(self, tmp_path):
        table, _ = graph_for(tmp_path, self.FILES)
        assert table.resolve_method("pkg.mod.Grandchild", "step") == (
            "pkg.mod.Derived.step"
        )
        assert table.resolve_method("pkg.mod.Grandchild", "handle") == (
            "pkg.mod.Base.handle"
        )

    def test_virtual_call_fans_out_to_overrides(self, tmp_path):
        _, graph = graph_for(tmp_path, self.FILES)
        # self.step() inside Base.handle may land in any override.
        targets = {
            e.callee for e in graph.callees("pkg.mod.Base.handle")
        }
        assert targets == {"pkg.mod.Base.step", "pkg.mod.Derived.step"}
        kinds = {e.kind for e in graph.callees("pkg.mod.Base.handle")}
        assert kinds == {"virtual"}

    def test_annotated_parameter_dispatch(self, tmp_path):
        _, graph = graph_for(tmp_path, self.FILES)
        assert ("pkg.mod.drive", "pkg.mod.Base.handle") in edge_pairs(graph)


class TestConstructorsAndLocals:
    FILES = {
        "pkg/__init__.py": "",
        "pkg/mod.py": """
            class Widget:
                def __init__(self):
                    self.size = 1

                def poke(self):
                    return self.size

            def make():
                w = Widget()
                return w.poke()
        """,
    }

    def test_constructor_edge_and_local_inference(self, tmp_path):
        _, graph = graph_for(tmp_path, self.FILES)
        pairs = edge_pairs(graph)
        assert ("pkg.mod.make", "pkg.mod.Widget.__init__") in pairs
        # ``w = Widget()`` types w, so w.poke() resolves.
        assert ("pkg.mod.make", "pkg.mod.Widget.poke") in pairs


class TestDecoratedEntryPoints:
    FILES = {
        "pkg/__init__.py": "",
        "pkg/mod.py": """
            def register(fn):
                return fn

            @register
            def entry():
                return helper()

            def helper():
                return 1
        """,
    }

    def test_decorated_function_keeps_its_edges(self, tmp_path):
        table, graph = graph_for(tmp_path, self.FILES)
        func = table.functions["pkg.mod.entry"]
        assert func.decorators == ("register",)
        assert ("pkg.mod.entry", "pkg.mod.helper") in edge_pairs(graph)


class TestUnknownEdges:
    FILES = {
        "pkg/__init__.py": "",
        "pkg/mod.py": """
            import os

            def run(callback):
                callback()
                os.getcwd()
                target = getattr(os, "sep")
                return target
        """,
    }

    def test_dynamic_calls_become_explicit_unknown_edges(self, tmp_path):
        _, graph = graph_for(tmp_path, self.FILES)
        unknown = {
            u.callee_repr for u in graph.unknown if u.caller == "pkg.mod.run"
        }
        # Neither the callback nor the stdlib call is silently dropped.
        assert "callback" in unknown
        assert "os.getcwd" in unknown

    def test_unknown_edges_serialize(self, tmp_path):
        _, graph = graph_for(tmp_path, self.FILES)
        data = graph.to_dict()
        reprs = {u["callee"] for u in data["unknown_edges"]}
        assert "callback" in reprs
        assert all("reason" in u for u in data["unknown_edges"])


class TestDotExport:
    def test_dot_restricts_to_reachable_subgraph(self, tmp_path):
        _, graph = graph_for(tmp_path, TestDiamondCalls.FILES)
        dot = graph.to_dot(entries=["pkg.mod.b"])
        assert dot.startswith("digraph callgraph {")
        assert '"mod.b" -> "mod.d"' in dot
        # a -> b is outside the subgraph reachable from b.
        assert '"mod.a"' not in dot

    def test_full_dot_has_every_edge(self, tmp_path):
        _, graph = graph_for(tmp_path, TestDiamondCalls.FILES)
        dot = graph.to_dot()
        for name in ("mod.a", "mod.b", "mod.c", "mod.d"):
            assert f'"{name}"' in dot
