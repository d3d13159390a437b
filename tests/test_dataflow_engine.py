"""Units for the CFG builder and the dataflow solver."""

import ast
import textwrap

from repro.analysis.program import (
    Analysis,
    build_cfg,
    build_symbol_table,
    compute_effects,
    solve,
)
from repro.analysis.rules import FileContext


def cfg_of(source, name="f"):
    tree = ast.parse(textwrap.dedent(source))
    func = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == name
    )
    return build_cfg(func, name)


class TestCFG:
    def test_straight_line_def_use(self):
        cfg = cfg_of("""
            def f(a):
                b = a + 1
                return b
        """)
        assign = next(n for n in cfg.nodes if "b" in n.defs)
        assert "a" in assign.uses
        ret = next(
            n for n in cfg.nodes
            if n.stmt is not None and isinstance(n.stmt, ast.Return)
        )
        assert "b" in ret.uses
        assert cfg.exit in ret.succ

    def test_if_branch_and_join(self):
        cfg = cfg_of("""
            def f(a):
                if a:
                    x = 1
                else:
                    x = 2
                return x
        """)
        header = next(
            n for n in cfg.nodes
            if n.stmt is not None and isinstance(n.stmt, ast.If)
        )
        assert len(header.succ) == 2
        # body_succ marks which successor is the truthy arm.
        assert header.body_succ
        assert set(header.body_succ) <= set(header.succ)

    def test_loop_has_back_edge(self):
        cfg = cfg_of("""
            def f(items):
                total = 0
                for item in items:
                    total += item
                return total
        """)
        head = next(
            n for n in cfg.nodes
            if n.stmt is not None and isinstance(n.stmt, ast.For)
        )
        body = next(
            n for n in cfg.nodes
            if n.stmt is not None and isinstance(n.stmt, ast.AugAssign)
        )
        assert head.index in body.succ  # back edge
        assert "item" in head.defs

    def test_raise_reaches_raise_exit_not_exit(self):
        cfg = cfg_of("""
            def f(a):
                if a:
                    raise ValueError(a)
                return a
        """)
        raiser = next(
            n for n in cfg.nodes
            if n.stmt is not None and isinstance(n.stmt, ast.Raise)
        )
        assert cfg.raise_exit in raiser.exc_succ
        assert cfg.exit not in raiser.succ

    def test_try_except_routes_exception_to_handler(self):
        cfg = cfg_of("""
            def f(a):
                try:
                    b = g(a)
                except ValueError:
                    b = None
                return b
        """)
        call = next(
            n for n in cfg.nodes
            if n.stmt is not None and n.calls and n.calls[0].name == "g"
        )
        # The call's exceptional edge leads (via the dispatch node)
        # into the handler, and the handler body rejoins the return.
        assert call.exc_succ
        handler = next(
            n for n in cfg.nodes
            if n.stmt is not None
            and isinstance(n.stmt, ast.Assign)
            and isinstance(n.stmt.value, ast.Constant)
        )
        reachable = set()
        work = list(call.exc_succ)
        while work:
            index = work.pop()
            if index in reachable:
                continue
            reachable.add(index)
            work.extend(cfg.nodes[index].succ)
        assert handler.index in reachable

    def test_attr_write_recorded(self):
        cfg = cfg_of("""
            def f(d):
                d.seq = 1
        """)
        node = next(n for n in cfg.nodes if n.attr_writes)
        assert node.attr_writes[0].receiver == "d"
        assert node.attr_writes[0].attr == "seq"

    def test_nested_function_bodies_excluded(self):
        cfg = cfg_of("""
            def f(a):
                def inner():
                    raise RuntimeError
                return inner
        """)
        assert not any(
            n.stmt is not None and isinstance(n.stmt, ast.Raise)
            for n in cfg.nodes
        )


class _Reaching(Analysis):
    """Toy may-analysis: set of variables assigned a constant."""

    def initial(self, cfg):
        return frozenset()

    def join(self, states):
        return frozenset().union(*states)

    def transfer(self, node, state):
        out = set(state) - set(node.defs)
        stmt = node.stmt
        if (
            isinstance(stmt, ast.Assign)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.targets[0], ast.Name)
        ):
            out.add(stmt.targets[0].id)
        result = frozenset(out)
        return result, result


class TestSolver:
    def test_branches_join_at_merge_point(self):
        cfg = cfg_of("""
            def f(a):
                if a:
                    x = 1
                else:
                    y = 2
                return a
        """)
        states = solve(cfg, _Reaching())
        ret = next(
            n for n in cfg.nodes
            if n.stmt is not None and isinstance(n.stmt, ast.Return)
        )
        assert states[ret.index] == frozenset({"x", "y"})

    def test_loop_reaches_fixpoint(self):
        cfg = cfg_of("""
            def f(items):
                for item in items:
                    x = 1
                return items
        """)
        states = solve(cfg, _Reaching())
        ret = next(
            n for n in cfg.nodes
            if n.stmt is not None and isinstance(n.stmt, ast.Return)
        )
        assert "x" in states[ret.index]
        assert "x" in states[cfg.exit]


def table_in(tmp_path, tree):
    """Write a package tree to disk and build its symbol table.

    Real files matter: module names are derived from the package
    structure on disk.
    """
    files = []
    for relpath, source in sorted(tree.items()):
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        files.append(FileContext.parse(str(path), path.read_text()))
    return build_symbol_table(files)


class TestEffects:
    def test_direct_raise_and_callee_raise_chain(self, tmp_path):
        table = table_in(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                def fails(a):
                    raise ValueError(a)

                def caller(a):
                    return fails(a)
            """,
        })
        effects = compute_effects(table)
        assert effects["pkg.mod.fails"].may_raise
        chain = effects["pkg.mod.caller"].may_raise
        assert chain is not None
        assert "calls pkg.mod.fails" in chain[0]

    def test_param_mutation_summary(self, tmp_path):
        table = table_in(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                def stamp(desc):
                    desc.seq = 1
            """,
        })
        effects = compute_effects(table)
        assert 0 in effects["pkg.mod.stamp"].mutates_params

    def test_unary_send_is_a_handoff_multiarg_is_not(self, tmp_path):
        table = table_in(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                def unary(chan, msg):
                    chan.send(msg)

                def bus_style(bus, source, dest, msg):
                    bus.send(source, dest, msg)
            """,
        })
        effects = compute_effects(table)
        assert 1 in effects["pkg.mod.unary"].sends_params
        assert not effects["pkg.mod.bus_style"].sends_params

    def test_handoff_methods_hand_over_first_arg_regardless_of_arity(
        self, tmp_path
    ):
        table = table_in(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                def out(nf, desc):
                    nf.send_out(desc, 3)
            """,
        })
        effects = compute_effects(table)
        assert 1 in effects["pkg.mod.out"].sends_params

    def test_instrumentation_modules_contribute_no_effects(self, tmp_path):
        table = table_in(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/analysis/__init__.py": "",
            "pkg/analysis/check.py": """
                def noisy(x):
                    raise ValueError
            """,
        })
        effects = compute_effects(table)
        assert effects["pkg.analysis.check.noisy"].may_raise is None
