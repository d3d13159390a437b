"""Units for the CFG builder and the dataflow solver."""

import ast
import textwrap

from repro.analysis.program import Analysis, build_cfg, solve


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
        ret = next(
            n for n in cfg.nodes
            if n.stmt is not None and isinstance(n.stmt, ast.Return)
        )
        # Both arms rejoin at the return.
        assert sum(ret.index in n.succ for n in cfg.nodes) == 2

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
