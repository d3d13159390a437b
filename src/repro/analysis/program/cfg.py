"""Statement-level control-flow graphs with def/use and exception edges.

The substrate :func:`~repro.analysis.program.solver.solve` runs its
worklist fixpoints over: one graph per function, built once per run and
shared by every path-sensitive check (W005–W007).  Each :class:`CFGNode` covers one statement (compound
statements contribute a *header* node for their test/iterator plus
nodes for their bodies) and carries:

* ``defs`` — local names (re)bound by the statement,
* ``uses`` — local names read,
* ``attr_writes`` — ``recv.attr = ...`` / ``recv.attr += ...`` /
  ``del recv.attr`` / ``recv[i] = ...`` targets as dotted receiver
  strings,
* ``calls`` — every call site with its dotted receiver, method/function
  name, and argument expressions,
* ``raises`` — whether the statement contains an explicit ``raise`` or
  ``assert``.

Edges are split into normal successors (``succ``) and exception
successors (``exc_succ``).  Exception edges run from every statement
that *could* raise (explicit raise/assert, or any statement containing
a call — which raising calls actually matter is the analysis's
decision) to the innermost enclosing handler dispatch, else to the
synthetic ``raise-exit`` node.  ``try/finally`` is modeled with one
shared finally subgraph entered from both the normal and the
exceptional side; this merges paths (a deliberate approximation) but
keeps releases in ``finally`` visible on every route out of the block.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..astutil import NESTED_SCOPES, dotted as _dotted, walk_own as _walk_own

__all__ = ["AttrWrite", "CallSite", "CFGNode", "CFG", "build_cfg"]


@dataclass(frozen=True)
class AttrWrite:
    """One attribute/subscript store: ``receiver.attr = ...``."""

    receiver: str  # dotted receiver text, e.g. "msg" or "self.table"
    attr: str  # attribute name; "[]" for subscript stores
    lineno: int


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a statement."""

    #: Dotted receiver for method calls ("self.bus" in
    #: ``self.bus.send(...)``), None for plain function calls or when
    #: the receiver is not a dotted name (e.g. ``tables[i].add(...)``
    #: has receiver None but name "add").
    receiver: Optional[str]
    #: Method or function name (the rightmost component).
    name: str
    #: Positional argument expressions.
    args: Tuple[ast.expr, ...]
    lineno: int
    node: ast.Call = field(compare=False, hash=False)


@dataclass
class CFGNode:
    index: int
    label: str
    lineno: int
    stmt: Optional[ast.stmt] = None
    defs: Tuple[str, ...] = ()
    uses: Tuple[str, ...] = ()
    attr_writes: Tuple[AttrWrite, ...] = ()
    calls: Tuple[CallSite, ...] = ()
    raises: bool = False
    succ: List[int] = field(default_factory=list)
    exc_succ: List[int] = field(default_factory=list)
    #: For branch headers (if/while/for): the subset of ``succ`` entered
    #: when the test is truthy (the body).  Everything else in ``succ``
    #: is the implicit/explicit else path.  Lets a branch-aware analysis
    #: propagate different states down the two arms.
    body_succ: List[int] = field(default_factory=list)

    @property
    def may_raise(self) -> bool:
        """Statement can transfer control along an exception edge."""
        return self.raises or bool(self.calls)


@dataclass
class CFG:
    """One function's control-flow graph.

    ``entry`` is the synthetic start (its ``defs`` are the function
    parameters), ``exit`` the normal return point, ``raise_exit`` the
    exceptional exit (an exception escaping the function).
    """

    qualname: str
    nodes: List[CFGNode]
    entry: int
    exit: int
    raise_exit: int


# ---------------------------------------------------------------------------
# Expression readers (nested function/class bodies are opaque)
# ---------------------------------------------------------------------------
def _uses_of(*exprs: Optional[ast.AST]) -> Tuple[str, ...]:
    names: List[str] = []
    for expr in exprs:
        if expr is None:
            continue
        for sub in _walk_own(expr):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                names.append(sub.id)
    return tuple(dict.fromkeys(names))


def _calls_of(*exprs: Optional[ast.AST]) -> Tuple[CallSite, ...]:
    sites: List[CallSite] = []
    for expr in exprs:
        if expr is None:
            continue
        for sub in _walk_own(expr):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            if isinstance(func, ast.Attribute):
                sites.append(CallSite(
                    receiver=_dotted(func.value),
                    name=func.attr,
                    args=tuple(sub.args),
                    lineno=sub.lineno,
                    node=sub,
                ))
            elif isinstance(func, ast.Name):
                sites.append(CallSite(
                    receiver=None,
                    name=func.id,
                    args=tuple(sub.args),
                    lineno=sub.lineno,
                    node=sub,
                ))
    sites.sort(key=lambda s: s.lineno)
    return tuple(sites)


def _target_defs(
    target: ast.AST, defs: List[str], writes: List[AttrWrite]
) -> None:
    if isinstance(target, ast.Name):
        defs.append(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            _target_defs(elt, defs, writes)
    elif isinstance(target, ast.Starred):
        _target_defs(target.value, defs, writes)
    elif isinstance(target, ast.Attribute):
        receiver = _dotted(target.value)
        if receiver is not None:
            writes.append(AttrWrite(receiver, target.attr, target.lineno))
    elif isinstance(target, ast.Subscript):
        receiver = _dotted(target.value)
        if receiver is not None:
            writes.append(AttrWrite(receiver, "[]", target.lineno))


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------
class _Builder:
    def __init__(self, qualname: str):
        self.qualname = qualname
        self.nodes: List[CFGNode] = []
        #: Innermost exception landing node (handler dispatch or
        #: raise-exit).
        self.exc_target = 0
        #: Stack of (loop-head index, break-exit collector).
        self.loops: List[Tuple[int, List[int]]] = []

    def new(self, label: str, lineno: int = 0, **kw) -> CFGNode:
        node = CFGNode(index=len(self.nodes), label=label, lineno=lineno, **kw)
        self.nodes.append(node)
        return node

    def wire(self, preds: Sequence[int], node: CFGNode) -> None:
        for pred in preds:
            self.nodes[pred].succ.append(node.index)

    def stmt_node(self, stmt: ast.stmt, label: str) -> CFGNode:
        """One node covering a whole simple statement."""
        defs: List[str] = []
        writes: List[AttrWrite] = []
        uses: Tuple[str, ...] = ()
        raises = False
        value_exprs: List[Optional[ast.AST]] = []
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                _target_defs(target, defs, writes)
            value_exprs = [stmt.value]
        elif isinstance(stmt, ast.AugAssign):
            _target_defs(stmt.target, defs, writes)
            if isinstance(stmt.target, ast.Name):
                # x += 1 both reads and writes x
                value_exprs = [stmt.value, ast.Name(stmt.target.id, ast.Load())]
            else:
                value_exprs = [stmt.value, stmt.target.value]
        elif isinstance(stmt, ast.AnnAssign):
            _target_defs(stmt.target, defs, writes)
            value_exprs = [stmt.value]
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    defs.append(target.id)  # name becomes unbound
                else:
                    _target_defs(target, defs, writes)
        elif isinstance(stmt, ast.Assert):
            raises = True
            value_exprs = [stmt.test, stmt.msg]
        elif isinstance(stmt, ast.Raise):
            raises = True
            value_exprs = [stmt.exc, stmt.cause]
        elif isinstance(stmt, ast.Return):
            value_exprs = [stmt.value]
        elif isinstance(stmt, (ast.Expr, ast.Await)):
            value_exprs = [stmt.value]  # type: ignore[union-attr]
        else:
            value_exprs = [stmt]
        uses = _uses_of(*value_exprs)
        calls = _calls_of(*value_exprs)
        return self.new(
            label,
            lineno=stmt.lineno,
            stmt=stmt,
            defs=tuple(dict.fromkeys(defs)),
            uses=uses,
            attr_writes=tuple(writes),
            calls=calls,
            raises=raises,
        )

    def exc_edge(self, node: CFGNode) -> None:
        if node.may_raise and self.exc_target not in node.exc_succ:
            node.exc_succ.append(self.exc_target)

    # -- statement dispatch ----------------------------------------------
    def body(self, stmts: Sequence[ast.stmt], preds: List[int]) -> List[int]:
        for stmt in stmts:
            if not preds:
                break  # unreachable after return/raise/break
            preds = self.stmt(stmt, preds)
        return preds

    def stmt(self, stmt: ast.stmt, preds: List[int]) -> List[int]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, preds)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(stmt, preds)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, preds)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, preds)
        if isinstance(stmt, ast.Break):
            node = self.new("break", stmt.lineno, stmt=stmt)
            self.wire(preds, node)
            if self.loops:
                self.loops[-1][1].append(node.index)
            return []
        if isinstance(stmt, ast.Continue):
            node = self.new("continue", stmt.lineno, stmt=stmt)
            self.wire(preds, node)
            if self.loops:
                node.succ.append(self.loops[-1][0])
            return []
        if isinstance(stmt, ast.Return):
            node = self.stmt_node(stmt, "return")
            self.wire(preds, node)
            self.exc_edge(node)
            node.succ.append(self._exit)
            return []
        if isinstance(stmt, ast.Raise):
            node = self.stmt_node(stmt, "raise")
            self.wire(preds, node)
            node.exc_succ.append(self.exc_target)
            return []
        if isinstance(stmt, NESTED_SCOPES[:3]):  # nested def/class: opaque bind
            node = self.new(
                f"def {getattr(stmt, 'name', '?')}",
                stmt.lineno,
                stmt=stmt,
                defs=(getattr(stmt, "name", ""),),
            )
            self.wire(preds, node)
            return [node.index]
        node = self.stmt_node(stmt, type(stmt).__name__.lower())
        self.wire(preds, node)
        self.exc_edge(node)
        return [node.index]

    def _if(self, stmt: ast.If, preds: List[int]) -> List[int]:
        test = self.new(
            "if",
            stmt.lineno,
            stmt=stmt,
            uses=_uses_of(stmt.test),
            calls=_calls_of(stmt.test),
        )
        self.wire(preds, test)
        self.exc_edge(test)
        body_out = self.body(stmt.body, [test.index])
        test.body_succ = list(test.succ)
        if stmt.orelse:
            else_out = self.body(stmt.orelse, [test.index])
        else:
            else_out = [test.index]
        return body_out + else_out

    def _loop(self, stmt, preds: List[int]) -> List[int]:
        defs: List[str] = []
        writes: List[AttrWrite] = []
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            _target_defs(stmt.target, defs, writes)
            uses = _uses_of(stmt.iter)
            calls = _calls_of(stmt.iter)
            label = "for"
        else:
            uses = _uses_of(stmt.test)
            calls = _calls_of(stmt.test)
            label = "while"
        head = self.new(
            label,
            stmt.lineno,
            stmt=stmt,
            defs=tuple(dict.fromkeys(defs)),
            uses=uses,
            attr_writes=tuple(writes),
            calls=calls,
        )
        self.wire(preds, head)
        self.exc_edge(head)
        breaks: List[int] = []
        self.loops.append((head.index, breaks))
        body_out = self.body(stmt.body, [head.index])
        head.body_succ = list(head.succ)
        self.loops.pop()
        for out in body_out:
            self.nodes[out].succ.append(head.index)  # back edge
        outs = [head.index]
        if stmt.orelse:
            outs = self.body(stmt.orelse, outs)
        return outs + breaks

    def _with(self, stmt, preds: List[int]) -> List[int]:
        defs: List[str] = []
        writes: List[AttrWrite] = []
        exprs = []
        for item in stmt.items:
            exprs.append(item.context_expr)
            if item.optional_vars is not None:
                _target_defs(item.optional_vars, defs, writes)
        node = self.new(
            "with",
            stmt.lineno,
            stmt=stmt,
            defs=tuple(dict.fromkeys(defs)),
            uses=_uses_of(*exprs),
            attr_writes=tuple(writes),
            calls=_calls_of(*exprs),
        )
        self.wire(preds, node)
        self.exc_edge(node)
        return self.body(stmt.body, [node.index])

    def _try(self, stmt: ast.Try, preds: List[int]) -> List[int]:
        outer_target = self.exc_target
        dispatch = self.new("except-dispatch", stmt.lineno)
        self.exc_target = dispatch.index
        body_out = self.body(stmt.body, preds)
        if stmt.orelse:
            body_out = self.body(stmt.orelse, body_out)
        self.exc_target = outer_target

        handler_outs: List[int] = []
        catch_all = not stmt.handlers
        for handler in stmt.handlers:
            h_defs = (handler.name,) if handler.name else ()
            entry = self.new(
                f"except {_handler_label(handler)}",
                handler.lineno,
                defs=h_defs,
            )
            dispatch.succ.append(entry.index)
            handler_outs.extend(self.body(handler.body, [entry.index]))
            if _is_catch_all(handler):
                catch_all = True
        if not catch_all or not stmt.handlers:
            # Unmatched exceptions propagate to the enclosing handler.
            dispatch.exc_succ.append(outer_target)

        outs = body_out + handler_outs
        if stmt.finalbody:
            # One shared finally subgraph entered from both the normal
            # completions and the exceptional dispatch; after it, the
            # normal path continues and the exceptional path re-raises.
            fin_preds = list(outs)
            if dispatch.exc_succ:
                dispatch.exc_succ = []
                fin_preds.append(dispatch.index)
            fin_out = self.body(stmt.finalbody, fin_preds)
            for out in fin_out:
                if outer_target not in self.nodes[out].exc_succ:
                    self.nodes[out].exc_succ.append(outer_target)
            outs = fin_out
        return outs

    # -- entry point -----------------------------------------------------
    def build(self, func: ast.AST) -> CFG:
        args = func.args
        params = [a.arg for a in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        )]
        if args.vararg:
            params.append(args.vararg.arg)
        if args.kwarg:
            params.append(args.kwarg.arg)
        entry = self.new("entry", func.lineno, defs=tuple(params))
        exit_node = self.new("exit", func.lineno)
        raise_exit = self.new("raise-exit", func.lineno)
        self._exit = exit_node.index
        self.exc_target = raise_exit.index
        final = self.body(func.body, [entry.index])
        for out in final:
            self.nodes[out].succ.append(exit_node.index)
        return CFG(
            qualname=self.qualname,
            nodes=self.nodes,
            entry=entry.index,
            exit=exit_node.index,
            raise_exit=raise_exit.index,
        )


def _is_catch_all(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    names = []
    if isinstance(handler.type, ast.Tuple):
        names = [_dotted(e) for e in handler.type.elts]
    else:
        names = [_dotted(handler.type)]
    return any(n in ("Exception", "BaseException") for n in names)


def _handler_label(handler: ast.ExceptHandler) -> str:
    if handler.type is None:
        return "*"
    return _dotted(handler.type) or "?"


def build_cfg(func: ast.AST, qualname: str = "<function>") -> CFG:
    """Build the CFG of one FunctionDef/AsyncFunctionDef."""
    return _Builder(qualname).build(func)
