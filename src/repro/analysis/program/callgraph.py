"""Call graph over the project symbol table.

Edges are resolved through import bindings, the class hierarchy
(virtual calls fan out to subclass overrides), annotated parameter /
return types, and inferred ``self.<attr>`` types.  Calls the resolver
cannot pin down — callbacks, computed attributes, stdlib objects — are
recorded as explicit **unknown edges** with their call site, never
silently dropped: the checks downstream can then report "analysis
stopped here" instead of pretending the path is clean.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..astutil import dotted as _dotted_name, walk_own
from .symbols import (
    FunctionInfo,
    SymbolTable,
    _parameter_types,
    infer_expr_type,
)

__all__ = ["CallEdge", "UnknownEdge", "CallGraph", "build_call_graph"]


@dataclass(frozen=True)
class CallEdge:
    """A resolved caller -> callee edge."""

    caller: str
    callee: str
    lineno: int
    kind: str  # "direct" | "method" | "constructor" | "virtual"


@dataclass(frozen=True)
class UnknownEdge:
    """A call the resolver could not pin to a definition."""

    caller: str
    callee_repr: str  # best-effort text, e.g. "self.uplink_sink"
    lineno: int
    reason: str  # "callback" | "unresolved-name" | "dynamic"


@dataclass
class CallGraph:
    """Adjacency over function qualnames, plus the unknown remainder."""

    table: SymbolTable
    edges: List[CallEdge] = field(default_factory=list)
    unknown: List[UnknownEdge] = field(default_factory=list)
    _out: Dict[str, List[CallEdge]] = field(default_factory=dict)

    def add(self, edge: CallEdge) -> None:
        self.edges.append(edge)
        self._out.setdefault(edge.caller, []).append(edge)

    def callees(self, qualname: str) -> List[CallEdge]:
        return self._out.get(qualname, [])

    def reachable(
        self,
        entries: Sequence[str],
        stop_modules: Sequence[str] = (),
    ) -> Dict[str, Tuple[str, ...]]:
        """Functions reachable from ``entries`` with one witness chain.

        ``stop_modules`` are module-name prefixes the traversal does
        not descend *into* (instrumentation packages whose calls are
        gated off the fast path); the boundary edge itself is dropped.
        Returns ``{qualname: (entry, ..., qualname)}``.
        """
        chains: Dict[str, Tuple[str, ...]] = {}
        queue: List[str] = []
        for entry in entries:
            if entry in self.table.functions and entry not in chains:
                chains[entry] = (entry,)
                queue.append(entry)
        while queue:
            current = queue.pop(0)
            for edge in self.callees(current):
                callee = edge.callee
                if callee in chains:
                    continue
                info = self.table.functions.get(callee)
                if info is None:
                    continue
                if any(
                    info.module == stop or info.module.startswith(stop + ".")
                    for stop in stop_modules
                ):
                    continue
                chains[callee] = chains[current] + (callee,)
                queue.append(callee)
        return chains

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "functions": sorted(self.table.functions),
            "edges": [
                {
                    "caller": e.caller,
                    "callee": e.callee,
                    "line": e.lineno,
                    "kind": e.kind,
                }
                for e in self.edges
            ],
            "unknown_edges": [
                {
                    "caller": u.caller,
                    "callee": u.callee_repr,
                    "line": u.lineno,
                    "reason": u.reason,
                }
                for u in self.unknown
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_dot(
        self,
        entries: Optional[Sequence[str]] = None,
        stop_modules: Sequence[str] = (),
    ) -> str:
        """Graphviz rendering; restricted to the subgraph reachable
        from ``entries`` when given (the UPF-U packet-path figure)."""
        keep: Optional[Set[str]] = None
        if entries:
            keep = set(self.reachable(entries, stop_modules=stop_modules))
        lines = [
            "digraph callgraph {",
            "  rankdir=LR;",
            '  node [shape=box, fontsize=10, fontname="monospace"];',
        ]
        seen_edges: Set[Tuple[str, str]] = set()
        # Caller, then call site, then callee: the text is the same on
        # every run, whatever order a virtual fan-out was resolved in
        # (it follows set iteration, so PYTHONHASHSEED).
        for edge in sorted(
            self.edges, key=lambda e: (e.caller, e.lineno, e.callee)
        ):
            if keep is not None and (
                edge.caller not in keep or edge.callee not in keep
            ):
                continue
            pair = (edge.caller, edge.callee)
            if pair in seen_edges:
                continue
            seen_edges.add(pair)
            style = ' [style=dashed]' if edge.kind == "virtual" else ""
            lines.append(
                f'  "{_short(edge.caller)}" -> "{_short(edge.callee)}"{style};'
            )
        for unknown in sorted(
            self.unknown, key=lambda u: (u.caller, u.lineno, u.callee_repr)
        ):
            if keep is not None and unknown.caller not in keep:
                continue
            pair = (unknown.caller, f"?{unknown.callee_repr}")
            if pair in seen_edges:
                continue
            seen_edges.add(pair)
            lines.append(
                f'  "{_short(unknown.caller)}" -> '
                f'"? {unknown.callee_repr}" [style=dotted, color=gray];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


def _short(qualname: str) -> str:
    """Trim the shared package prefix for readable graph labels."""
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 2 else qualname


def build_call_graph(table: SymbolTable) -> CallGraph:
    graph = CallGraph(table=table)
    for func in table.functions.values():
        _resolve_function_calls(graph, func)
    return graph


#: Builtin callables that never resolve to project code.
_BUILTINS = frozenset({
    "len", "range", "isinstance", "getattr", "setattr", "hasattr", "max",
    "min", "sum", "abs", "sorted", "enumerate", "zip", "map", "filter",
    "iter", "next", "print", "repr", "str", "int", "float", "bool",
    "list", "dict", "set", "tuple", "frozenset", "bytearray", "bytes",
    "id", "type", "super", "vars", "dir", "round", "divmod", "hash",
    "issubclass", "callable", "format", "open", "any", "all",
})


def _resolve_function_calls(graph: CallGraph, func: FunctionInfo) -> None:
    table = graph.table
    param_types = _parameter_types(table, func)
    local_types = dict(param_types)
    # One linear pre-pass infers local variable types from assignments
    # (flow-insensitive: last-writer-wins is fine at this granularity).
    for node in ast.walk(func.node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                inferred = infer_expr_type(table, func, local_types, node.value)
                if inferred:
                    local_types[target.id] = inferred
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            inferred = table.annotation_type(func.module, node.annotation)
            if inferred:
                local_types[node.target.id] = inferred

    for node in walk_own(func.node):
        if isinstance(node, ast.Call):
            _resolve_call(graph, func, local_types, node)


def _resolve_call(
    graph: CallGraph,
    func: FunctionInfo,
    local_types: Dict[str, str],
    call: ast.Call,
) -> None:
    table = graph.table
    target = call.func
    lineno = call.lineno

    dotted = _dotted_name(target)
    if dotted is not None:
        resolved = table.resolve_dotted(func.module, dotted)
        if resolved in table.functions:
            graph.add(CallEdge(func.qualname, resolved, lineno, "direct"))
            return
        if resolved in table.classes:
            init = table.resolve_method(resolved, "__init__")
            if init is not None:
                graph.add(
                    CallEdge(func.qualname, init, lineno, "constructor")
                )
            return
        head = dotted.split(".")[0]
        if dotted in _BUILTINS:
            return

    if isinstance(target, ast.Attribute):
        method = target.attr
        receiver_type = infer_expr_type(
            table, func, local_types, target.value
        )
        if receiver_type is not None:
            targets = table.virtual_targets(receiver_type, method)
            if targets:
                kind = "method" if len(targets) == 1 else "virtual"
                for callee in targets:
                    graph.add(CallEdge(func.qualname, callee, lineno, kind))
                return
            graph.unknown.append(
                UnknownEdge(
                    func.qualname,
                    f"{receiver_type.split('.')[-1]}.{method}",
                    lineno,
                    "callback",
                )
            )
            return
        graph.unknown.append(
            UnknownEdge(
                func.qualname,
                ast.unparse(target) if hasattr(ast, "unparse") else method,
                lineno,
                "dynamic",
            )
        )
        return

    if dotted is not None and dotted not in _BUILTINS:
        # A bare name that resolved to nothing in the project: either a
        # stdlib/builtin alias or a genuinely dynamic callable.
        if head in local_types or head in _BUILTINS:
            reason = "callback"
        else:
            reason = "unresolved-name"
        graph.unknown.append(
            UnknownEdge(func.qualname, dotted, lineno, reason)
        )
        return

    graph.unknown.append(
        UnknownEdge(
            func.qualname,
            ast.unparse(target) if hasattr(ast, "unparse") else "<expr>",
            lineno,
            "dynamic",
        )
    )
