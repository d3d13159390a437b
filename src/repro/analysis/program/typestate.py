"""The lifecycle checks W006 and W008.

========  ==================================================================
W006      Session/rule lifecycle (``created -> installed -> removed``),
          a lattice on the dataflow solver: a rule call on a session
          that is in state ``removed`` on some path.
W008      Dead config: a ``*Config`` dataclass field no expression in
          the analyzed tree ever reads, and metric instruments created
          and immediately discarded — configuration no reachable path
          can observe.
========  ==================================================================

Findings carry path/call-chain evidence and are suppressed by the
same inline ``# repro: noqa[...]`` comments as every other check.  The
violation kinds come from :mod:`repro.analysis.lifecycle`.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..astutil import dotted as _dotted_text
from ..lifecycle import (
    DEAD_CONFIG,
    SESSION_CLASS_SUFFIX,
    SESSION_ESTABLISH_METHODS,
    SESSION_INSTALL_METHODS,
    SESSION_REMOVE_METHODS,
    USE_AFTER_REMOVE,
)
from ..rules import Finding
from .cfg import CFG, CFGNode, CallSite
from .checks import function_finding
from .solver import Analysis, Program, solve
from .symbols import FunctionInfo

__all__ = ["check_w006", "check_w008"]


def check_w006(program: Program) -> List[Finding]:
    """Run the session lattice over every function outside the
    instrumentation packages."""
    findings: List[Finding] = []
    for qualname in sorted(program.table.functions):
        func = program.table.functions[qualname]
        if not func.module.startswith(program.stops):
            findings.extend(_check_function(program, func))
    return findings


def _base_var(name: Optional[str]) -> Optional[str]:
    if not name:
        return None
    return name.split(".", 1)[0]


def _is_method_call(call: CallSite) -> bool:
    return isinstance(call.node.func, ast.Attribute)


# ===========================================================================
# W006 — session/rule lifecycle
# ===========================================================================
# Fact per session-typed local: (var, states, origins)
# states: frozenset of lifecycle states (may-analysis: union on join)
# origins: frozenset of evidence steps for the chain
_Fact = Tuple[str, FrozenSet[str], FrozenSet[str]]


class _W006State(Analysis):
    def __init__(self, qualname: str):
        self.qualname = qualname

    def initial(self, cfg: CFG) -> FrozenSet[_Fact]:
        return frozenset()

    def join(self, states) -> FrozenSet[_Fact]:
        by_var: Dict[str, List[_Fact]] = {}
        for state in states:
            for fact in state:
                by_var.setdefault(fact[0], []).append(fact)
        return frozenset(
            (var,
             frozenset().union(*(f[1] for f in facts)),
             frozenset().union(*(f[2] for f in facts)))
            for var, facts in by_var.items()
        )

    def _step(self, lineno: int, text: str) -> FrozenSet[str]:
        return frozenset({f"-> {self.qualname}:{lineno} {text}"})

    def transfer(self, node: CFGNode, state):
        facts: Dict[str, _Fact] = {f[0]: f for f in state}
        stmt = node.stmt

        # Binding forms that *create* facts suppress the kill of their
        # own target.
        created: Dict[str, _Fact] = {}
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                value = stmt.value
                if isinstance(value, ast.Call):
                    ctor = value.func
                    ctor_name = (
                        ctor.id if isinstance(ctor, ast.Name)
                        else ctor.attr if isinstance(ctor, ast.Attribute)
                        else ""
                    )
                    if ctor_name.endswith(SESSION_CLASS_SUFFIX):
                        created[target.id] = (
                            target.id,
                            frozenset({"created"}),
                            self._step(
                                stmt.lineno,
                                f"'{target.id}' = {ctor_name}(...) "
                                "(state 'created')",
                            ),
                        )
                    elif (
                        ctor_name in SESSION_REMOVE_METHODS
                        and isinstance(ctor, ast.Attribute)
                    ):
                        created[target.id] = (
                            target.id,
                            frozenset({"removed"}),
                            self._step(
                                stmt.lineno,
                                f"'{target.id}' = {ctor_name}(...) result "
                                "(state 'removed')",
                            ),
                        )
                elif isinstance(value, ast.Name) and value.id in facts:
                    created[target.id] = (target.id,) + facts[value.id][1:]

        for name in node.defs:
            facts.pop(name, None)
        facts.update(created)

        # A raising call's lifecycle transition did not happen: the
        # exceptional edge carries the pre-call facts (a failed add
        # leaves the session 'removed', not 'installed').
        pre_call = frozenset(facts.values())

        for call in node.calls:
            self._apply_call(facts, call)

        # Escapes: returning or storing a tracked session unmonitors it.
        if isinstance(stmt, ast.Return) and isinstance(
            stmt.value, ast.Name
        ):
            facts.pop(stmt.value.id, None)
        if (
            isinstance(stmt, ast.Assign)
            and node.attr_writes
            and isinstance(stmt.value, ast.Name)
        ):
            facts.pop(stmt.value.id, None)

        result = frozenset(facts.values())
        return result, pre_call

    def _apply_call(self, facts: Dict[str, _Fact], call: CallSite) -> None:
        name = call.name
        if name in SESSION_ESTABLISH_METHODS and _is_method_call(call):
            for arg in call.args:
                if isinstance(arg, ast.Name) and arg.id in facts:
                    var, _, origins = facts[arg.id]
                    facts[arg.id] = (
                        var, frozenset({"installed"}),
                        origins | self._step(
                            call.lineno, f"add('{var}') (state 'installed')"
                        ),
                    )
            return
        if name in SESSION_REMOVE_METHODS and _is_method_call(call):
            for arg in call.args:
                base = None
                if isinstance(arg, ast.Attribute):
                    base = _base_var(_dotted_text(arg))
                if base in facts:
                    var, _, origins = facts[base]
                    facts[base] = (
                        var, frozenset({"removed"}),
                        origins | self._step(
                            call.lineno,
                            f"remove(...) tears '{var}' down "
                            "(state 'removed')",
                        ),
                    )
            return
        if name in SESSION_INSTALL_METHODS and (
            _base_var(call.receiver) in facts
        ):
            return  # a rule call on a tracked session: W006 judges it
        # Any other call a tracked session participates in: escape.
        for arg in call.args:
            if isinstance(arg, ast.Name) and arg.id in facts:
                facts.pop(arg.id, None)


def _check_function(program: Program, func: FunctionInfo) -> List[Finding]:
    cfg = program.cfg(func.qualname)
    states = solve(cfg, _W006State(func.qualname))
    findings: Dict[Tuple[int, str], Finding] = {}
    for node in cfg.nodes:
        state = states.get(node.index)
        if not state:
            continue
        facts: Dict[str, _Fact] = {f[0]: f for f in state}
        for call in node.calls:
            recv_base = _base_var(call.receiver)
            if (
                call.name in SESSION_INSTALL_METHODS
                and recv_base in facts
                and "removed" in facts[recv_base][1]
            ):
                message = (
                    f"{USE_AFTER_REMOVE}: {call.name}() called on "
                    f"'{recv_base}' in state 'removed'; a torn-down "
                    "session's rules are invisible to the data plane"
                )
                findings.setdefault(
                    (call.lineno, message),
                    function_finding(
                        func, call.lineno, "W006", message,
                        sorted(facts[recv_base][2]) + [
                            f"-> {func.qualname}:{call.lineno} "
                            f"{recv_base}.{call.name}() after remove",
                        ],
                    ),
                )
    return list(findings.values())


# ===========================================================================
# W008 — constant-propagation dead config
# ===========================================================================
def check_w008(program: Program) -> List[Finding]:
    table, stops = program.table, program.stops
    findings: List[Finding] = []

    # Every attribute name read anywhere in the analyzed tree.
    reads: Set[str] = set()
    discarded: List[Tuple[str, str, str, int]] = []
    for module in table.modules.values():
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                reads.add(node.attr)
            if (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr in (
                    "gauge", "counter", "histogram"
                )
            ):
                discarded.append((
                    module.path,
                    module.name,
                    node.value.func.attr,
                    node.lineno,
                ))

    for cls_qualname in sorted(table.classes):
        cls = table.classes[cls_qualname]
        if not cls_qualname.split(".")[-1].endswith("Config"):
            continue
        if stops and cls.module.startswith(stops):
            continue
        for stmt in cls.node.body:
            if not isinstance(stmt, ast.AnnAssign) or not isinstance(
                stmt.target, ast.Name
            ):
                continue
            name = stmt.target.id
            if name.startswith("_") or name in reads:
                continue
            findings.append(
                Finding(
                    path=cls.path,
                    line=stmt.lineno,
                    col=1,
                    code="W008",
                    severity="warning",
                    message=(
                        f"{DEAD_CONFIG}: "
                        f"{cls_qualname.split('.')[-1]} flag "
                        f"'{name}' is never read on any reachable "
                        "path; it configures nothing"
                    ),
                    chain=(
                        f"-> declared at {cls_qualname}.{name}",
                        "-> no attribute read of "
                        f"'.{name}' anywhere in the analyzed tree",
                    ),
                )
            )

    for path, module, method, lineno in discarded:
        if stops and module.startswith(stops):
            continue
        findings.append(
            Finding(
                path=path,
                line=lineno,
                col=1,
                code="W008",
                severity="warning",
                message=(
                    f"{DEAD_CONFIG}: metric {method}() instrument is "
                    "created and immediately discarded; no reachable "
                    "path can observe it"
                ),
                chain=(
                    f"-> {module}:{lineno} {method}(...) result unused",
                ),
            )
        )
    return findings

