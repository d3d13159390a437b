"""W002's path question — "is every rule-container mutation published
by an epoch bump before control returns to the event loop?" — as a
lattice on the shared solver.

State at a program point: ``(pending, bumped)`` — the mutations not yet
published on *some* path reaching it, and whether *every* path reaching
it has executed a bump.  Join is ``(∪, ∧)``.  The transfer function
reads one CFG node: a ``bump()`` (direct, or a call to a function that
bumps on all its paths) discharges everything pending; a call adds its
callee's still-pending mutations, each with the call site prepended to
its evidence chain; a ``yield`` is an event-loop boundary, where
pending mutations become violations; the node's own mutations of a
:data:`~repro.analysis.lifecycle.RULE_CONTAINERS` attribute are added
last.  A statement that raises may or may not have taken effect, so its
exception edge carries the join of its in- and out-state into the
handler.  An explicit ``raise`` is a function exit like ``return``.

Function summaries — pending at exit, bumps on all paths — propagate
through the call graph to a fixpoint, so a mutation in a helper three
frames down is charged to the public operation that fails to publish
it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..astutil import attr_mutations
from ..lifecycle import RULE_CONTAINERS
from .cfg import CFG, CFGNode
from .solver import Analysis, Program, solve
from .symbols import FunctionInfo

__all__ = [
    "MutationSite",
    "EpochState",
    "EpochFlow",
    "analyze_epoch_flow",
]


@dataclass(frozen=True)
class MutationSite:
    """One rule-container mutation (function, attr, line)."""

    qualname: str
    attr: str
    lineno: int


#: A pending mutation: the site plus the call chain that reached it
#: (innermost first), used as the finding's evidence.
Pending = Tuple[MutationSite, Tuple[str, ...]]


@dataclass(frozen=True)
class EpochState:
    """The W002 lattice element; also one function's summary, read at
    its exits."""

    #: Mutations unpublished on some path, one entry per site.
    pending: Tuple[Pending, ...] = ()
    #: True when every path to here executed a bump.
    bumped: bool = False


def _join(states: Sequence[EpochState]) -> EpochState:
    pending: Dict[MutationSite, Pending] = {}
    for state in states:
        for entry in state.pending:
            pending.setdefault(entry[0], entry)
    return EpochState(
        pending=tuple(pending.values()),
        bumped=bool(states) and all(state.bumped for state in states),
    )


@dataclass
class EpochFlow:
    """Result of the interprocedural epoch-bump analysis."""

    #: (function, yield line, pending) — published too late no matter
    #: what the caller does.
    yield_violations: List[Tuple[str, int, Pending]] = field(
        default_factory=list
    )
    #: function -> its summary (absent = nothing pending, no bump).
    summaries: Dict[str, EpochState] = field(default_factory=dict)


def _is_bump_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "bump"
    )


def _evaluated(node: CFGNode) -> Sequence[ast.AST]:
    """The expressions one CFG node evaluates: a compound statement's
    header node covers its test/iterator/context managers only."""
    stmt = node.stmt
    if stmt is None or isinstance(
        stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        return ()
    if isinstance(stmt, (ast.If, ast.While)):
        return (stmt.test,)
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return (stmt.iter,)
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return tuple(item.context_expr for item in stmt.items)
    return (stmt,)


#: One evaluated expression's effects: ``("bump" | "call" | "yield",
#: line)`` in visit order, then the ``(line, attr)`` mutations.
_Step = Tuple[Tuple[Tuple[str, int], ...], Tuple[Tuple[int, str], ...]]


def _node_steps(cfg: CFG, exempt: bool) -> Dict[int, Tuple[_Step, ...]]:
    """node index -> its steps, for the nodes that have any.  Computed
    once per function; the fixpoint rounds only replay them."""
    steps: Dict[int, Tuple[_Step, ...]] = {}
    for node in cfg.nodes:
        found: List[_Step] = []
        for expr in _evaluated(node):
            events: List[Tuple[str, int]] = []
            for child in ast.walk(expr):
                if _is_bump_call(child):
                    events.append(("bump", child.lineno))
                elif isinstance(child, ast.Call):
                    events.append(("call", child.lineno))
                elif isinstance(
                    child, (ast.Yield, ast.YieldFrom, ast.Await)
                ):
                    events.append(("yield", child.lineno))
            # Construction happens before any reader holds a snapshot:
            # __init__'s own writes have nothing to publish yet.
            mutations = () if exempt else tuple(
                (site.lineno, attr)
                for site, attr, _ in attr_mutations(expr, RULE_CONTAINERS)
            )
            if events or mutations:
                found.append((tuple(events), mutations))
        if found:
            steps[node.index] = tuple(found)
    return steps


class EpochAnalysis(Analysis):
    """The W002 lattice over one function's CFG."""

    def __init__(
        self,
        func: FunctionInfo,
        steps: Dict[int, Tuple[_Step, ...]],
        calls_by_line: Dict[int, List[str]],
        summaries: Dict[str, EpochState],
        record_yields: Optional[List[Tuple[str, int, Pending]]] = None,
    ) -> None:
        self.func = func
        self.steps = steps
        self.calls_by_line = calls_by_line
        self.summaries = summaries
        self.record_yields = record_yields

    def initial(self, cfg: CFG) -> EpochState:
        return EpochState()

    def join(self, states: Sequence[EpochState]) -> EpochState:
        return _join(states)

    def transfer(self, node: CFGNode, state: EpochState):
        steps = self.steps.get(node.index)
        if steps is None:
            return state, state
        qualname = self.func.qualname
        pending = list(state.pending)
        bumped = state.bumped
        for events, mutations in steps:
            for kind, lineno in events:
                if kind == "bump":
                    pending, bumped = [], True
                elif kind == "call":
                    for callee in self.calls_by_line.get(lineno, ()):
                        summary = self.summaries.get(callee)
                        if summary is None:
                            continue
                        if summary.bumped:
                            pending, bumped = [], True
                        here = (f"{qualname}:{lineno}",)
                        pending.extend(
                            (site, here + chain)
                            for site, chain in summary.pending
                        )
                else:
                    if self.record_yields is not None:
                        self.record_yields.extend(
                            (qualname, lineno, entry) for entry in pending
                        )
                    # Reported here; do not double-report at the caller.
                    pending = []
            pending.extend(
                (MutationSite(qualname, attr, lineno), ())
                for lineno, attr in mutations
            )
        out = _join([EpochState(tuple(pending), bumped)])
        return out, _join([state, out])


class _Function:
    """What the fixpoint keeps per function between rounds."""

    def __init__(self, program: Program, func: FunctionInfo) -> None:
        self.func = func
        self.cfg = program.cfg(func.qualname)
        self.steps = _node_steps(self.cfg, exempt=func.name == "__init__")
        self.calls_by_line: Dict[int, List[str]] = {}
        for edge in program.graph.callees(func.qualname):
            self.calls_by_line.setdefault(edge.lineno, []).append(edge.callee)

    def summarize(
        self,
        summaries: Dict[str, EpochState],
        record_yields: Optional[List[Tuple[str, int, Pending]]] = None,
    ) -> EpochState:
        analysis = EpochAnalysis(
            self.func, self.steps, self.calls_by_line, summaries
        )
        states = solve(self.cfg, analysis)
        exits = [states[self.cfg.exit]] if self.cfg.exit in states else []
        analysis.record_yields = record_yields
        for node in self.cfg.nodes:
            state = states.get(node.index)
            if state is None:
                continue
            is_raise = isinstance(node.stmt, ast.Raise)
            if is_raise or (
                record_yields is not None and node.index in self.steps
            ):
                out, _ = analysis.transfer(node, state)
                if is_raise:
                    exits.append(out)
        return _join(exits)


def _touches_epoch(func: FunctionInfo) -> bool:
    """The function itself mutates a rule container or bumps."""
    return any(_is_bump_call(node) for node in ast.walk(func.node)) or any(
        True for _ in attr_mutations(func.node, RULE_CONTAINERS)
    )


def _site_keys(state: EpochState) -> FrozenSet[MutationSite]:
    return frozenset(site for site, _ in state.pending)


def analyze_epoch_flow(program: Program) -> EpochFlow:
    """Fixpoint of the per-function summaries over the call graph.

    Only functions that can have a non-empty summary are solved: those
    that mutate or bump themselves, and (transitively, as the rounds
    fill ``summaries``) their callers.
    """
    functions = program.table.functions
    own = {q for q, func in functions.items() if _touches_epoch(func)}
    summaries: Dict[str, EpochState] = {}
    prepared: Dict[str, _Function] = {}

    def relevant(qualname: str) -> Optional[_Function]:
        if qualname not in own and not any(
            edge.callee in summaries
            for edge in program.graph.callees(qualname)
        ):
            return None
        if qualname not in prepared:
            prepared[qualname] = _Function(program, functions[qualname])
        return prepared[qualname]

    # Monotone (pendings only grow, bump flags only flip once); bounded
    # for safety on pathological recursion.
    for _ in range(10):
        changed = False
        for qualname in functions:
            function = relevant(qualname)
            if function is None:
                continue
            updated = function.summarize(summaries)
            previous = summaries.get(qualname, EpochState())
            if (
                _site_keys(updated) != _site_keys(previous)
                or updated.bumped != previous.bumped
            ):
                summaries[qualname] = updated
                changed = True
        if not changed:
            break

    flow = EpochFlow()
    for qualname in functions:
        function = relevant(qualname)
        if function is not None:
            flow.summaries[qualname] = function.summarize(
                summaries, record_yields=flow.yield_violations
            )
    return flow
