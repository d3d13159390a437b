"""Worklist-based forward dataflow solver over the program CFGs.

The one engine that answers "which states reach here": an
:class:`Analysis` supplies the lattice (``initial``/``join``, equality
of states) and the transfer function; :func:`solve` runs the standard
chaotic-iteration worklist to a fixpoint over one
:class:`~repro.analysis.program.cfg.CFG` and returns the in-state of
every node.  W005–W007 (:mod:`.typestate`) are lattices on it.

Transfer functions return **two** out-states — ``(normal, exc)`` — so
an analysis can model statements whose effect differs on the
exceptional edge (e.g. a failed ``add`` leaves a removed session
*held*, a successful one transfers it).  Returning ``None`` for the
exceptional state suppresses propagation along that statement's
exception edges entirely, which is how checks ignore raising edges
they consider infeasible (calls whose callees provably do not raise).

Interprocedural context is supplied separately: the checks consult
:class:`FunctionEffects` summaries (computed by a bounded fixpoint over
the call graph) at call sites instead of inlining callees, which
bounds the analysis to one CFG at a time while still propagating
mutate/send/raise behavior through helpers — the "bounded context"
design from the whole-program checks.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..astutil import walk_own
from ..lifecycle import DESCRIPTOR_HANDOFF_METHODS, SEND_METHODS
from .callgraph import CallGraph
from .cfg import CFG, CFGNode, build_cfg
from .symbols import (
    FunctionInfo,
    SymbolTable,
    infer_expr_type,
    instrumentation_modules,
)

__all__ = [
    "Program",
    "Analysis",
    "solve",
    "FunctionEffects",
    "compute_effects",
    "resolve_call_targets",
    "MAX_CHAIN_DEPTH",
]

#: Bounded interprocedural context: effect chains stop growing past
#: this many call steps.
MAX_CHAIN_DEPTH = 4


class Program:
    """What one run shares between the whole-program checks: the one
    symbol table, the one call graph, and one CFG per function, built
    the first time a check asks for it."""

    def __init__(self, table: SymbolTable, graph: CallGraph) -> None:
        self.table = table
        self.graph = graph
        #: Module-name prefixes of the instrumentation packages.
        self.stops = instrumentation_modules(table)
        self._cfgs: Dict[str, CFG] = {}
        self._effects: Optional[Dict[str, "FunctionEffects"]] = None

    def cfg(self, qualname: str) -> CFG:
        cfg = self._cfgs.get(qualname)
        if cfg is None:
            cfg = build_cfg(self.table.functions[qualname].node, qualname)
            self._cfgs[qualname] = cfg
        return cfg

    @property
    def cfgs_built(self) -> int:
        return len(self._cfgs)

    @property
    def effects(self) -> Dict[str, "FunctionEffects"]:
        """Interprocedural effect summaries (computed on first use)."""
        if self._effects is None:
            self._effects = compute_effects(self.table)
        return self._effects


class Analysis:
    """Interface a path-sensitive check implements for :func:`solve`."""

    def initial(self, cfg: CFG) -> object:
        raise NotImplementedError

    def join(self, states: Sequence[object]) -> object:
        raise NotImplementedError

    def transfer(
        self, node: CFGNode, state: object
    ) -> Tuple[object, Optional[object]]:
        """Out-states ``(normal, exceptional)`` of one node."""
        raise NotImplementedError

    def transfer_branch(
        self, node: CFGNode, state: object
    ) -> Optional[Tuple[object, object, Optional[object]]]:
        """Branch-aware transfer for if/loop headers.

        Return ``(body_state, else_state, exc_state)`` to propagate
        different states down the truthy (``node.body_succ``) and
        falsey arms — used e.g. to model the ``if not x.pin(...):
        raise`` idiom, where the resource is only held on the arm the
        test did *not* take.  Return None to fall back to
        :meth:`transfer` for this node.
        """
        return None


def solve(cfg: CFG, analysis: Analysis) -> Dict[int, object]:
    """Run ``analysis`` to fixpoint; returns node index -> in-state."""
    in_states: Dict[int, object] = {cfg.entry: analysis.initial(cfg)}
    work = deque([cfg.entry])
    # Safety valve: lattices are finite, but a buggy non-monotone
    # transfer must not hang the lint.
    budget = (len(cfg.nodes) + 1) * 64

    def _merge(succ: int, out: object) -> None:
        known = in_states.get(succ)
        if known is None:
            in_states[succ] = out
            work.append(succ)
        else:
            joined = analysis.join((known, out))
            if joined != known:
                in_states[succ] = joined
                work.append(succ)

    while work and budget:
        budget -= 1
        index = work.popleft()
        state = in_states.get(index)
        if state is None:
            continue
        node = cfg.nodes[index]
        branch = (
            analysis.transfer_branch(node, state)
            if node.body_succ else None
        )
        if branch is not None:
            body_state, else_state, exc = branch
            body_set = set(node.body_succ)
            for succ in node.succ:
                _merge(succ, body_state if succ in body_set else else_state)
            if exc is not None:
                for succ in node.exc_succ:
                    _merge(succ, exc)
            continue
        normal, exc = analysis.transfer(node, state)
        for succs, out in ((node.succ, normal), (node.exc_succ, exc)):
            if out is None:
                continue
            for succ in succs:
                _merge(succ, out)
    return in_states


# ---------------------------------------------------------------------------
# Interprocedural effect summaries
# ---------------------------------------------------------------------------
@dataclass
class FunctionEffects:
    """What calling a function may do to its arguments / control flow.

    ``mutates_params`` / ``sends_params`` map *parameter index* (0 is
    ``self`` for methods) to the evidence chain of the deepest-known
    site; ``may_raise`` carries a witness chain when any path through
    the function (or a callee, up to :data:`MAX_CHAIN_DEPTH`) contains
    an explicit ``raise``/``assert``.
    """

    qualname: str
    mutates_params: Dict[int, Tuple[str, ...]] = field(default_factory=dict)
    sends_params: Dict[int, Tuple[str, ...]] = field(default_factory=dict)
    may_raise: Optional[Tuple[str, ...]] = None


def _param_names(func: ast.AST) -> List[str]:
    args = func.args
    names = [a.arg for a in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    )]
    return names


def resolve_call_targets(
    table: SymbolTable,
    func: FunctionInfo,
    call: ast.Call,
) -> List[str]:
    """Qualnames a call may dispatch to (best effort, virtual fan-out)."""
    targets: List[str] = []
    callee = call.func
    if isinstance(callee, ast.Name):
        resolved = table.resolve_dotted(func.module, callee.id)
        if resolved in table.functions:
            targets.append(resolved)
        elif resolved in table.classes:
            init = table.resolve_method(resolved, "__init__")
            if init:
                targets.append(init)
    elif isinstance(callee, ast.Attribute):
        recv_type = infer_expr_type(table, func, {}, callee.value)
        if recv_type:
            for target in table.virtual_targets(recv_type, callee.attr):
                targets.append(target)
    return [t for t in targets if t in table.functions]


def compute_effects(
    table: SymbolTable,
    send_methods: Sequence[str] = tuple(SEND_METHODS),
    handoff_methods: Sequence[str] = tuple(DESCRIPTOR_HANDOFF_METHODS),
) -> Dict[str, FunctionEffects]:
    """Bounded-context interprocedural effect summaries for every
    function in the table.

    Runs a fixpoint: direct effects (own attribute writes on
    parameters, own sends of parameters, own raise/assert) seed the
    summaries, then call sites propagate callee effects onto the
    caller's parameters until nothing changes or the evidence chains
    hit :data:`MAX_CHAIN_DEPTH`.  Functions in the instrumentation
    packages (``analysis``/``obs``) contribute no effects — their calls
    are ``is None``-gated no-ops on the hot path, and counting their
    strict-mode raises would poison every instrumented function.
    """
    send_set = frozenset(send_methods)
    handoff_set = frozenset(handoff_methods)
    stops = instrumentation_modules(table)
    effects: Dict[str, FunctionEffects] = {}
    param_index: Dict[str, Dict[str, int]] = {}

    # Pass 1: direct effects.
    for qualname, func in table.functions.items():
        eff = FunctionEffects(qualname)
        effects[qualname] = eff
        if func.module.startswith(stops):
            continue
        params = _param_names(func.node)
        index = {name: i for i, name in enumerate(params)}
        param_index[qualname] = index
        for stmt in walk_own(func.node):
            if isinstance(stmt, (ast.Raise, ast.Assert)):
                if eff.may_raise is None:
                    kind = "raise" if isinstance(stmt, ast.Raise) else "assert"
                    eff.may_raise = (f"{qualname}:{stmt.lineno} {kind}",)
            elif isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    base = target
                    while isinstance(base, (ast.Attribute, ast.Subscript)):
                        base = base.value
                    if (
                        base is not target
                        and isinstance(base, ast.Name)
                        and base.id in index
                    ):
                        attr = (
                            target.attr
                            if isinstance(target, ast.Attribute) else "[]"
                        )
                        eff.mutates_params.setdefault(
                            index[base.id],
                            (f"{qualname}:{stmt.lineno} writes .{attr}",),
                        )
            elif isinstance(stmt, ast.Call):
                call = stmt
                if not isinstance(call.func, ast.Attribute) or not call.args:
                    continue
                attr = call.func.attr
                first = call.args[0]
                # Descriptor handoff discipline: first positional arg
                # of a handoff method, or the sole arg of a unary send
                # (the bus's multi-arg send carries names, not
                # descriptors).
                is_handoff = attr in handoff_set or (
                    attr in send_set and len(call.args) == 1
                )
                if (
                    is_handoff
                    and isinstance(first, ast.Name)
                    and first.id in index
                ):
                    eff.sends_params.setdefault(
                        index[first.id],
                        (
                            f"{qualname}:{call.lineno} "
                            f"{attr}() hands over '{first.id}'",
                        ),
                    )

    # Pass 2: propagate through calls to fixpoint (bounded chains).
    changed = True
    while changed:
        changed = False
        for qualname, func in table.functions.items():
            if func.module.startswith(stops):
                continue
            eff = effects[qualname]
            index = param_index.get(qualname, {})
            for call in walk_own(func.node):
                if not isinstance(call, ast.Call):
                    continue
                for target in resolve_call_targets(table, func, call):
                    callee = effects.get(target)
                    if callee is None or callee is eff:
                        continue
                    changed |= _absorb(eff, callee, call, index, qualname)
    return effects


def _absorb(
    eff: FunctionEffects,
    callee: FunctionEffects,
    call: ast.Call,
    index: Dict[str, int],
    qualname: str,
) -> bool:
    """Fold one callee's effects into the caller's summary."""
    changed = False
    step = f"{qualname}:{call.lineno} calls {callee.qualname}"
    if callee.may_raise and eff.may_raise is None:
        chain = (step,) + callee.may_raise
        if len(chain) <= MAX_CHAIN_DEPTH + 1:
            eff.may_raise = chain
            changed = True
    # Map caller arguments onto callee parameters.  Method calls have
    # an implicit self at callee index 0, so positional arg i lands on
    # callee parameter i + 1; plain calls map 1:1.
    shift = 1 if isinstance(call.func, ast.Attribute) else 0
    for arg_pos, arg in enumerate(call.args):
        if not isinstance(arg, ast.Name) or arg.id not in index:
            continue
        callee_pos = arg_pos + shift
        own_pos = index[arg.id]
        for table_name in ("mutates_params", "sends_params"):
            callee_map = getattr(callee, table_name)
            own_map = getattr(eff, table_name)
            if callee_pos in callee_map and own_pos not in own_map:
                chain = (step,) + callee_map[callee_pos]
                if len(chain) <= MAX_CHAIN_DEPTH + 1:
                    own_map[own_pos] = chain
                    changed = True
    return changed
