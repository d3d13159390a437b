"""Worklist-based forward dataflow solver over the program CFGs.

The one engine that answers "which states reach here": an
:class:`Analysis` supplies the lattice (``initial``/``join``, equality
of states) and the transfer function; :func:`solve` runs the standard
chaotic-iteration worklist to a fixpoint over one
:class:`~repro.analysis.program.cfg.CFG` and returns the in-state of
every node.  W006's session lattice (:mod:`.typestate`) is the one
analysis on it.

Transfer functions return **two** out-states — ``(normal, exc)`` — so
an analysis can model statements whose effect differs on the
exceptional edge (a failed ``add`` leaves the session as it was, a
successful one installs it).  Returning ``None`` for the exceptional
state suppresses propagation along that statement's exception edges.
The analysis is intraprocedural: one CFG at a time, no callee
summaries.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Sequence, Tuple

from .callgraph import CallGraph
from .cfg import CFG, CFGNode, build_cfg
from .symbols import SymbolTable, instrumentation_modules

__all__ = ["Program", "Analysis", "solve"]


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

    def cfg(self, qualname: str) -> CFG:
        cfg = self._cfgs.get(qualname)
        if cfg is None:
            cfg = build_cfg(self.table.functions[qualname].node, qualname)
            self._cfgs[qualname] = cfg
        return cfg

    @property
    def cfgs_built(self) -> int:
        return len(self._cfgs)


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
        normal, exc = analysis.transfer(node, state)
        for succs, out in ((node.succ, normal), (node.exc_succ, exc)):
            if out is None:
                continue
            for succ in succs:
                _merge(succ, out)
    return in_states
