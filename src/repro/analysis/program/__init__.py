"""The whole-program half of the analyser: W001, W004, W006, W008, W009.

Layers (each importable on its own), all working from the files
:func:`repro.analysis.analyzer.analyze` has already parsed:

* :mod:`.symbols` — project-wide symbol table: modules, classes
  (with MRO), functions, import bindings, annotation-driven types.
* :mod:`.callgraph` — call graph resolved through the symbol table;
  virtual calls fan out to overrides, unresolvable calls become
  explicit *unknown edges*.
* :mod:`.cfg` — statement-level control-flow graphs with def/use
  sets, attribute-write and call-site records, and explicit exception
  edges.
* :mod:`.solver` — the worklist dataflow solver over those CFGs and
  :class:`Program`: the one symbol table, call graph and per-function
  CFG cache a run shares.
* :mod:`.checks` — the call-graph checks W001 and W004.
* :mod:`.typestate` — the session lattice W006 and dead config W008.
* :mod:`.reach` — W009, a name fixpoint from what a user runs over the
  parsed trees (no symbol table, no call graph).

Nothing in here is imported by runtime code: the per-packet path pays
zero import-time or runtime cost for the analyser's existence.
"""

from .callgraph import CallEdge, CallGraph, UnknownEdge, build_call_graph
from .cfg import CFG, AttrWrite, CallSite, CFGNode, build_cfg
from .checks import DEFAULT_PACKET_ENTRIES, AllocationSite, allocation_sites
from .solver import Analysis, Program, solve
from .symbols import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    SymbolTable,
    build_symbol_table,
    module_name_for,
)

__all__ = [
    "AllocationSite",
    "Analysis",
    "AttrWrite",
    "CFG",
    "CFGNode",
    "CallEdge",
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "DEFAULT_PACKET_ENTRIES",
    "FunctionInfo",
    "ModuleInfo",
    "Program",
    "SymbolTable",
    "UnknownEdge",
    "allocation_sites",
    "build_call_graph",
    "build_cfg",
    "build_symbol_table",
    "module_name_for",
    "solve",
]
