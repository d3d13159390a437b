"""The whole-program half of the analyser: W001, W004, W008, W009.

Layers (each importable on its own), all working from the files
:func:`repro.analysis.analyzer.analyze` has already parsed:

* :mod:`.symbols` — project-wide symbol table: modules, classes
  (with MRO), functions, import bindings, annotation-driven types.
* :mod:`.callgraph` — call graph resolved through the symbol table;
  virtual calls fan out to overrides, unresolvable calls become
  explicit *unknown edges*.
* :mod:`.checks` — :class:`Program` (the one symbol table and call
  graph a run shares) and the checks W001, W004 and W008 over it.
* :mod:`.reach` — W009, a name fixpoint from what a user runs over the
  parsed trees (no symbol table, no call graph).

There is no control-flow graph and no dataflow solver: the one
path-sensitive hazard they served, a rule write on a removed session,
is refused at runtime by ``SessionTable.remove`` (``up/session.py``).

Nothing in here is imported by runtime code: the per-packet path pays
zero import-time or runtime cost for the analyser's existence.
"""

from .callgraph import CallEdge, CallGraph, UnknownEdge, build_call_graph
from .checks import (
    DEFAULT_PACKET_ENTRIES,
    AllocationSite,
    Program,
    allocation_sites,
)
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
    "CallEdge",
    "CallGraph",
    "ClassInfo",
    "DEFAULT_PACKET_ENTRIES",
    "FunctionInfo",
    "ModuleInfo",
    "Program",
    "SymbolTable",
    "UnknownEdge",
    "allocation_sites",
    "build_call_graph",
    "build_symbol_table",
    "module_name_for",
]
