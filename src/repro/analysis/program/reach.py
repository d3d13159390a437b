"""W009 unreached-definition: code that only tests reach.

Reach is rooted at what a user runs: ``tests/conftest.py`` (the
``--sanitize``/``--race`` pytest plugin), ``examples/``,
``benchmarks/``, every ``__main__`` module, and every module-level
statement of the production files except imports and ``__all__`` (an
``if __name__ == "__main__"`` block, a registration table).  It follows
*references*, not calls: a step-table row's ``apply=Run.x``, a
``call_later(d, self._emit)`` callback, a scenario table's
``"register_ue"`` string and a ``getattr`` by name all reach.  So the
fixpoint is over bare names rather than the call graph, which cannot
resolve half of those edges: a ``Name``, an ``Attribute``, a keyword
name or an identifier-valued string constant in a reached body reaches
every definition of that name.  Dunders and definitions with a
registering (non-builtin) decorator count as reached.

A finding is an outermost unreached ``def``/``class`` of a production
file: an unreached class is reported once, not once per method.  The
check runs only when the analysed set holds its roots (a
``tests/conftest.py``, an ``examples/`` file and a ``benchmarks/``
file); without them everything they reach would read as dead.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Union

from ..astutil import dotted
from ..rules import FileContext, Finding

__all__ = ["ROOT_DIRS", "check_w009", "has_roots"]

#: Directories every file of which is a root.
ROOT_DIRS = ("examples", "benchmarks")

#: Decorators that register nothing: a definition carrying only these
#: is reached through its name like any other.
_PLAIN_DECORATORS = frozenset({
    "abstractmethod", "cache", "cached_property", "classmethod",
    "contextmanager", "dataclass", "deleter", "getter", "lru_cache",
    "property", "setter", "staticmethod", "total_ordering",
})

_Def = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef]
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _root_kind(ctx: FileContext) -> Optional[str]:
    """Which kind of root a file is ("conftest", "examples",
    "benchmarks"), or None."""
    if ctx.is_test:
        return "conftest" if ctx.path_endswith("conftest.py") else None
    return next((root for root in ROOT_DIRS if ctx.path_has(root)), None)


def has_roots(contexts: Sequence[FileContext]) -> bool:
    """True when the set holds a conftest, an example and a benchmark."""
    return {_root_kind(ctx) for ctx in contexts} >= {"conftest", *ROOT_DIRS}


def _names(nodes: Sequence[ast.AST]) -> Iterator[str]:
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.keyword) and node.arg:
                yield node.arg
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.isidentifier()):
                yield node.value


def _registers(node: _Def) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = (dotted(target) or "").rsplit(".", 1)[-1]
        if name not in _PLAIN_DECORATORS:
            return True
    return False


def _is_export_or_import(stmt: ast.stmt) -> bool:
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return True
    targets = getattr(stmt, "targets", None) or [getattr(stmt, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def check_w009(contexts: Sequence[FileContext]) -> List[Finding]:
    """One finding per outermost definition no root reaches."""
    names: Set[str] = set()
    aliases: Dict[str, str] = {}
    pending: List[tuple] = []  # (ctx, qualname, def node)
    for ctx in contexts:
        for node in ctx.nodes:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                aliases.update(
                    (alias.asname, alias.name.rsplit(".", 1)[-1])
                    for alias in node.names if alias.asname
                )
        if _root_kind(ctx) or ctx.path_endswith("__main__.py"):
            names.update(_names([ctx.tree]))
        elif not ctx.is_test:
            for stmt in ctx.tree.body:
                if isinstance(stmt, _DEFS):
                    pending.append((ctx, stmt.name, stmt))
                elif not _is_export_or_import(stmt):
                    names.update(_names([stmt]))

    changed = True
    while changed:
        changed = False
        names.update([aliases[n] for n in names if n in aliases])
        waiting = []
        for ctx, qualname, node in pending:
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if not (node.name in names or dunder or _registers(node)):
                waiting.append((ctx, qualname, node))
                continue
            changed = True
            if isinstance(node, ast.ClassDef):
                own = [s for s in node.body if not isinstance(s, _DEFS)]
                names.update(_names(
                    own + node.bases + node.keywords + node.decorator_list
                ))
                waiting.extend(
                    (ctx, f"{qualname}.{s.name}", s)
                    for s in node.body if isinstance(s, _DEFS)
                )
            else:
                names.update(_names([node]))
        pending = waiting

    return [
        Finding(
            path=ctx.path,
            line=node.lineno,
            col=node.col_offset + 1,
            code="W009",
            severity="error",
            message=(
                f"`{qualname}` ({node.end_lineno - node.lineno + 1} "
                "lines) is reached from no root (a __main__, "
                "tests/conftest.py, examples/, benchmarks/): put it on a "
                "path or delete it"
            ),
        )
        for ctx, qualname, node in pending
    ]
