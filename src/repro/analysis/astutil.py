"""AST helpers shared by every rule and check.

One copy each of the dotted-name reader, the walker that stays inside
one function's own scope, and the in-place attribute-mutation matcher
(R008 asks it of the ``up`` package's shared attributes).
"""

from __future__ import annotations

import ast
from typing import Container, Iterator, Optional, Tuple

__all__ = [
    "MUTATING_METHODS",
    "NESTED_SCOPES",
    "attr_mutations",
    "dotted",
    "walk_own",
]

#: Method names that mutate a dict/list container in place.
MUTATING_METHODS = frozenset({
    "pop", "popitem", "clear", "update", "setdefault",
    "append", "extend", "insert", "remove",
})

#: Nodes that open a scope of their own.
NESTED_SCOPES = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda,
)


def dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def walk_own(node: ast.AST) -> Iterator[ast.AST]:
    """``node`` and its descendants, staying in ``node``'s own scope: a
    nested def/class/lambda is yielded (it is a statement or a closure
    allocation of the enclosing scope) but its body is not entered."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        if current is not node and isinstance(current, NESTED_SCOPES):
            continue
        stack.extend(ast.iter_child_nodes(current))


def _mutated_attribute(target: ast.AST) -> Optional[ast.Attribute]:
    """The ``x.attr`` a store/delete target writes: ``x.attr`` itself
    or the container of ``x.attr[k]``."""
    if isinstance(target, ast.Subscript):
        target = target.value
    return target if isinstance(target, ast.Attribute) else None


def attr_mutations(
    tree: ast.AST, attrs: Container[str]
) -> Iterator[Tuple[ast.AST, str, Optional[str]]]:
    """Yield ``(node, attr, receiver)`` for each in-place mutation of an
    attribute named in ``attrs`` anywhere under ``tree``.

    Covers rebinding (``x.attr = v``, ``x.attr += v``), item writes
    (``x.attr[k] = v``, ``del x.attr[k]``, ``x.attr[k] += v``) and
    mutating method calls (``x.attr.pop(k)``...).  ``receiver`` is the
    base name the attribute hangs off (``"session"`` for
    ``session.pdrs``), or None for computed receivers.
    """
    for node in ast.walk(tree):
        written = []
        if isinstance(node, ast.Assign):
            written = [_mutated_attribute(t) for t in node.targets]
        elif isinstance(node, ast.AugAssign):
            written = [_mutated_attribute(node.target)]
        elif isinstance(node, ast.Delete):
            # ``del x.attr`` unbinds the name, it does not mutate the
            # container; only ``del x.attr[k]`` counts.
            written = [
                _mutated_attribute(t) for t in node.targets
                if isinstance(t, ast.Subscript)
            ]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_METHODS
            and isinstance(node.func.value, ast.Attribute)
        ):
            written = [node.func.value]
        for attribute in written:
            if attribute is not None and attribute.attr in attrs:
                value = attribute.value
                yield node, attribute.attr, (
                    value.id if isinstance(value, ast.Name) else None
                )
