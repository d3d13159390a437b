"""Project-wide symbol table for the whole-program checks.

One pass over the already-parsed files builds :class:`SymbolTable`:
modules with their import bindings, classes with resolved base classes
and per-attribute types, and functions with qualified names.
Everything downstream — the call graph, the CFGs, the W-checks —
resolves names through this table instead of re-walking ASTs.

Names are qualified as ``package.module.Class.method``; module names
are derived from the filesystem (the longest chain of directories
carrying ``__init__.py``), so the table works both on ``src/repro`` and
on throwaway fixture packages in tests.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..astutil import dotted as _dotted_name, walk_own
from ..rules import FileContext

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "SymbolTable",
    "module_name_for",
    "build_symbol_table",
    "infer_expr_type",
    "instrumentation_modules",
]

#: Instrumentation sub-packages: calls into them are gated behind
#: ``is None`` checks on the fast path, so reachability (W001) and
#: the effect summaries stop at their boundary, and W004 polices who
#: may import them instead.
INSTRUMENTATION = ("analysis", "obs")


def module_name_for(path: str) -> str:
    """Dotted module name from the package structure on disk."""
    norm = os.path.abspath(path)
    directory, filename = os.path.split(norm)
    stem = filename[:-3] if filename.endswith(".py") else filename
    parts: List[str] = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        parts.insert(0, package)
        if not package:
            break
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str
    module: str
    path: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    name: str
    lineno: int
    cls: Optional[str] = None  # owning class qualname, if a method
    is_generator: bool = False
    decorators: Tuple[str, ...] = ()
    #: Resolved return-annotation class qualname (None if unknown).
    return_type: Optional[str] = None


@dataclass
class ClassInfo:
    """One class definition with its resolved hierarchy."""

    qualname: str
    module: str
    path: str
    node: ast.ClassDef
    lineno: int
    #: Base-class qualnames (resolved where possible, raw text else).
    bases: Tuple[str, ...] = ()
    #: method name -> FunctionInfo qualname (own methods only).
    methods: Dict[str, str] = field(default_factory=dict)
    #: ``self.<attr>`` -> class qualname inferred from __init__ et al.
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module and its name bindings."""

    name: str
    path: str
    tree: ast.Module
    #: local name -> qualified target (module, class, or function).
    bindings: Dict[str, str] = field(default_factory=dict)
    #: (absolute imported module, lineno) for every import statement.
    import_edges: List[Tuple[str, int]] = field(default_factory=list)
    #: module-level variable annotations: name -> class qualname.
    var_types: Dict[str, str] = field(default_factory=dict)


class SymbolTable:
    """Modules, classes, and functions of the analyzed program."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: class qualname -> direct subclasses (for virtual dispatch).
        self.subclasses: Dict[str, Set[str]] = {}

    # -- name resolution -------------------------------------------------
    def resolve_binding(self, name: str, depth: int = 8) -> Optional[str]:
        """Follow re-export chains until a table entry (or dead end)."""
        seen: Set[str] = set()
        current = name
        while depth > 0 and current not in seen:
            seen.add(current)
            depth -= 1
            if (
                current in self.classes
                or current in self.functions
                or current in self.modules
            ):
                return current
            # ``pkg.sub.Name`` where pkg.sub re-exports Name.
            prefix, _, leaf = current.rpartition(".")
            module = self.modules.get(prefix)
            if module is None or leaf not in module.bindings:
                return None
            current = module.bindings[leaf]
        return None

    def resolve_dotted(self, module: str, dotted: str) -> Optional[str]:
        """Resolve ``a.b.c`` as used inside ``module`` to a qualname."""
        parts = dotted.split(".")
        info = self.modules.get(module)
        if info is None:
            return None
        head = info.bindings.get(parts[0], parts[0])
        current: Optional[str] = head
        for part in parts[1:]:
            if current is None:
                return None
            current = self.resolve_binding(f"{current}.{part}")
        return self.resolve_binding(current) if current else None

    def mro(self, class_qualname: str) -> List[str]:
        """Depth-first linearization (good enough without diamonds of
        conflicting overrides)."""
        out: List[str] = []
        stack = [class_qualname]
        seen: Set[str] = set()
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            out.append(current)
            stack.extend(info.bases)
        return out

    def resolve_method(
        self, class_qualname: str, method: str
    ) -> Optional[str]:
        """The function qualname ``class.method`` dispatches to."""
        for cls in self.mro(class_qualname):
            info = self.classes.get(cls)
            if info is not None and method in info.methods:
                return info.methods[method]
        return None

    def virtual_targets(self, class_qualname: str, method: str) -> List[str]:
        """Static + subclass-override targets of a method call.

        A call through a base-class reference may land in any subclass
        override, so reachability must fan out to all of them.
        """
        targets: List[str] = []
        base = self.resolve_method(class_qualname, method)
        if base is not None:
            targets.append(base)
        stack = list(self.subclasses.get(class_qualname, ()))
        seen: Set[str] = set()
        while stack:
            sub = stack.pop()
            if sub in seen:
                continue
            seen.add(sub)
            info = self.classes.get(sub)
            if info is not None and method in info.methods:
                targets.append(info.methods[method])
            stack.extend(self.subclasses.get(sub, ()))
        # Preserve order, drop duplicates.
        unique: List[str] = []
        for target in targets:
            if target not in unique:
                unique.append(target)
        return unique

    # -- type resolution -------------------------------------------------
    def annotation_type(
        self, module: str, annotation: Optional[ast.AST]
    ) -> Optional[str]:
        """Class qualname named by an annotation, unwrapping Optional
        and string forward references; None for builtins/unknowns."""
        if annotation is None:
            return None
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            try:
                parsed = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return None
            return self.annotation_type(module, parsed)
        if isinstance(annotation, ast.Subscript):
            head = _dotted_name(annotation.value)
            if head and head.split(".")[-1] == "Optional":
                return self.annotation_type(module, annotation.slice)
            return None
        dotted = _dotted_name(annotation)
        if dotted is None:
            return None
        resolved = self.resolve_dotted(module, dotted)
        if resolved in self.classes:
            return resolved
        return None


def instrumentation_modules(table: "SymbolTable") -> Tuple[str, ...]:
    """``<root>.analysis`` / ``<root>.obs`` of every analyzed root
    package, as module-name prefixes."""
    roots = sorted({name.split(".")[0] for name in table.modules})
    return tuple(
        f"{root}.{sub}" for root in roots for sub in INSTRUMENTATION
    )


def _decorator_names(node: ast.AST) -> Tuple[str, ...]:
    names: List[str] = []
    for decorator in getattr(node, "decorator_list", ()):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        dotted = _dotted_name(target)
        if dotted:
            names.append(dotted)
    return tuple(names)


def _contains_yield(node: ast.AST) -> bool:
    """Yield/YieldFrom directly in this function (not nested defs)."""
    return any(
        isinstance(child, (ast.Yield, ast.YieldFrom))
        for child in walk_own(node)
    )


def _absolute_import(
    module: str, is_package: bool, node: ast.ImportFrom
) -> Optional[str]:
    """Absolute module targeted by a (possibly relative) import-from."""
    if node.level == 0:
        return node.module
    parts = module.split(".")
    # Relative level 1 means "this package": for a plain module that is
    # its parent package, for a package __init__ it is itself.
    chop = node.level if is_package else node.level
    base = parts[: len(parts) - chop + (1 if is_package else 0)]
    if not base and not node.module:
        return None
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base) if base else None


def build_symbol_table(contexts: Sequence[FileContext]) -> SymbolTable:
    """Build the table from parsed files (nothing is re-read or
    re-parsed here).

    Resolution runs in passes: collect definitions, then import
    bindings, then class bases/subclasses, then annotations and
    attribute types (which need the class index).
    """
    table = SymbolTable()
    parsed: List[Tuple[ModuleInfo, ast.Module]] = []

    # Pass 1 — modules, classes, functions.
    for ctx in contexts:
        name = module_name_for(ctx.path)
        tree = ctx.tree
        info = ModuleInfo(name=name, path=ctx.path, tree=tree)
        table.modules[name] = info
        parsed.append((info, tree))
        _collect_definitions(table, info, tree)

    # Pass 2 — import bindings and import edges.
    for info, tree in parsed:
        _collect_imports(table, info, tree)

    # Pass 3 — base classes and the subclass index.
    for cls in table.classes.values():
        resolved_bases: List[str] = []
        for base in cls.node.bases:
            dotted = _dotted_name(base)
            if dotted is None:
                continue
            target = table.resolve_dotted(cls.module, dotted)
            resolved_bases.append(target if target else dotted)
        cls.bases = tuple(resolved_bases)
        for base in cls.bases:
            table.subclasses.setdefault(base, set()).add(cls.qualname)

    # Pass 4 — annotations: return types, module vars, self attributes.
    for info, tree in parsed:
        for node in tree.body:
            if isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                annotated = table.annotation_type(info.name, node.annotation)
                if annotated:
                    info.var_types[node.target.id] = annotated
    for func in table.functions.values():
        func.return_type = table.annotation_type(
            func.module, getattr(func.node, "returns", None)
        )
    for cls in table.classes.values():
        _collect_attr_types(table, cls)

    return table


def _collect_definitions(
    table: SymbolTable, info: ModuleInfo, tree: ast.Module
) -> None:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{info.name}.{node.name}"
            table.functions[qualname] = FunctionInfo(
                qualname=qualname,
                module=info.name,
                path=info.path,
                node=node,
                name=node.name,
                lineno=node.lineno,
                is_generator=_contains_yield(node),
                decorators=_decorator_names(node),
            )
            info.bindings[node.name] = qualname
        elif isinstance(node, ast.ClassDef):
            cls_qualname = f"{info.name}.{node.name}"
            cls = ClassInfo(
                qualname=cls_qualname,
                module=info.name,
                path=info.path,
                node=node,
                lineno=node.lineno,
            )
            table.classes[cls_qualname] = cls
            info.bindings[node.name] = cls_qualname
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    method_qualname = f"{cls_qualname}.{item.name}"
                    table.functions[method_qualname] = FunctionInfo(
                        qualname=method_qualname,
                        module=info.name,
                        path=info.path,
                        node=item,
                        name=item.name,
                        lineno=item.lineno,
                        cls=cls_qualname,
                        is_generator=_contains_yield(item),
                        decorators=_decorator_names(item),
                    )
                    cls.methods[item.name] = method_qualname


def _collect_imports(
    table: SymbolTable, info: ModuleInfo, tree: ast.Module
) -> None:
    is_package = info.path.replace("\\", "/").endswith("__init__.py")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                info.bindings.setdefault(bound, target)
                info.import_edges.append((alias.name, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            base = _absolute_import(info.name, is_package, node)
            if base is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                submodule = f"{base}.{alias.name}"
                if submodule in table.modules:
                    # ``from pkg import submodule`` binds the module.
                    info.bindings.setdefault(bound, submodule)
                    info.import_edges.append((submodule, node.lineno))
                else:
                    info.bindings.setdefault(bound, f"{base}.{alias.name}")
                    info.import_edges.append((base, node.lineno))


def _collect_attr_types(table: SymbolTable, cls: ClassInfo) -> None:
    """Infer ``self.<attr>`` types from annotations, constructor calls,
    and annotated-parameter assignments across the class body."""
    for method_qualname in cls.methods.values():
        func = table.functions.get(method_qualname)
        if func is None:
            continue
        param_types = _parameter_types(table, func)
        for node in ast.walk(func.node):
            target: Optional[ast.AST] = None
            value: Optional[ast.AST] = None
            annotation: Optional[ast.AST] = None
            if isinstance(node, ast.AnnAssign):
                target, value, annotation = node.target, node.value, node.annotation
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            attr = target.attr
            inferred = table.annotation_type(func.module, annotation)
            if inferred is None and value is not None:
                inferred = infer_expr_type(table, func, param_types, value)
            if inferred and attr not in cls.attr_types:
                cls.attr_types[attr] = inferred


def _parameter_types(
    table: SymbolTable, func: FunctionInfo
) -> Dict[str, str]:
    """name -> class qualname for annotated parameters (self included)."""
    types: Dict[str, str] = {}
    args = func.node.args
    for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        inferred = table.annotation_type(func.module, arg.annotation)
        if inferred:
            types[arg.arg] = inferred
    if func.cls is not None and "self" not in types:
        types["self"] = func.cls
    return types


def infer_expr_type(
    table: SymbolTable,
    func: FunctionInfo,
    local_types: Dict[str, str],
    expr: ast.AST,
) -> Optional[str]:
    """Best-effort static type of an expression (class qualname).

    Covers: constructor calls, calls to functions with annotated
    returns, names with known local/param types, ``self.attr`` with a
    recorded attribute type, module-level annotated variables, and
    conditional expressions (first resolvable arm).
    """
    if isinstance(expr, ast.IfExp):
        return (
            infer_expr_type(table, func, local_types, expr.body)
            or infer_expr_type(table, func, local_types, expr.orelse)
        )
    if isinstance(expr, ast.Call):
        dotted = _dotted_name(expr.func)
        if dotted:
            resolved = table.resolve_dotted(func.module, dotted)
            if resolved in table.classes:
                return resolved
            if resolved in table.functions:
                return table.functions[resolved].return_type
        # Method call with an inferable receiver: use its return type.
        if isinstance(expr.func, ast.Attribute):
            receiver = infer_expr_type(
                table, func, local_types, expr.func.value
            )
            if receiver:
                target = table.resolve_method(receiver, expr.func.attr)
                if target and target in table.functions:
                    return table.functions[target].return_type
        return None
    if isinstance(expr, ast.Name):
        if expr.id in local_types:
            return local_types[expr.id]
        module = table.modules.get(func.module)
        if module and expr.id in module.var_types:
            return module.var_types[expr.id]
        return None
    if isinstance(expr, ast.Attribute):
        receiver = infer_expr_type(table, func, local_types, expr.value)
        if receiver:
            cls = table.classes.get(receiver)
            if cls and expr.attr in cls.attr_types:
                return cls.attr_types[expr.attr]
            return None
        dotted = _dotted_name(expr)
        if dotted:
            # Module-level variable accessed through the module object
            # (e.g. ``_races._ACTIVE`` with a typed annotation).
            prefix, _, leaf = dotted.rpartition(".")
            resolved = table.resolve_dotted(func.module, prefix) if prefix else None
            if resolved in table.modules:
                return table.modules[resolved].var_types.get(leaf)
        return None
    return None
