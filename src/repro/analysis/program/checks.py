"""The two call-graph checks W001 and W004.

========  ==================================================================
W001      Hot-path allocation: every allocation *site* (object
          construction, container/string building, comprehension,
          generator creation) in a function reachable from the UPF-U
          per-packet entry points is a finding at the line of the
          allocating expression.  An intentional cost is excused where
          it stands — ``# repro: noqa[W001] -- reason`` on that line —
          so the exemption moves with the code and dies with it (an
          excuse on a line that no longer allocates is reported).
W004      Layering conformance: import edges may not point up the
          stack (``sim`` imports nothing from the project; ``up`` and
          ``cp`` may not import each other's internals; the
          instrumentation packages ``analysis``/``obs`` are never
          imported from the hot-path package).
========  ==================================================================

Findings carry call-chain evidence and are suppressed by the same
inline ``# repro: noqa[...]`` comments as the file-local rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..astutil import dotted, walk_own
from ..rules import Finding
from .solver import Program
from .symbols import INSTRUMENTATION, FunctionInfo, SymbolTable

__all__ = [
    "DEFAULT_PACKET_ENTRIES",
    "AllocationSite",
    "allocation_sites",
    "check_w001",
    "check_w004",
    "function_finding",
]

#: The UPF-U per-packet entry points (direct API + platform ring path,
#: singleton and burst variants).
DEFAULT_PACKET_ENTRIES = (
    "repro.up.upf_u.UPFUserPlane.process",
    "repro.up.upf_u.UPFUserPlane.handle",
    "repro.up.upf_u.UPFUserPlane.process_burst",
    "repro.up.upf_u.UPFUserPlane.handle_burst",
)


def function_finding(
    func: FunctionInfo,
    lineno: int,
    code: str,
    message: str,
    chain: Sequence[str] = (),
) -> Finding:
    """An error-severity finding at ``lineno`` of ``func``'s file."""
    return Finding(
        path=func.path,
        line=lineno,
        col=1,
        code=code,
        severity="error",
        message=message,
        chain=tuple(chain),
    )


# ---------------------------------------------------------------------------
# W001 — allocation sites on the per-packet path
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AllocationSite:
    """One statically visible allocation in a function body."""

    lineno: int
    kind: str  # "list-display", "object-construction", ...
    detail: str = ""


_DISPLAY_KINDS = (
    (ast.List, "list-display"),
    (ast.Dict, "dict-display"),
    (ast.Set, "set-display"),
    (ast.ListComp, "list-comprehension"),
    (ast.SetComp, "set-comprehension"),
    (ast.DictComp, "dict-comprehension"),
    (ast.GeneratorExp, "generator-expression"),
    (ast.JoinedStr, "f-string"),
    (ast.Lambda, "closure"),
)

_CONSTRUCTOR_BUILTINS = frozenset(
    {"list", "dict", "set", "bytearray", "frozenset"}
)


def allocation_sites(
    table: SymbolTable, func: FunctionInfo
) -> List[AllocationSite]:
    """The function's own allocation sites, in line order."""
    own = [node for node in walk_own(func.node) if node is not func.node]
    # ``a, b = x, y`` compiles to register moves, not a tuple build.
    swap_values = {
        id(node.value)
        for node in own
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Tuple)
        and any(isinstance(t, ast.Tuple) for t in node.targets)
    }
    sites: List[AllocationSite] = []
    for node in own:
        for node_type, kind in _DISPLAY_KINDS:
            if isinstance(node, node_type):
                sites.append(AllocationSite(node.lineno, kind))
                break
        else:
            if isinstance(node, ast.Tuple) and isinstance(
                node.ctx, ast.Load
            ):
                if node.elts and id(node) not in swap_values:
                    sites.append(
                        AllocationSite(node.lineno, "tuple-display")
                    )
            elif isinstance(node, ast.Call):
                name = dotted(node.func)
                if name is None:
                    continue
                if name in _CONSTRUCTOR_BUILTINS:
                    sites.append(
                        AllocationSite(
                            node.lineno, "container-constructor", name
                        )
                    )
                    continue
                resolved = table.resolve_dotted(func.module, name)
                if resolved in table.classes:
                    sites.append(
                        AllocationSite(
                            node.lineno,
                            "object-construction",
                            resolved.split(".")[-1],
                        )
                    )
                elif resolved in table.functions and table.functions[
                    resolved
                ].is_generator:
                    sites.append(
                        AllocationSite(
                            node.lineno,
                            "generator-creation",
                            resolved.split(".")[-1],
                        )
                    )
    sites.sort(key=lambda site: site.lineno)
    return sites


def check_w001(
    program: Program, hot_path: Dict[str, Tuple[str, ...]]
) -> List[Finding]:
    """``hot_path`` maps each function reachable from the packet entry
    points to its witness chain (``CallGraph.reachable``)."""
    table = program.table
    findings: List[Finding] = []
    for qualname, chain in sorted(hot_path.items()):
        func = table.functions[qualname]
        for site in allocation_sites(table, func):
            what = site.kind + (f" ({site.detail})" if site.detail else "")
            findings.append(
                function_finding(
                    func,
                    site.lineno,
                    "W001",
                    f"allocation site on the UPF-U per-packet path: {what} "
                    f"in {func.name}(); hoist it off the hot path, or "
                    "excuse it on this line with "
                    "`# repro: noqa[W001] -- reason`",
                    chain=[f"-> {step}" for step in chain],
                )
            )
    return findings


# ---------------------------------------------------------------------------
# W004 — layering conformance
# ---------------------------------------------------------------------------
def check_w004(table: SymbolTable) -> List[Finding]:
    findings: List[Finding] = []

    def within(name: str, package: str) -> bool:
        return name == package or name.startswith(package + ".")

    for name, module in sorted(table.modules.items()):
        root = name.split(".")[0]
        sim_pkg, up_pkg, cp_pkg = f"{root}.sim", f"{root}.up", f"{root}.cp"

        def flag(lineno: int, message: str) -> None:
            findings.append(
                Finding(
                    path=module.path,
                    line=lineno,
                    col=1,
                    code="W004",
                    severity="error",
                    message=f"layering: {message}",
                )
            )

        for target, lineno in module.import_edges:
            if target.split(".")[0] != root:
                continue
            if within(name, sim_pkg) and not within(target, sim_pkg):
                flag(
                    lineno,
                    f"sim module {name} imports {target}; the simulation "
                    "kernel sits at the bottom of the stack and imports "
                    "nothing above it",
                )
            for side, mine, other, theirs in (
                ("up", up_pkg, "cp", cp_pkg),
                ("cp", cp_pkg, "up", up_pkg),
            ):
                if within(name, mine) and target.startswith(theirs + "."):
                    flag(
                        lineno,
                        f"{side} module {name} imports {other} internals "
                        f"({target}); cross-plane access goes through the "
                        f"package facade (import the {other} package, not "
                        "its submodules)",
                    )
            if within(name, up_pkg) and any(
                within(target, f"{root}.{sub}") for sub in INSTRUMENTATION
            ):
                flag(
                    lineno,
                    f"hot-path module {name} imports instrumentation "
                    f"package {target}; analysis/obs must never be "
                    "imported from the per-packet forwarding path",
                )
    return findings
