"""The one static analyser: :func:`analyze`.

One run reads and parses every file once (one
:class:`~repro.analysis.rules.FileContext` each, shared by the R-rules,
the symbol table and the suppression filter), builds one symbol table,
one call graph and one CFG per function over the production files
(those outside any ``tests/`` directory), runs R001–R008, W001 and
W004–W008 over them, runs W009 over every file (its roots are ``tests/conftest.py``,
``examples/``, ``benchmarks/`` and the ``__main__`` modules; it runs
only when those are in the set, and builds no program), and only then
filters: it sees every finding before any is suppressed, which is what
lets it report a ``repro: noqa`` that excused nothing.

Exemptions are inline comments and nothing else — there is no baseline
or budget file.  The property those guarded ("a suppression cannot
outlive its debt") is the *unused suppression* finding
(:data:`~repro.analysis.rules.UNUSED_SUPPRESSION`): a coded ``noqa``
whose code ran and raised nothing on that line, a bare ``noqa`` on a
line with no finding at all, or a ``noqa`` naming a code that does not
exist.  It is suppressible by nothing.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple,
)

from .program.callgraph import CallGraph, build_call_graph
from .program.checks import (
    DEFAULT_PACKET_ENTRIES,
    check_w001,
    check_w004,
)
from .program.reach import check_w009, has_roots
from .program.solver import Program
from .program.symbols import SymbolTable, build_symbol_table
from .program.typestate import check_typestate, check_w008
from .rules import (
    RULE_REGISTRY,
    SYNTAX_ERROR,
    UNUSED_SUPPRESSION,
    FileContext,
    Finding,
)

__all__ = [
    "PROGRAM_CHECKS",
    "Report",
    "all_codes",
    "analyze",
    "build_program",
    "iter_python_files",
    "load_files",
    "parse_files",
]

#: The whole-program checks: code -> (name, one-line description).
PROGRAM_CHECKS: Dict[str, Tuple[str, str]] = {
    "W001": ("hot-path-allocation",
             "Allocation site on the UPF-U per-packet path."),
    "W004": ("layering",
             "Import edge pointing up the stack (sim/up/cp/"
             "instrumentation)."),
    "W005": ("descriptor-typestate",
             "Mutate-after-send / double-enqueue of a descriptor."),
    "W006": ("session-lifecycle",
             "Session/rule use after remove, double establish, dangling "
             "FAR reference."),
    "W007": ("leak-on-raise",
             "Resource still held on a raising path."),
    "W008": ("dead-config",
             "Config flag or metric instrument nothing observes."),
    "W009": ("unreached-definition",
             "Definition no user-run root (__main__, conftest, examples/, "
             "benchmarks/) reaches."),
}


def all_codes() -> List[str]:
    """Every selectable code, R-rules then W-checks."""
    return sorted(RULE_REGISTRY) + sorted(PROGRAM_CHECKS)


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
        elif os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if not d.startswith(".") and d != "__pycache__"
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        out.append(os.path.join(root, name))
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return out


def load_files(paths: Sequence[str]) -> List[Tuple[str, str]]:
    """Read every python file under ``paths`` as (path, source)."""
    files: List[Tuple[str, str]] = []
    for path in iter_python_files(paths):
        with open(path, "r", encoding="utf-8") as handle:
            files.append((path, handle.read()))
    return files


def parse_files(
    files: Sequence[Tuple[str, str]]
) -> Tuple[List[FileContext], List[Finding]]:
    """Parse each ``(path, source)`` once.  A file with a syntax error
    becomes one R000 finding and is left out of the contexts, so the
    remaining files are still checked."""
    contexts: List[FileContext] = []
    broken: List[Finding] = []
    for path, source in files:
        try:
            contexts.append(FileContext.parse(path, source))
        except SyntaxError as exc:
            broken.append(
                Finding(
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    code=SYNTAX_ERROR,
                    severity="error",
                    message=f"syntax error: {exc.msg}",
                )
            )
    return contexts, broken


def build_program(
    contexts: Sequence[FileContext],
    timed: Callable[[str, Callable[[], object]], object] = (
        lambda phase, work: work()
    ),
) -> Program:
    """One symbol table and one call graph over the production files
    (``timed(phase, work)`` wraps the two phases when given)."""
    table = timed("symbols", lambda: build_symbol_table(
        [ctx for ctx in contexts if not ctx.is_test]
    ))
    return Program(table, timed("callgraph", lambda: build_call_graph(table)))


@dataclass
class Report:
    """Everything one run produced."""

    #: Unsuppressed findings, sorted by (path, line, col, code).
    findings: List[Finding]
    #: How many findings an inline ``noqa`` excused.
    suppressed: int = 0
    #: The codes that ran (a selected W001 with no resolvable entry
    #: point did not, nor a W009 whose roots are not in the analysed
    #: set).
    codes: Tuple[str, ...] = ()
    #: None when no whole-program check was selected.
    table: Optional[SymbolTable] = None
    graph: Optional[CallGraph] = None
    #: qualname -> witness chain from a packet entry point.
    hot_path: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    stats: Dict[str, int] = field(default_factory=dict)
    #: phase -> wall seconds, in execution order: ``parse``, one entry
    #: per R-rule, ``symbols``, ``callgraph``, one per W-check,
    #: ``suppressions``.
    timings: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": self.suppressed,
            "codes": list(self.codes),
            "hot_path": {
                qualname: list(chain)
                for qualname, chain in sorted(self.hot_path.items())
            },
            "stats": dict(self.stats),
            "timings": {
                phase: round(seconds, 4)
                for phase, seconds in self.timings.items()
            },
            "wall_s": round(sum(self.timings.values()), 4),
        }


def _clock() -> float:
    return time.perf_counter()  # repro: noqa[R001] -- the analyser times its own phases; a host tool, not simulation code


def analyze(
    files: Sequence[Tuple[str, str]],
    select: Optional[Iterable[str]] = None,
    entry_points: Optional[Sequence[str]] = None,
) -> Report:
    """Run the selected codes (default: all) over ``(path, source)``
    pairs.  ``entry_points`` overrides the W001 packet entry points."""
    wanted = set(all_codes() if select is None else select)
    ran: Set[str] = set()
    findings: List[Finding] = []
    timings: Dict[str, float] = {}

    def timed(phase: str, work: Callable[[], object]) -> object:
        begin = _clock()
        result = work()
        timings[phase] = _clock() - begin
        return result

    contexts, broken = timed("parse", lambda: parse_files(files))
    findings.extend(broken)
    report = Report(findings=findings, timings=timings)
    report.stats["files"] = len(files)

    for code in sorted(wanted & set(RULE_REGISTRY)):
        rule = RULE_REGISTRY[code]()
        timed(code, lambda: findings.extend(
            finding for ctx in contexts for finding in rule.check(ctx)
        ))
        ran.add(code)

    if wanted & set(PROGRAM_CHECKS) - {"W009"}:
        program = build_program(contexts, timed)
        table = program.table
        entries = [
            entry
            for entry in (
                DEFAULT_PACKET_ENTRIES if entry_points is None
                else entry_points
            )
            if entry in table.functions
        ]
        hot_path = program.graph.reachable(
            entries, stop_modules=program.stops
        )
        checks: Dict[str, Callable[[], List[Finding]]] = {
            "W004": lambda: check_w004(table),
            "W005": lambda: check_typestate(program, "W005"),
            "W006": lambda: check_typestate(program, "W006"),
            "W007": lambda: check_typestate(program, "W007"),
            "W008": lambda: check_w008(program),
        }
        if entries:  # else nothing to reach from: W001 does not run
            checks["W001"] = lambda: check_w001(program, hot_path)
        for code in sorted(wanted & set(checks)):
            findings.extend(timed(code, checks[code]))
            ran.add(code)
        report.table, report.graph = table, program.graph
        report.hot_path = hot_path
        report.stats.update(
            modules=len(table.modules),
            functions=len(table.functions),
            classes=len(table.classes),
            call_edges=len(program.graph.edges),
            unknown_edges=len(program.graph.unknown),
            cfgs=program.cfgs_built,
        )

    if "W009" in wanted and has_roots(contexts):
        findings.extend(timed("W009", lambda: check_w009(contexts)))
        ran.add("W009")

    report.codes = tuple(sorted(ran))
    kept, report.suppressed = timed("suppressions", lambda: _filter(
        contexts, findings, ran, complete=wanted >= set(all_codes())
    ))
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.code, f.message))
    report.findings = kept
    return report


def _filter(
    contexts: Sequence[FileContext],
    findings: Sequence[Finding],
    ran: Set[str],
    complete: bool,
) -> Tuple[List[Finding], int]:
    """Drop the findings an inline ``noqa`` excuses (returning how many
    that was beside the rest); add one
    :data:`UNUSED_SUPPRESSION` finding per ``noqa`` that excused nothing.

    A coded suppression is judged only for codes that ran; a bare one
    only when every code ran (otherwise the finding it excuses may
    simply not have been looked for) and the line has no finding at all.
    """
    by_path = {ctx.path: ctx for ctx in contexts}
    known = set(all_codes())
    raised: Set[Tuple[str, int, str]] = set()
    kept: List[Finding] = []
    for finding in findings:
        raised.add((finding.path, finding.line, finding.code))
        ctx = by_path.get(finding.path)
        # A file that did not parse (R000) has no context: nothing in
        # it can suppress anything.
        if ctx is None or not ctx.is_suppressed(finding):
            kept.append(finding)
    suppressed = len(findings) - len(kept)
    lines_with_findings = {(path, line) for path, line, _ in raised}
    for ctx in contexts:
        for line, codes in sorted(ctx.noqa.items()):
            unused: List[str] = []
            if not codes:
                if complete and (ctx.path, line) not in lines_with_findings:
                    unused.append("a bare noqa, but no check fires here")
            for code in sorted(codes):
                if code not in known:
                    unused.append(f"{code} names no check")
                elif code in ran and (ctx.path, line, code) not in raised:
                    unused.append(f"{code} does not fire here")
            kept.extend(
                Finding(
                    path=ctx.path,
                    line=line,
                    col=1,
                    code=UNUSED_SUPPRESSION,
                    severity="error",
                    message=f"unused suppression: {why}; delete the "
                    "comment (an exemption must not outlive its debt)",
                )
                for why in unused
            )
    return kept, suppressed
