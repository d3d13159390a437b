"""``python -m repro.analysis [paths]`` — the one static-analysis CLI.

Runs R001–R008 and W001–W009 (:func:`repro.analysis.analyzer.analyze`)
over the given files/directories, default ``src tests`` plus
``examples benchmarks`` where they exist; the whole-program checks take
the files outside any ``tests/`` directory, and W009 roots its reach at
``tests/conftest.py``, ``examples/``, ``benchmarks/`` and the
``__main__`` modules.

Options
-------
``--json``
    Emit the whole report as one JSON document: findings (with call
    chains), the codes that ran, the hot-path map, stats, and wall time
    per phase (parse, each rule, symbols, call graph, each check).
``--format text|github``
    ``github`` prints findings as GitHub Actions workflow annotations
    so they land on PR lines.
``--select CODES`` / ``--ignore CODES``
    Comma-separated codes to run / to skip.
``--list-rules``
    Print the rule catalog and exit.
``--graph json|dot``
    Dump the call graph instead of checking.  ``--graph-focus``
    restricts the DOT rendering to the subgraph reachable from the
    given entry points (the UPF-U packet-path figure in the docs).
``--entry QUALNAME``
    Override the W001 per-packet entry points (repeatable).

Exit codes: 0 clean, 1 findings (an unused ``repro: noqa`` and a syntax
error are findings), 2 unreadable input or bad usage (including an
``--entry`` or ``--graph-focus`` qualname that names no function).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterable, List, Optional, Sequence, Set, TextIO

from .analyzer import (
    PROGRAM_CHECKS,
    all_codes,
    analyze,
    build_program,
    load_files,
    parse_files,
)
from .program.symbols import SymbolTable
from .rules import RULE_REGISTRY, Finding

__all__ = ["EXIT_CLEAN", "EXIT_FINDINGS", "EXIT_USAGE", "main"]

#: No unsuppressed findings.
EXIT_CLEAN = 0
#: At least one unsuppressed finding.
EXIT_FINDINGS = 1
#: Unreadable input or bad usage (argparse's own exit code).
EXIT_USAGE = 2


def github_annotation(finding: Finding) -> str:
    """Render a finding as a GitHub Actions workflow command so CI
    findings annotate the offending PR line."""
    level = "error" if finding.severity == "error" else "warning"
    # The message payload must be single-line; %0A encodes newlines.
    message = f"{finding.code} {finding.message}".replace(
        "%", "%25"
    ).replace("\r", "").replace("\n", "%0A")
    return (
        f"::{level} file={finding.path},line={finding.line},"
        f"col={finding.col},title={finding.code}::{message}"
    )


def emit_findings(
    findings: Sequence[Finding],
    fmt: str = "text",
    stream: Optional[TextIO] = None,
) -> None:
    """Print findings in ``text`` or ``github`` format."""
    stream = stream if stream is not None else sys.stdout
    if fmt == "github":
        for finding in findings:
            print(github_annotation(finding), file=stream)
        return
    for finding in findings:
        print(finding.format(), file=stream)
    if findings:
        print(f"{len(findings)} finding(s)", file=stream)


def _codes(raw: Optional[str], parser: argparse.ArgumentParser) -> Set[str]:
    codes = {code.strip().upper() for code in (raw or "").split(",")}
    codes.discard("")
    unknown = codes - set(all_codes())
    if unknown:
        parser.error(f"unknown code(s): {', '.join(sorted(unknown))}")
    return codes


def _report_unresolved(
    entries: Optional[Iterable[str]], table: Optional[SymbolTable]
) -> bool:
    """Print each command-line qualname that names no function and say
    whether there was one: a check rooted at nothing would pass having
    checked nothing."""
    missing = [
        entry for entry in entries or ()
        if table is not None and entry not in table.functions
    ]
    for entry in missing:
        print(f"error: no function named {entry}", file=sys.stderr)
    return bool(missing)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Static analysis of the L25GC reproduction: determinism and "
            "ownership rules (R001-R008), hot-path, layering, "
            "lifecycle and reach checks (W001, W004-W009)."
        ),
    )
    parser.add_argument("paths", nargs="*")
    parser.add_argument("--json", action="store_true", dest="as_json")
    parser.add_argument(
        "--format", choices=("text", "github"), default="text"
    )
    parser.add_argument("--select", metavar="CODES")
    parser.add_argument("--ignore", metavar="CODES")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--graph", choices=("json", "dot"))
    parser.add_argument(
        "--graph-focus",
        metavar="ENTRIES",
        help="comma-separated entry qualnames to restrict --graph dot to",
    )
    parser.add_argument(
        "--entry",
        action="append",
        metavar="QUALNAME",
        help="override the W001 hot-path entry points (repeatable)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for code in sorted(RULE_REGISTRY):
            rule = RULE_REGISTRY[code]
            doc = (rule.__doc__ or "").strip().split("\n")[0]
            print(f"{code}  {rule.name:<26} {doc}")
        for code, (name, doc) in sorted(PROGRAM_CHECKS.items()):
            print(f"{code}  {name:<26} {doc}")
        return EXIT_CLEAN

    selected = _codes(args.select, parser) or set(all_codes())
    selected -= _codes(args.ignore, parser)
    paths = args.paths or ["src", "tests"] + [
        root for root in ("examples", "benchmarks") if os.path.isdir(root)
    ]
    try:
        files = load_files(paths)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.graph:
        program = build_program(parse_files(files)[0])
        focus: Optional[List[str]] = args.entry
        if args.graph_focus:
            focus = [e.strip() for e in args.graph_focus.split(",")]
        if _report_unresolved(focus, program.table):
            return EXIT_USAGE
        if args.graph == "json":
            print(program.graph.to_json())
        else:
            print(
                program.graph.to_dot(
                    entries=focus, stop_modules=program.stops
                ),
                end="",
            )
        return EXIT_CLEAN

    report = analyze(files, select=selected, entry_points=args.entry)
    if _report_unresolved(args.entry, report.table):
        return EXIT_USAGE
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        emit_findings(report.findings, fmt=args.format)
    return EXIT_FINDINGS if report.findings else EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
