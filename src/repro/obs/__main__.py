"""``python -m repro.obs`` — render a traced 3GPP procedure.

Runs the full UE lifecycle (registration → PDU session → N2 handover →
idle → paging) on a chosen system configuration with tracing enabled,
then renders the requested procedure's span tree, the Fig 6-style
per-message cost breakdown, and the Fig 8-style interface breakdown.

Examples
--------
::

    python -m repro.obs                               # registration on l25gc
    python -m repro.obs --procedure handover --system free5gc
    python -m repro.obs --chrome-trace trace.json     # open in ui.perfetto.dev
    python -m repro.obs --metrics metrics.json
    python -m repro.obs --validate trace.json         # CI schema check

This is a CLI module: ``print`` is its output channel (R007 exempts
``__main__`` modules).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from ..cp import scenario
from ..cp.core5g import SYSTEMS, FiveGCore
from ..sim.engine import Environment
from . import breakdown as _breakdown
from . import export as _export
from . import spans as _spans

#: CLI name -> root span name emitted by the traced procedures.
PROCEDURES = {
    "registration": "registration",
    "session": "session-request",
    "handover": "handover",
    "paging": "paging",
}


def _run_lifecycle(system: str):
    env = Environment()
    core = FiveGCore(env, SYSTEMS[system]())
    with _spans.tracing(env) as tracer:
        scenario.run(core, {"imsi-208930000000003": scenario.UE_LIFECYCLE})
    return tracer, core


def _print_breakdowns(tracer: "_spans.Tracer", root: "_spans.Span") -> None:
    rows = _breakdown.message_breakdowns(tracer, within=root)
    if rows:
        print()
        print("per-message cost components (us):")
        header = f"{'message':<34} {'iface':<6} {'serialize':>9} "
        header += f"{'protocol':>9} {'deserial.':>9} {'handler':>9} {'total':>9}"
        print(header)
        for row in rows:
            print(
                f"{row.name[:34]:<34} {row.interface:<6} "
                f"{row.components.get('serialize', 0.0) * 1e6:>9.2f} "
                f"{row.components.get('protocol', 0.0) * 1e6:>9.2f} "
                f"{row.components.get('deserialize', 0.0) * 1e6:>9.2f} "
                f"{row.components.get('handler', 0.0) * 1e6:>9.2f} "
                f"{row.total * 1e6:>9.2f}"
            )
    print()
    print("interface breakdown (ms):")
    for bucket, seconds in sorted(
        _breakdown.interface_breakdown(tracer, root).items()
    ):
        print(f"  {bucket:<10} {seconds * 1e3:8.3f}")


def _validate(path: str) -> int:
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    problems = _export.validate_chrome_trace(doc)
    if problems:
        for problem in problems:
            print(f"{path}: {problem}", file=sys.stderr)
        return 1
    count = len(doc["traceEvents"] if isinstance(doc, dict) else doc)
    print(f"{path}: valid trace-event JSON ({count} events)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Render a traced 3GPP procedure from the L25GC reproduction.",
    )
    parser.add_argument(
        "--procedure",
        choices=sorted(PROCEDURES) + ["all"],
        default="registration",
    )
    parser.add_argument("--system", choices=SYSTEMS, default="l25gc")
    parser.add_argument("--chrome-trace", metavar="PATH")
    parser.add_argument("--metrics", metavar="PATH",
                        help="write a metrics dump (.json or .csv)")
    parser.add_argument("--max-depth", type=int, default=None)
    parser.add_argument("--no-breakdown", action="store_true")
    parser.add_argument(
        "--validate", metavar="PATH",
        help="validate an existing Chrome-trace JSON file and exit",
    )
    args = parser.parse_args(argv)

    if args.validate:
        return _validate(args.validate)

    tracer, core = _run_lifecycle(args.system)

    wanted: List[str] = (
        sorted(set(PROCEDURES.values()))
        if args.procedure == "all"
        else [PROCEDURES[args.procedure]]
    )
    shown = 0
    for root in tracer.roots():
        if root.name not in wanted:
            continue
        shown += 1
        print(f"== {root.name} on {args.system} "
              f"({root.duration * 1e3:.3f} ms) ==")
        print(_export.render_tree(tracer, root, max_depth=args.max_depth))
        if not args.no_breakdown:
            _print_breakdowns(tracer, root)
        print()
    if shown == 0:
        print(f"no root span found for {wanted}", file=sys.stderr)
        return 1

    if args.chrome_trace:
        doc = _export.write_chrome_trace(args.chrome_trace, tracer)
        print(f"wrote {args.chrome_trace} "
              f"({len(doc['traceEvents'])} trace events)")
    if args.metrics:
        registry = core.metrics_registry()
        if args.metrics.endswith(".csv"):
            payload = _export.metrics_to_csv(registry)
        else:
            payload = _export.metrics_to_json(registry)
        with open(args.metrics, "w", encoding="utf-8") as handle:
            handle.write(payload)
        print(f"wrote {args.metrics} ({len(registry)} metrics)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
