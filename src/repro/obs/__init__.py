"""Observability subsystem: spans, metrics, exporters.

``repro.obs`` turns the per-experiment latency bookkeeping into a
first-class measurement layer:

* :mod:`repro.obs.spans` — a :class:`Tracer` whose spans ride along
  SBI/PFCP/NGAP descriptors through ``MessageBus`` / ``Ring`` /
  ``NetworkFunction._run``; one traced run yields the full causal tree
  of a 3GPP procedure with per-NF, per-interface, and
  per-cost-component timing.
* :mod:`repro.obs.metrics` — counters, gauges, and fixed-bucket
  histograms behind a :class:`MetricsRegistry`; ``MessageBus.lost`` is
  a thin view over a counter, and a ``Ring`` exports the ledger it
  keeps in its own indices as callback gauges (``register_into``).
* :mod:`repro.obs.export` — Chrome-trace/Perfetto JSON for spans,
  flat JSON/CSV for metrics, plus an ASCII tree renderer.
* :mod:`repro.obs.breakdown` — Fig 6 (serialize/protocol/deserialize)
  and Fig 8 (per-interface) decompositions as queries over a trace.

Tracing is **off by default** and opt-in via the context manager::

    from repro import obs

    with obs.tracing(core.env) as tracer:
        scenario.run(core, {supi: [("register", 1)]})
    print(obs.render_tree(tracer))

It reads only ``env.now`` (never the wall clock — R001) and creates no
simulation events, so enabling it cannot change any latency result.
``python -m repro.obs`` renders a procedure trace from the terminal.
"""

from .breakdown import (
    COST_COMPONENTS,
    MessageBreakdown,
    interface_breakdown,
    message_breakdowns,
)
from .export import (
    chrome_trace,
    metrics_to_csv,
    metrics_to_json,
    render_tree,
    validate_chrome_trace,
    write_chrome_trace,
)
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .spans import Span, Tracer, active, disable, enable, traced, tracing

__all__ = [
    # spans
    "Span",
    "Tracer",
    "tracing",
    "enable",
    "disable",
    "active",
    "traced",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    # export
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "metrics_to_json",
    "metrics_to_csv",
    "render_tree",
    # breakdown
    "COST_COMPONENTS",
    "MessageBreakdown",
    "message_breakdowns",
    "interface_breakdown",
]
