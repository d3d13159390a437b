"""Fig 8 — total control-plane latency per UE event.

Runs the full registration / session-request / N2-handover / paging
procedures on all three systems (free5GC, ONVM-UPF, L25GC) and reports
completion times.  Expected shape, per the paper:

* ONVM-UPF is only marginally better than free5GC (only N4 improved);
* L25GC roughly halves every event (up to ~51 % reduction);
* paging lands near 59 ms vs 28 ms, handover near 227 ms vs 130 ms
  (these durations also drive Tables 1-2).

:func:`event_interface_breakdown` decomposes each event's wall time by
interface (SBI / N4 / NGAP / radio).  It runs the same lifecycle under
:mod:`repro.obs` tracing and queries the span tree — no bespoke
message accounting; the trace is the accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.costs import DEFAULT_COSTS, CostModel
from ..cp import scenario
from ..cp.core5g import SYSTEMS, FiveGCore
from ..obs import breakdown as _breakdown
from ..obs import spans as _tracing
from ..sim.engine import Environment
from .common import UE_EVENTS, run_ue_events

__all__ = [
    "EventLatencyRow",
    "event_completion_times",
    "event_interface_breakdown",
]


@dataclass
class EventLatencyRow:
    """One event's bar group in Fig 8."""

    event: str
    free5gc_s: float
    onvm_upf_s: float
    l25gc_s: float
    messages: int

    @property
    def reduction(self) -> float:
        return 1.0 - self.l25gc_s / self.free5gc_s


def event_completion_times(
    costs: CostModel = DEFAULT_COSTS, num_ues: int = 1
) -> List[EventLatencyRow]:
    """Fig 8's bar groups, with per-event message counts."""
    durations: Dict[str, Dict[str, float]] = {}
    messages: Dict[str, int] = {}
    for system, config_factory in SYSTEMS.items():
        results = run_ue_events(config_factory(), costs=costs, num_ues=num_ues)
        durations[system] = {
            event: result.duration for event, result in results.items()
        }
        if system == "free5gc":
            messages = {
                event: result.messages for event, result in results.items()
            }
    return [
        EventLatencyRow(
            event=event,
            free5gc_s=durations["free5gc"][event],
            onvm_upf_s=durations["onvm-upf"][event],
            l25gc_s=durations["l25gc"][event],
            messages=messages[event],
        )
        for event in UE_EVENTS
    ]


def event_interface_breakdown(
    costs: CostModel = DEFAULT_COSTS,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Per-system, per-event wall time split by interface (seconds).

    Returns ``{system: {event: {"sbi": ..., "n4": ..., "ngap": ...,
    "radio": ..., "other": ..., "total": ...}}}``.  The split is
    derived entirely from the trace's message and radio spans, plus the
    trace-derived message count (``messages``) — the same numbers the
    pre-obs code kept in hand-rolled tallies.
    """
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for system, config_factory in SYSTEMS.items():
        env = Environment()
        core = FiveGCore(env, config_factory(), costs=costs)
        tracer = _tracing.enable(env)
        try:
            scenario.run(
                core, {"imsi-208930000000001": scenario.UE_LIFECYCLE})
        finally:
            _tracing.disable()

        per_event: Dict[str, Dict[str, float]] = {}
        for root in tracer.roots():
            if root.name not in UE_EVENTS:
                continue
            split = _breakdown.interface_breakdown(tracer, root)
            split["messages"] = float(
                len(tracer.find(category="message", within=root))
            )
            per_event[root.name] = split
        out[system] = per_event
    return out
